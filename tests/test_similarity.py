import dataclasses
import gc
import itertools
import math
import os
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

import sswave as sw
from sswave.core import PhysicalState
from sswave.quadrature import RuleTable
from sswave.similarity import (PolyField, RadialSpline, StaticSnapshot, TestField,
                               WeightedPoly, harmonic_poly, to_similarity,
                               trajectory_to_w)
from sswave import functionals as fu
from sswave import core, similarity, verify

from conftest import boosted_snapshot, observed_order, solve


# ---------------------------------------------------------------------------
# closed-form test fields

def sympy_poly(ys, poly: PolyField):
    return sum((c * sympy.prod([ys[d] ** k[d] for d in range(len(ys))])
                for k, c in poly.coeffs.items()), sympy.Integer(0))


def sympy_field(tf: TestField):
    """Independent symbolic build of w = (1-|y|^2)^a q(y) (cos mode folded)
    and of its ds w part (zero when the field has none)."""
    ys = sympy.symbols(f"y0:{tf.N}")
    q = sympy_poly(ys, tf.poly)
    if tf.m:
        q = q * sympy.re(sympy.expand((ys[0] + sympy.I * ys[1]) ** tf.m))
    r2 = sum(y ** 2 for y in ys)
    ws = sympy.Integer(0)
    if tf.ws_poly is not None:
        ws = (1 - r2) ** sympy.nsimplify(tf.ws_a) * sympy_poly(ys, tf.ws_poly)
    return ys, (1 - r2) ** sympy.nsimplify(tf.a) * q, ws


def test_constant_field_is_flat():
    rules = RuleTable(3, n_radial=12)
    snap = StaticSnapshot(TestField(N=3, a=0.0, poly=PolyField(3, {(0, 0, 0): 1.0})))
    assert np.allclose(snap.on(rules.rule(0.6)).w, 1.0)
    assert np.allclose(snap.fields(rules.rule(0.6).points)[2], 0.0)
    assert np.allclose(snap.pohozaev_div_over_rho(rules.rule(0.6).points, 0.6), 0.0)


@pytest.mark.parametrize("tf", [
    TestField(N=2, a=1.0, poly=PolyField(2, {(1, 0): 1.0})),
    # degree 4, mixed monomials; y0, y1 and y2 each appear with exponent 1
    # in some monomial, whose diagonal second partial in it must vanish
    TestField(N=3, a=2.0,
              poly=PolyField(3, {(0, 0, 0): 0.5, (1, 2, 0): 0.7, (0, 1, 1): -1.3,
                                 (2, 0, 1): 0.4, (1, 1, 1): 0.9, (0, 0, 3): -0.2,
                                 (2, 2, 0): 0.3}),
              ws_a=1.0, ws_poly=PolyField(3, {(1, 0, 1): 0.8, (0, 2, 0): -0.6,
                                              (0, 0, 0): 0.25})),
], ids=["N2", "N3"])
def test_field_derivatives_match_sympy_oracle(tf):
    N = tf.N
    snap = StaticSnapshot(tf)
    ys, w, ws = sympy_field(tf)
    q = sympy_poly(ys, tf.poly)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.5, 0.5, size=(20, N))
    wv, wsv, gv = snap.fields(pts)
    eps = 0.6
    dv = snap.pohozaev_div_over_rho(pts, eps)
    # (numeric value, gradient, Hessian or None) against the symbolic form:
    # the field, its ds w part, and the polynomial factor q on its own
    cases = [((wv, gv, snap.w_part.hess(pts)), w),
             ((wsv, snap.ws_part.grad(pts), None), ws),
             (tuple(tf.poly.jet(pts, (0, 1, 2))), q)]
    for (val, grad, hess), expr in cases:
        grad_s = [sympy.diff(expr, y) for y in ys]
        hess_s = [[sympy.diff(g, y) for y in ys] for g in grad_s]
        for i, y in enumerate(pts):
            sub = dict(zip(ys, y))
            assert val[i] == pytest.approx(float(expr.subs(sub)), abs=1e-12)
            G = np.array([float(g.subs(sub)) for g in grad_s])
            assert np.allclose(grad[i], G, rtol=0, atol=1e-12)
            if hess is None:
                continue
            H = np.array([[float(h.subs(sub)) for h in row] for row in hess_s])
            assert np.allclose(hess[i], H, rtol=0, atol=1e-12)
            if expr is w:
                # full divergence via the symbolic expansion
                div_sym = np.trace(H) - y @ H @ y - (N + 1 + 2 * eps) * (y @ G)
                assert dv[i] == pytest.approx(div_sym, abs=1e-12)


def test_angular_mode_gives_nonzero_angular_gradient():
    tf = TestField(N=2, a=1.0, poly=PolyField(2, {(0, 0): 1.0}), m=2)
    rules = RuleTable(2, n_radial=12, n_angular=16)
    snap = StaticSnapshot(tf)
    pts = rules.rule(0.6).points
    grad_theta = sw.grad_decompose(pts, snap.fields(pts)[2])[1]
    assert float(np.max(np.abs(grad_theta))) > 0.1
    # harmonic factor really is r^m cos(m theta)
    hp = harmonic_poly(3)
    th = 0.7
    r = 0.5
    val = hp.jet(np.array([[r * math.cos(th), r * math.sin(th)]]), (0,))[0][0]
    assert val == pytest.approx(r ** 3 * math.cos(3 * th), rel=1e-12)


def test_snapshot_decomposition_identities():
    # (wr1)/(wr2) hold nodewise by construction; re-check independently
    rules = RuleTable(2, n_radial=16, n_angular=32)
    rng = np.random.default_rng(0)
    from sswave.verify import random_test_field
    snap = StaticSnapshot(random_test_field(2, rng))
    ns = snap.on(rules.rule(0.6))
    g2 = ns.g2
    scale = np.maximum(g2, 1e-12)
    assert np.all(np.abs(g2 - ns.gr2 - ns.gth2) <= 1e-12 * scale)
    assert np.all(np.abs(ns.ydg ** 2 - ns.r2 * ns.gr2) <= 1e-12 * np.maximum(scale, 1.0))
    assert np.all(np.abs(ns.r2 * g2 - ns.ydg ** 2 - ns.r2 * ns.gth2)
                  <= 1e-12 * np.maximum(scale, 1.0))


def test_static_snapshot_rejects_a_rule_of_another_dimension():
    """A planar field sampled on a ball or sphere rule of N = 3 names both
    dimensions, and caches nothing."""
    snap = StaticSnapshot(TestField(N=2, a=1.0, poly=PolyField(2, {(0, 0): 1.0})))
    rules = RuleTable(3, n_radial=4, n_angular=2)
    for sample in (lambda: snap.on(rules.plain), lambda: snap.boundary(rules.sphere())):
        with pytest.raises(ValueError, match="rule dimension 3 != field dimension 2"):
            sample()
    assert snap._samples == {}


def test_freed_rules_never_lend_their_samples():
    """Node samples are cached by id(rule).  Rules of 200 temporary
    RuleTables, each dropped and collected before the next is built, so
    that a new rule can land on a freed one's id, each get a sample of
    their own nodes.  A collection of the youngest generation suffices:
    rules hold no cycles, and a full one per rule would cost seconds."""
    tf = TestField(N=2, a=1.0, poly=PolyField(2, {(1, 0): 1.0, (0, 2): 0.5}))
    snap = StaticSnapshot(tf)
    for i in range(200):
        rule = RuleTable(2, n_radial=4 + i % 5, n_angular=4).rule(0.6)
        ns = snap.on(rule)
        assert np.array_equal(ns.r2, rule.r2), i
        assert np.array_equal(ns.w, snap.fields(rule.points)[0]), i
        del rule, ns
        gc.collect(0)


def test_boundary_vanishing_for_weighted_fields():
    # a >= 1 kills w and the (1-|y|^2)-weighted gradient at the boundary
    rules = RuleTable(2, n_radial=64, n_angular=8)
    tf = TestField(N=2, a=1.0, poly=PolyField(2, {(0, 0): 1.0, (2, 0): -0.5}))
    snap = StaticSnapshot(tf)
    pts = rules.rule(-0.9).points          # nodes hugging the boundary
    r2 = np.sum(pts ** 2, axis=1)
    near = r2 > 0.995
    assert np.any(near)
    w, _, grad = snap.fields(pts)
    om = 1.0 - r2[near]
    assert np.all(np.abs(w[near]) < 10.0 * om)
    assert np.all((1.0 - r2[near]) * np.sum(grad[near] ** 2, axis=1) < 50.0 * om)


def _poly_jet(poly, pts, degrees):
    """PolyField.jet as a loop over columns, each term an np.full of its
    factor times its powers, from a power table built for the call; kept as
    the reference."""
    pts = np.atleast_2d(pts)
    K = pts.shape[0]
    top = [max((k[d] for k in poly.coeffs), default=0) for d in range(poly.N)]
    powers = [[None] + [pts[:, d] ** e for e in range(1, top[d] + 1)]
              for d in range(poly.N)]
    orders = [list(itertools.product(range(poly.N), repeat=g)) for g in degrees]
    flat = [o for group in orders for o in group]
    cols = np.zeros((K, len(flat)))
    for j, order in enumerate(flat):
        for k, c in poly.coeffs.items():
            kk = list(k)
            fac = c
            for d in order:
                if kk[d] == 0:
                    break
                fac = fac * kk[d]
                kk[d] -= 1
            else:
                term = np.full(K, fac)
                for d, e in enumerate(kk):
                    if e:
                        term = term * powers[d][e]
                cols[:, j] += term
    parts = np.split(cols, np.cumsum([len(group) for group in orders])[:-1], axis=1)
    return [c.reshape((-1,) + (poly.N,) * g) for g, c in zip(degrees, parts)]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_poly_jet_is_the_full_term_loop(N):
    """PolyField.jet, whose coordinate powers are tabulated once per points
    array, equals the np.full loop bit for bit: random polynomials with
    exponents up to 6, every degree alone or requested together, at Gauss
    nodes, on the unit sphere and at a strided view of points, each points
    array evaluated by every polynomial in turn, so later ones reuse and
    extend the table earlier ones built."""
    rng = np.random.default_rng(20 + N)
    if N == 1:
        gauss = np.polynomial.legendre.leggauss(12)[0][:, None]
    else:
        gauss = RuleTable(N, n_radial=6, n_angular={2: 8, 3: 4, 4: 1}[N]).rule(0.6).points
    sphere = rng.standard_normal((100, N))
    sphere /= np.sqrt(np.sum(sphere ** 2, axis=1))[:, None]
    sphere = np.vstack([sphere, np.eye(N), -np.eye(N)])
    strided = rng.uniform(-1.0, 1.0, (150, 2 * N))[:, ::2]
    assert not strided.flags.c_contiguous
    polys = [PolyField(N, {}), PolyField(N, {(0,) * N: 0.75})]
    polys += [PolyField(N, {tuple(int(v) for v in rng.integers(0, 7, size=N)):
                            float(rng.uniform(-1.0, 1.0)) for _ in range(n)})
              for n in (1, 3, 6, 9)]
    for pts in (gauss, sphere, strided):
        for poly in polys:
            for degrees in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)):
                got, want = poly.jet(pts, degrees), _poly_jet(poly, pts, degrees)
                for g, x, y in zip(degrees, got, want):
                    assert np.array_equal(x, y), (poly.coeffs, degrees, g)


def test_power_tables_live_as_long_as_their_points():
    """A power table is dropped with its points array: none outlives the
    rule tables of the identity suite's six batteries, run in this process,
    once they are collected, and a new points array at a freed one's
    address is tabulated afresh.  The batteries raise no RuntimeWarning, so
    no weight power is taken where the degrees asked for do not need it
    (the sphere points, where 1-|y|^2 = 0)."""
    gc.collect()
    before = set(similarity._POWER_TABLES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in (2, 3):
            for eps in (0.6, 1.0, 1.1):
                verify.run_identity_battery(N, eps, n_fields=10, seed=0)
    gc.collect()
    assert set(similarity._POWER_TABLES) <= before
    poly = PolyField(2, {(3, 1): 0.7, (0, 2): -0.4})
    rng = np.random.default_rng(0)
    reused = 0
    for _ in range(20):
        src = rng.uniform(-1.0, 1.0, (40, 2))
        pts = src.copy()
        key = id(pts)
        poly.jet(pts, (0,))
        assert key in similarity._POWER_TABLES
        del pts
        assert key not in similarity._POWER_TABLES
        keep = []
        for _ in range(100):
            fresh = src * 0.5
            if id(fresh) == key:
                reused += 1
                assert np.array_equal(poly.jet(fresh, (0, 1, 2))[2],
                                      _poly_jet(poly, fresh, (2,))[0])
                break
            keep.append(fresh)
    assert reused


def test_a_warning_in_a_suite_worker_fails_the_suite(monkeypatch):
    """identity_suite runs its batteries in worker processes, which inherit
    the caller's warning filters: a weight power taken at a sphere point in
    a worker, under simplefilter("error"), reaches the caller as the
    RuntimeWarning, as it would from the battery run in process."""
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    parent = os.getpid()

    def stray_power(N, eps, n_fields, seed, first):
        assert os.getpid() != parent, "the battery ran in the calling process"
        np.clip(1.0 - np.sum(np.eye(N) ** 2, axis=1), 0.0, None) ** (eps - 1.5)
        return []

    monkeypatch.setattr(verify, "run_identity_battery", stray_power)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            verify.identity_suite(0)


def _weighted_poly_value(wp, pts):
    """WeightedPoly's value, gradient and Hessian as three routines, each
    recomputing |y|^2, its powers and the polynomial; kept as references."""
    pts = np.atleast_2d(pts)
    om = 1.0 - np.sum(pts ** 2, axis=1)
    P = np.ones_like(om) if wp.a == 0.0 else np.clip(om, 0.0, None) ** wp.a
    return P * wp.poly.jet(pts, (0,))[0]


def _weighted_poly_grad(wp, pts):
    a = wp.a
    if a == 0.0:
        return wp.poly.jet(pts, (1,))[0]
    pts = np.atleast_2d(pts)
    om = 1.0 - np.sum(pts ** 2, axis=1)
    q, gq = wp.poly.jet(pts, (0, 1))
    P = om ** a
    return P[:, None] * gq - (2.0 * a) * (om ** (a - 1.0) * q)[:, None] * pts


def _weighted_poly_hess(wp, pts):
    a = wp.a
    if a == 0.0:
        return wp.poly.jet(pts, (2,))[0]
    pts = np.atleast_2d(pts)
    N = pts.shape[1]
    om = 1.0 - np.sum(pts ** 2, axis=1)
    q, gq, Hq = wp.poly.jet(pts, (0, 1, 2))
    P = om ** a
    Pm1 = om ** (a - 1.0)
    eye = np.eye(N)
    out = P[:, None, None] * Hq
    out -= (2.0 * a) * Pm1[:, None, None] * (
        pts[:, :, None] * gq[:, None, :] + gq[:, :, None] * pts[:, None, :]
        + q[:, None, None] * eye[None, :, :])
    if a != 1.0:
        Pm2 = om ** (a - 2.0)
        out += (4.0 * a * (a - 1.0)) * (Pm2 * q)[:, None, None] * (
            pts[:, :, None] * pts[:, None, :])
    return out


@pytest.mark.parametrize("N", [2, 3, 4])
def test_weighted_poly_jet_is_the_three_routines(N):
    """Every degree of WeightedPoly.jet, alone or requested together, equals
    the separate value/grad/hess routines bit for bit, at Gauss nodes and on
    the unit sphere, where the value clips 1-|y|^2 and the derivatives
    (NaN or inf there for some a) do not."""
    rng = np.random.default_rng(N)
    poly = PolyField(N, {tuple(int(v) for v in rng.integers(0, 3, size=N)):
                         float(rng.uniform(-1.0, 1.0)) for _ in range(6)})
    gauss = RuleTable(N, n_radial=8, n_angular={2: 8, 3: 4, 4: 1}[N]).rule(0.6).points
    sphere = rng.standard_normal((200, N))
    sphere /= np.sqrt(np.sum(sphere ** 2, axis=1))[:, None]
    sphere = np.vstack([sphere, np.eye(N), -np.eye(N)])
    if N < 4:
        sphere = np.vstack([sphere, sw.sphere_rule(N, 12).points])
    refs = (_weighted_poly_value, _weighted_poly_grad, _weighted_poly_hess)
    with np.errstate(all="ignore"):
        for a in (0.0, 0.5, 1.0, 2.0, 3.0):
            wp = WeightedPoly(N, a, poly)
            for pts in (gauss, sphere):
                want = [ref(wp, pts) for ref in refs]
                for degrees in ((0,), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)):
                    for g, got in zip(degrees, wp.jet(pts, degrees)):
                        assert np.array_equal(got, want[g], equal_nan=True), (a, degrees, g)
                for g, fn in enumerate((wp.value, wp.grad, wp.hess)):
                    assert np.array_equal(fn(pts), want[g], equal_nan=True), (a, g)


# ---------------------------------------------------------------------------
# the radial spline against scipy's CubicSpline, which stays a test-only oracle

@st.composite
def spline_data(draw):
    """A strictly increasing grid of 3..64 nodes, uneven, with steps from
    1e-5 to 50 (steps above 1 make dgtsv interchange rows), and 1..6 columns."""
    n = draw(st.integers(3, 64))
    m = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 5.0, 50.0]))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(steps)]) * scale
    vals = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    y = np.array(draw(st.lists(vals, min_size=n * m, max_size=n * m))).reshape(n, m)
    return x, y


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=200, deadline=None)
@given(spline_data())
@example((np.array([0.0, 2.0, 4.0]), np.array([[1.0, 0.0], [0.5, -1.0], [0.0, 2.0]])))
def test_radial_spline_is_bitwise_cubic_spline(data):
    """Coefficients, values and first derivatives equal CubicSpline's with
    bc_type=((1, 0), 'not-a-knot') bit for bit, at the nodes, between them
    and beyond both ends.  The example is the nr=3 grid with dr = 2, whose
    first elimination step interchanges rows 0 and 1."""
    x, y = data
    sp = RadialSpline(x, y.copy())
    span = x[-1] - x[0]
    r = np.concatenate([x, x[:-1] + 0.37 * np.diff(x), x[-1] - 0.5 * np.diff(x)[-1:],
                        [x[0] - 0.3 * span, x[-1] + 0.3 * span]])
    at = sp.locate(r)
    for j in range(y.shape[1]):
        cs = CubicSpline(x, y[:, j], bc_type=((1, 0.0), "not-a-knot"))
        coeffs = np.stack([sp.cubic[:, j], sp.quadratic[:, j], sp.dydx[:-1, j], sp.y[:-1, j]])
        assert bits(coeffs) == bits(cs.c)
        assert bits(sp.value(at, j)) == bits(cs(r))
        assert bits(sp.derivative(at, j)) == bits(cs.derivative()(r))


def test_radial_spline_rejects_non_finite_data():
    y = np.zeros((4, 2))
    y[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        RadialSpline(np.arange(4.0), y)


def test_cut_spline_is_bitwise_the_whole_grid_on_the_used_intervals():
    """A spline over the first need + CONE_MARGIN rows has the whole grid's
    coefficients on the need intervals a cone reads, bit for bit: for
    smooth data, and for data of 1e-300 on the rows the cut keeps and 1e300
    beyond them, where the cut's influence is largest against the values.
    There fewer rows than CONE_MARGIN are not enough."""
    rng = np.random.default_rng(11)
    nr, need = 4096, 300
    x = np.linspace(0.0, 1.5, nr)
    smooth = np.cos(3.0 * x)[:, None] * np.linspace(1.0, 2.0, 5)

    def adversarial(n):
        y = rng.uniform(-1.0, 1.0, (nr, 5)) * 1e300
        y[:n] = rng.uniform(-1.0, 1.0, (n, 5)) * 1e-300
        return y

    def same(y, n):
        full, cut = RadialSpline(x, y), RadialSpline(x[:n], y[:n])
        return all(np.array_equal(getattr(cut, name)[:need], getattr(full, name)[:need])
                   for name in ("y", "dydx", "quadratic", "cubic"))

    assert similarity.CONE_MARGIN == 1106
    with np.errstate(over="ignore"):   # the huge rows' cubic terms overflow
        assert same(smooth, need + similarity.CONE_MARGIN)
        assert same(adversarial(need + similarity.CONE_MARGIN), need + similarity.CONE_MARGIN)
        for margin in (600, 128):
            assert not same(adversarial(need + margin), need + margin), margin


def test_transform_splines_only_the_cone_rows(exp43, monkeypatch):
    """On a grid of 4096 rows whose balls reach about 300 (need) of them,
    the transform splines need + CONE_MARGIN rows and keeps the
    coefficients of need rows, and its node samples are those of splining
    the whole grid, bit for bit."""
    grid = sw.RadialGrid(r_max=1.5, nr=4096)
    rules = RuleTable(3, n_radial=12, n_angular=3)
    t = np.array([0.89, 0.9, 0.91])
    bump = np.exp(-grid.nodes ** 2)[:, None]
    state = PhysicalState(t, bump * (1.0 + 0.3 * t), bump * np.array([0.3, 0.2, 0.1]))
    built, spline = [], similarity.RadialSpline
    monkeypatch.setattr(similarity, "RadialSpline",
                        lambda x, y, keep=None: built.append(x.size) or spline(x, y, keep))
    cut = to_similarity(state, grid, exp43, 0.0, 1.0)
    need = int(np.searchsorted(grid.nodes, 1.0 - t[0], side="right")) + 2
    assert built == [need + similarity.CONE_MARGIN] and built[0] < grid.nr
    assert cut.spline.x.size == cut.spline.quadratic.shape[0] + 1 == need
    monkeypatch.setattr(similarity, "CONE_MARGIN", grid.nr)
    whole = to_similarity(state, grid, exp43, 0.0, 1.0)
    assert built[1] == grid.nr and whole.spline.x.size == need
    for beta in (0.0, 0.6, -0.4):
        a, b = cut.on(rules.rule(beta)), whole.on(rules.rule(beta))
        for name in a.ROWS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), (beta, name)


# ---------------------------------------------------------------------------
# the transform

def analytic_state(grid, t):
    """Manufactured radial data u = (1 + 0.3 t) exp(-r^2) (not a solution)."""
    r = grid.nodes
    return PhysicalState(t, (1.0 + 0.3 * t) * np.exp(-r ** 2),
                         0.3 * np.exp(-r ** 2))


def test_transform_of_exact_ode_branch_is_constant(exp43):
    grid = sw.RadialGrid(r_max=1.5, nr=512)
    rules = RuleTable(3, n_radial=32)
    for t in (0.0, 0.5, 0.9):
        u, ut = sw.ode_exact(exp43, 1.0, t)
        state = PhysicalState(t, np.full(grid.nr, u), np.full(grid.nr, ut))
        snap = to_similarity(state, grid, exp43, 0.0, 1.0)
        ns = snap.on(rules.plain)
        k = sw.kappa(exp43)
        assert np.max(np.abs(ns.w - k)) < 1e-12 * k
        assert np.max(np.abs(ns.ws)) < 1e-10
        assert np.max(np.abs(snap.fields(rules.plain.points)[2])) < 1e-10
        assert snap.s == pytest.approx(-math.log(1.0 - t))


def test_transform_of_zero_is_zero(exp43):
    grid = sw.RadialGrid(r_max=1.5, nr=128)
    rules = RuleTable(3, n_radial=16)
    state = PhysicalState(0.2, np.zeros(grid.nr), np.zeros(grid.nr))
    ns = to_similarity(state, grid, exp43, 0.0, 1.0).on(rules.plain)
    assert np.all(ns.w == 0) and np.all(ns.ws == 0)


def test_transform_guards(exp43):
    grid = sw.RadialGrid(r_max=0.5, nr=64)
    state = PhysicalState(0.0, np.zeros(64), np.zeros(64))
    with pytest.raises(ValueError, match="exits the grid"):
        to_similarity(state, grid, exp43, 0.0, 1.0)
    state = PhysicalState(1.5, np.zeros(64), np.zeros(64))
    with pytest.raises(ValueError, match="not before"):
        to_similarity(state, grid, exp43, 0.0, 1.0)


def test_transform_matches_symbolic_chain_rule(exp43):
    """w, ws, grad w against an independent sympy differentiation of the
    closed-form composite for manufactured (non-solution) data."""
    grid = sw.RadialGrid(r_max=1.5, nr=2048)
    rules = RuleTable(3, n_radial=24)
    T0 = 1.0
    ssym, rho = sympy.symbols("s rho", positive=True)
    p = 4.0
    tau = sympy.exp(-ssym)
    t_of_s = T0 - tau
    # w(y, s) = tau^(2/(p-1)) u(|y| tau, t(s)) with u = (1+0.3 t) exp(-r^2)
    w_sym = tau ** sympy.Rational(2, 3) * (1 + sympy.Rational(3, 10) * t_of_s) \
        * sympy.exp(-(rho * tau) ** 2)
    ws_sym = sympy.diff(w_sym, ssym)
    wr_sym = sympy.diff(w_sym, rho)
    for sval in (0.5, 1.5):
        t = T0 - math.exp(-sval)
        ns = to_similarity(analytic_state(grid, t), grid, exp43, 0.0, T0).on(rules.plain)
        rho_nodes = np.sqrt(ns.r2)
        for i in range(0, rho_nodes.size, 5):
            sub = {ssym: sval, rho: float(rho_nodes[i])}
            assert ns.w[i] == pytest.approx(float(w_sym.subs(sub)), rel=1e-9)
            assert ns.ws[i] == pytest.approx(float(ws_sym.subs(sub)), rel=1e-7,
                                             abs=1e-9)
            gr = float(np.sqrt(ns.gr2[i]))
            assert gr == pytest.approx(abs(float(wr_sym.subs(sub))), rel=1e-6,
                                       abs=1e-9)


def test_chain_rule_ws_matches_fd_oracle_on_solver_data():
    """The production ds w must agree with centered differences of w at
    O(ds^2) on a real trajectory before it is trusted."""
    e = sw.make_exponents(4.0, 3)
    grid = sw.RadialGrid(r_max=0.5, nr=512)
    cfg = sw.SolverConfig(e=e, grid=grid, family="gaussian", amplitude=5.0,
                          width=0.35, u_cap=1e3, store_ds=0.01)
    traj = solve(cfg)
    rules = RuleTable(3, n_radial=24)
    s0 = -math.log(traj.T_est) + 0.6
    errs = []
    for h in (0.02, 0.01):
        sm, s_, sp = s0 - h, s0, s0 + h
        ns = trajectory_to_w(traj, e, 0.0, traj.T_est, [sm, s_, sp]).on(rules.plain)
        fd = (ns.w[2] - ns.w[0]) / (2.0 * h)
        errs.append(float(np.max(np.abs(fd - ns.ws[1]))))
    order = observed_order(errs[0], errs[1])
    assert order > 1.5, (errs, order)
    assert errs[1] < 1e-3 * max(1.0, float(np.max(np.abs(ns.ws[1]))))


def test_trajectory_to_w_single_s_consistency(exp43, plateau_1024, radial_rules):
    traj = plateau_1024
    s = 3.0
    rule = radial_rules.plain
    row = trajectory_to_w(traj, exp43, 0.0, traj.T_est, [s])[0].on(rule)
    t = traj.T_est - math.exp(-s)
    direct = to_similarity(traj.sample_state(t), traj.grid, exp43, 0.0,
                           traj.T_est).on(rule)
    assert np.allclose(row.w, direct.w, rtol=0, atol=1e-14)
    assert np.allclose(row.ws, direct.ws, rtol=0, atol=1e-14)


def test_series_rows_are_the_states_transformed_alone(exp43, plateau_1024, monkeypatch):
    """A series samples, integrates and assembles every lemma right side
    with the arithmetic of its snapshots taken one at a time: every node
    sample on five rules and the sphere, every registered functional and
    every lemma right side equal, row by row and bit for bit, those of each
    state transformed alone; so do those of a row selection made before
    the rules were sampled."""
    from sswave import similarity, verify

    monkeypatch.setattr(similarity, "ROW_BLOCK", 16)   # three blocks
    traj, T0 = plateau_1024, plateau_1024.T_est
    rules = RuleTable(3, n_radial=12, n_angular=3)
    s_grid = np.arange(2.0, 4.0, 0.05)
    series = trajectory_to_w(traj, exp43, 0.0, T0, s_grid)
    picked = series[[3, 17, 38]]
    singles = [to_similarity(traj.sample_state(T0 - math.exp(-s)), traj.grid, exp43,
                             0.0, T0) for s in s_grid]
    for view, rows in ((series, range(s_grid.size)), (picked, (3, 17, 38))):
        assert np.array_equal(view.s, [singles[j].s for j in rows])
        samples = [(view.on(rules.rule(beta)), [sn.on(rules.rule(beta)) for sn in singles])
                   for beta in (0.0, 0.6, -0.4, 0.1, 1.1)]
        sphere = [(b, [sn.boundary(rules.sphere())[i] for sn in singles])
                  for i, b in enumerate(view.boundary(rules.sphere()))]
        for ns, alone in samples:
            assert all(np.array_equal(ns.r2, one.r2) for one in alone)
            for name in ns.ROWS:
                field = getattr(ns, name)
                assert all(np.array_equal(field[i], getattr(alone[j], name))
                           for i, j in enumerate(rows)), name
        for trace, alone in sphere:
            assert all(np.array_equal(trace[i], alone[j]) for i, j in enumerate(rows))
        for name, fn in fu.SNAPSHOT_FUNCTIONALS.items():
            vals = fn(view, rules, exp43, 0.6)
            assert all(np.array_equal(vals[i], fn(singles[j], rules, exp43, 0.6))
                       for i, j in enumerate(rows)), name
        for name in verify.LEMMA_NAMES:
            vals = verify.lemma_rhs(name, view, rules, exp43, 0.6)
            assert all(np.array_equal(vals[i], verify.lemma_rhs(name, singles[j], rules,
                                                                exp43, 0.6))
                       for i, j in enumerate(rows)), name
    # the node samples are the np.sum forms of the fields, bit for bit
    planar = StaticSnapshot(verify.random_test_field(2, np.random.default_rng(5)))
    planar_rule = RuleTable(2, n_radial=12, n_angular=16).plain
    for sn, rule in [(sn, rules.plain) for sn in singles[:3]] + [(planar, planar_rule)]:
        pts, ns = rule.points, sn.on(rule)
        grad = sn.fields(pts)[2]
        assert np.array_equal(ns.ydg, np.sum(pts * grad, axis=1))
        for name, g in zip(("g2", "gr2", "gth2"), (grad,) + sw.grad_decompose(pts, grad)):
            assert np.array_equal(getattr(ns, name), np.sum(g ** 2, axis=1)), name


def test_row_selection_starts_unsampled(exp43, plateau_1024):
    """Row selection keeps every guarantee but the samples: an index, slice,
    mask or list selection of a sampled transform series, and of a sampled
    StaticSnapshot series, holds no node sample, and on(rule) on it is the
    same rows of the whole series' sample, bit for bit."""
    rule = RuleTable(3, n_radial=12, n_angular=3).rule(0.6)
    transform = trajectory_to_w(plateau_1024, exp43, 0.0, plateau_1024.T_est,
                                np.arange(2.0, 3.0, 0.05))
    static = StaticSnapshot(verify.random_test_field(3, np.random.default_rng(3)),
                            s=np.arange(1.0, 2.0, 0.05))
    for series in (transform, static):
        whole = series.on(rule)
        m = series.s.size
        for idx in (1, slice(2, m, 3), series.s > series.s[m // 2], [0, -1]):
            view = series[idx]
            assert view._samples == {}
            ns = view.on(rule)
            assert ns.rule is rule
            for name in ns.ROWS:
                assert np.array_equal(getattr(ns, name), getattr(whole, name)[idx]), name
        assert list(series._samples) == [id(rule)] and series.on(rule) is whole


def test_trajectory_to_w_reports_uncovered_s(exp43, plateau_1024):
    with pytest.raises(ValueError, match=r"s=-5\.0 needs t=.* outside the stored range"):
        trajectory_to_w(plateau_1024, exp43, 0.0, plateau_1024.T_est, [-5.0])


class Unread:
    """A frame archive that fails the test on any read."""

    def __getattr__(self, name):
        raise AssertionError(f"a frame was read: .{name}")

    def __getitem__(self, idx):
        raise AssertionError(f"a frame was read: [{idx}]")

    def __array__(self, *args, **kwargs):
        raise AssertionError("a frame was read: np.asarray")


@pytest.mark.parametrize("x0,T0,s,match", [
    (0.0, None, [2.0, -5.0], r"s=-5\.0 needs t=.* outside the stored range"),
    (0.0, "last", [2.0, 745.0], r"state time t=.* is not before T0"),
    (0.7, None, [2.0, 0.1], r"ball of radius 0\.90\d* at \|x0\|=0\.7 exits the grid"),
], ids=["outside-frames", "at-T0", "off-grid"])
def test_window_rejects_before_reading_a_frame(exp43, plateau_1024, x0, T0, s, match):
    """similarity.window checks every time of the window against the
    frames, T0 and the grid from frames_t alone: a time outside the frames,
    one at T0 (T0 - e^(-745) rounds to T0), and a ball that leaves the
    grid are each a ValueError with no frame read, from window and from
    trajectory_to_w.  The series of a window that passes reads no frame
    either, until its rows are selected."""
    traj = plateau_1024
    T0 = traj.frames_t[-1] if T0 == "last" else traj.T_est
    blind = dataclasses.replace(traj, frames_u=Unread(), frames_ut=Unread())
    for check in (similarity.window, trajectory_to_w):
        with pytest.raises(ValueError, match=match):
            check(blind, exp43, x0, T0, s)
    # the window's first time passes; only the transform of rows reads the frames
    x0v, tau, t = similarity.window(blind, exp43, 0.0, traj.T_est, s[:1])
    assert x0v.tolist() == [0.0] * exp43.N
    assert np.array_equal(tau, traj.T_est - t) and np.array_equal(t, [traj.T_est - math.exp(-2.0)])
    series = trajectory_to_w(blind, exp43, 0.0, traj.T_est, s[:1])
    assert series.t.tobytes() == t.tobytes()
    with pytest.raises(AssertionError, match="a frame was read"):
        series[0]


def profile_equation_residual(snaps, rule, e, h):
    """Second-difference-in-s discretization of the profile equation at the
    middle of three snapshots, using radial splines of their samples on rule."""
    from scipy.interpolate import CubicSpline
    three = snaps.on(rule)
    ns = snaps[1].on(rule)
    rho = np.sqrt(ns.r2)
    order = np.argsort(rho)
    rho_s = rho[order]
    wss = (three.w[0] + three.w[2] - 2.0 * ns.w) / h ** 2
    w_r = np.where(rho > 0, ns.ydg / np.maximum(rho, 1e-300), 0.0)
    spl_wr = CubicSpline(rho_s, w_r[order])
    w_rr = spl_wr.derivative()(rho)
    ws_r = CubicSpline(rho_s, ns.ws[order]).derivative()(rho)
    p, N, al = e.p, e.N, e.alpha
    g1 = (p + 1.0) / (p - 1.0) ** 2
    lap = w_rr + (N - 1.0) / np.maximum(rho, 1e-300) * w_r
    rhs = (lap - rho ** 2 * w_rr - (N + 1.0 + 2.0 * al) * rho * w_r
           - 2.0 * g1 * ns.w + np.abs(ns.w) ** (p - 1.0) * ns.w
           - (N + 2.0 * al) * ns.ws - 2.0 * rho * ws_r)
    inner = (rho > 0.15) & (rho < 0.85)
    return float(np.max(np.abs(wss - rhs)[inner]))


def test_profile_equation_discrete_residual_converges():
    e = sw.make_exponents(4.0, 3)
    res = []
    for nr, h in [(512, 0.04), (1024, 0.02)]:
        grid = sw.RadialGrid(r_max=0.5, nr=nr)
        cfg = sw.SolverConfig(e=e, grid=grid, family="gaussian", amplitude=5.0,
                              width=0.35, u_cap=1e3, store_ds=h / 2)
        traj = solve(cfg)
        rules = RuleTable(3, n_radial=40)
        s0 = -math.log(traj.T_est) + 0.7
        snaps = trajectory_to_w(traj, e, 0.0, traj.T_est,
                                [s0 - h, s0, s0 + h])
        res.append(profile_equation_residual(snaps, rules.plain, e, h))
    assert res[1] < res[0] / 2.5, res


@pytest.mark.parametrize("p,N", [(4.0, 3), (7.0, 2)])
def test_boosted_profile_solves_the_profile_equation(p, N):
    """The Lorentz-boosted profile is an exact stationary, non-radial
    solution: eq_rhs, the d2s w the profile equation gives it, vanishes at
    4,000 interior points to 1e-13 of max |w| at |d| = 0.5 (1.8e-15 and
    1.7e-15 measured)."""
    e = sw.make_exponents(p, N)
    rng = np.random.default_rng(N)
    x = rng.normal(size=(4000, N))
    pts = x / np.linalg.norm(x, axis=1)[:, None] * (
        0.999 * rng.uniform(size=(4000, 1)) ** (1.0 / N))
    snap = boosted_snapshot(p, np.full(N, 0.5 / math.sqrt(N)))
    w_max = np.max(np.abs(snap.w_part.value(pts)))
    assert np.max(np.abs(snap.eq_rhs(pts, e))) <= 1e-13 * w_max


def test_uniform_center_family_h_membership(exp43, plateau_1024):
    """Snapshots centered at x near x0 with T*(x) = T0 - delta0 |x - x0|
    stay within a factor of the center snapshot's energy-space norm."""
    traj = plateau_1024
    T0 = traj.T_est
    delta0 = 0.5
    rules = RuleTable(3, n_radial=24, n_angular=10)
    s = 2.5
    center = trajectory_to_w(traj, exp43, 0.0, T0, [s])[0]
    h_center = fu.h_norm(center, rules)
    tau = math.exp(-s)
    for frac in (0.25, 0.9):
        x = np.array([frac * tau / delta0, 0.0, 0.0])
        T_star = T0 - delta0 * float(np.linalg.norm(x))
        t = T_star - tau
        snap = to_similarity(traj.sample_state(t), traj.grid, exp43, x,
                             T_star)
        hx = fu.h_norm(snap, rules)
        assert np.isfinite(hx)
        assert hx <= 4.0 * h_center + 1e-12
