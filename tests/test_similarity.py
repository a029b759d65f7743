import math

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline

import sswave as sw
from sswave.core import PhysicalState
from sswave.quadrature import RuleTable
from sswave.similarity import (PolyField, RadialSpline, TestField, harmonic_poly,
                               make_test_field, to_similarity, trajectory_to_w)
from sswave import functionals as fu


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
    snap = make_test_field(TestField(N=3, a=0.0, poly=PolyField(3, {(0, 0, 0): 1.0})),
                           rules.rule(0.6))
    assert np.allclose(snap.w, 1.0)
    assert np.allclose(snap.grad, 0.0)
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
    rules = RuleTable(N, n_radial=16, n_angular=16 if N == 2 else 4)
    snap = make_test_field(tf, rules.rule(0.6))
    ys, w, ws = sympy_field(tf)
    q = sympy_poly(ys, tf.poly)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-0.5, 0.5, size=(20, N))
    wv, wsv, gv = snap.fields(pts)
    eps = 0.6
    dv = snap.pohozaev_div_over_rho(pts, eps)
    # (numeric value, gradient, Hessian or None) against the symbolic form:
    # the field, its ds w part, and the polynomial factor q on its own
    cases = [((wv, gv, snap.hess(pts)), w),
             ((wsv, snap.ws_grad(pts), None), ws),
             ((tf.poly(pts), tf.poly.grad(pts), tf.poly.hess(pts)), q)]
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
    snap = make_test_field(tf, rules.rule(0.6))
    assert float(np.max(np.abs(snap.grad_theta))) > 0.1
    # harmonic factor really is r^m cos(m theta)
    hp = harmonic_poly(3)
    th = 0.7
    r = 0.5
    val = hp(np.array([[r * math.cos(th), r * math.sin(th)]]))[0]
    assert val == pytest.approx(r ** 3 * math.cos(3 * th), rel=1e-12)


def test_snapshot_decomposition_identities():
    # (wr1)/(wr2) hold nodewise by construction; re-check independently
    rules = RuleTable(2, n_radial=16, n_angular=32)
    rng = np.random.default_rng(0)
    from sswave.verify import random_test_field
    snap = make_test_field(random_test_field(2, rng), rules.rule(0.6))
    ns = snap.on(rules.rule(0.6))
    g2 = ns.g2
    scale = np.maximum(g2, 1e-12)
    assert np.all(np.abs(g2 - ns.gr2 - ns.gth2) <= 1e-12 * scale)
    assert np.all(np.abs(ns.ydg ** 2 - ns.r2 * ns.gr2) <= 1e-12 * np.maximum(scale, 1.0))
    assert np.all(np.abs(ns.r2 * g2 - ns.ydg ** 2 - ns.r2 * ns.gth2)
                  <= 1e-12 * np.maximum(scale, 1.0))


def test_boundary_vanishing_for_weighted_fields():
    # a >= 1 kills w and the (1-|y|^2)-weighted gradient at the boundary
    rules = RuleTable(2, n_radial=64, n_angular=8)
    tf = TestField(N=2, a=1.0, poly=PolyField(2, {(0, 0): 1.0, (2, 0): -0.5}))
    snap = make_test_field(tf, rules.rule(0.6))
    pts = rules.rule(-0.9).points          # nodes hugging the boundary
    r2 = np.sum(pts ** 2, axis=1)
    near = r2 > 0.995
    assert np.any(near)
    w, _, grad = snap.fields(pts)
    om = 1.0 - r2[near]
    assert np.all(np.abs(w[near]) < 10.0 * om)
    assert np.all((1.0 - r2[near]) * np.sum(grad[near] ** 2, axis=1) < 50.0 * om)


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
        snap = to_similarity(state, grid, exp43, 0.0, 1.0, rules.plain)
        k = sw.kappa(exp43)
        assert np.max(np.abs(snap.w - k)) < 1e-12 * k
        assert np.max(np.abs(snap.ws)) < 1e-10
        assert np.max(np.abs(snap.grad)) < 1e-10
        assert snap.s == pytest.approx(-math.log(1.0 - t))


def test_transform_of_zero_is_zero(exp43):
    grid = sw.RadialGrid(r_max=1.5, nr=128)
    rules = RuleTable(3, n_radial=16)
    state = PhysicalState(0.2, np.zeros(grid.nr), np.zeros(grid.nr))
    snap = to_similarity(state, grid, exp43, 0.0, 1.0, rules.plain)
    assert np.all(snap.w == 0) and np.all(snap.ws == 0)


def test_transform_guards(exp43):
    grid = sw.RadialGrid(r_max=0.5, nr=64)
    rules = RuleTable(3, n_radial=8)
    state = PhysicalState(0.0, np.zeros(64), np.zeros(64))
    with pytest.raises(ValueError, match="exits the grid"):
        to_similarity(state, grid, exp43, 0.0, 1.0, rules.plain)
    state = PhysicalState(1.5, np.zeros(64), np.zeros(64))
    with pytest.raises(ValueError, match="not before"):
        to_similarity(state, grid, exp43, 0.0, 1.0, rules.plain)


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
        snap = to_similarity(analytic_state(grid, t), grid, exp43, 0.0, T0,
                             rules.plain)
        ns = snap.base
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
    traj = sw.run_until_blowup(cfg)
    rules = RuleTable(3, n_radial=24)
    s0 = -math.log(traj.T_est) + 0.6
    errs = []
    for h in (0.02, 0.01):
        sm, s_, sp = s0 - h, s0, s0 + h
        snaps = trajectory_to_w(traj, e, 0.0, traj.T_est, [sm, s_, sp],
                                rules.plain)
        fd = (snaps[2].w - snaps[0].w) / (2.0 * h)
        errs.append(float(np.max(np.abs(fd - snaps[1].ws))))
    order = math.log2(errs[0] / errs[1])
    assert order > 1.5, (errs, order)
    assert errs[1] < 1e-3 * max(1.0, float(np.max(np.abs(snaps[1].ws))))


def test_trajectory_to_w_single_s_consistency(exp43, plateau_1024, radial_rules):
    traj = plateau_1024
    s = 3.0
    snaps = trajectory_to_w(traj, exp43, 0.0, traj.T_est, [s], radial_rules.plain)
    t = traj.T_est - math.exp(-s)
    direct = to_similarity(traj.sample_state(t), traj.grid, exp43, 0.0,
                           traj.T_est, radial_rules.plain)
    assert np.allclose(snaps[0].w, direct.w, rtol=0, atol=1e-14)
    assert np.allclose(snaps[0].ws, direct.ws, rtol=0, atol=1e-14)


def test_trajectory_to_w_reports_uncovered_s(exp43, plateau_1024, radial_rules):
    with pytest.raises(ValueError, match="outside coverage"):
        trajectory_to_w(plateau_1024, exp43, 0.0, plateau_1024.T_est,
                        [-5.0], radial_rules.plain)


def profile_equation_residual(snaps, e, h):
    """Second-difference-in-s discretization of the profile equation at the
    middle snapshot, using radial splines of the sampled profiles."""
    from scipy.interpolate import CubicSpline
    sm, s0, sp = snaps
    ns = s0.base
    rho = np.sqrt(ns.r2)
    order = np.argsort(rho)
    rho_s = rho[order]
    wss = (sm.w + sp.w - 2.0 * s0.w) / h ** 2
    w_r = np.where(rho > 0, ns.ydg / np.maximum(rho, 1e-300), 0.0)
    spl_wr = CubicSpline(rho_s, w_r[order])
    w_rr = spl_wr.derivative()(rho)
    ws_r = CubicSpline(rho_s, s0.ws[order]).derivative()(rho)
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
        traj = sw.run_until_blowup(cfg)
        rules = RuleTable(3, n_radial=40)
        s0 = -math.log(traj.T_est) + 0.7
        snaps = trajectory_to_w(traj, e, 0.0, traj.T_est,
                                [s0 - h, s0, s0 + h], rules.plain)
        res.append(profile_equation_residual(snaps, e, h))
    assert res[1] < res[0] / 2.5, res


def test_uniform_center_family_h_membership(exp43, plateau_1024):
    """Snapshots centered at x near x0 with T*(x) = T0 - delta0 |x - x0|
    stay within a factor of the center snapshot's energy-space norm."""
    traj = plateau_1024
    T0 = traj.T_est
    delta0 = 0.5
    rules = RuleTable(3, n_radial=24, n_angular=10)
    s = 2.5
    center = trajectory_to_w(traj, exp43, 0.0, T0, [s], rules.plain)[0]
    h_center = fu.h_norm(center, rules)
    tau = math.exp(-s)
    for frac in (0.25, 0.9):
        x = np.array([frac * tau / delta0, 0.0, 0.0])
        T_star = T0 - delta0 * float(np.linalg.norm(x))
        t = T_star - tau
        snap = to_similarity(traj.sample_state(t), traj.grid, exp43, x,
                             T_star, rules.plain)
        hx = fu.h_norm(snap, rules)
        assert np.isfinite(hx)
        assert hx <= 4.0 * h_center + 1e-12
