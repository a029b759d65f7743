import math

import numpy as np
import pytest
from scipy.special import gammaincc, gamma as gamma_fn

import sswave as sw
from sswave.core import FunctionalSeries
from sswave.quadrature import RuleTable, ball_weight_volume, ball_volume
from sswave.similarity import PolyField, StaticSnapshot, TestField, constant_field
from sswave import functionals as fu
from sswave.ode import power_fit
from sswave.solver import Trajectory

from conftest import boosted_snapshot


def const_snap(e, value, s=0.0):
    return StaticSnapshot(constant_field(e.N, value), s=s)


def exp_tail_closed_form(gamma_exp, alpha, s):
    """int_s^inf tau^gamma e^(2 alpha tau) dtau via the incomplete Gamma."""
    a = gamma_exp + 1.0
    x = -2.0 * alpha * s
    return (-2.0 * alpha) ** (-a) * gammaincc(a, x) * gamma_fn(a)


CASES = [(4.0, 3, 1), (2.5, 4, 1), (6.0, 2, 1)]


@pytest.mark.parametrize("p,N,n_ang", CASES)
def test_constant_profile_closed_forms(p, N, n_ang):
    e = sw.make_exponents(p, N)
    rules = RuleTable(N, n_radial=48, n_angular=n_ang)
    k = sw.kappa(e)
    snap = const_snap(e, k, s=1.3)
    al = e.alpha
    eps = 0.6
    V = ball_weight_volume(N, eps)
    B = ball_volume(N)

    assert fu.E0(snap, rules, e) == pytest.approx(k ** 2 / (p - 1.0) * B, rel=1e-10)
    E, F0v = fu.E_and_F0(snap, rules, e)
    E_exact = k ** 2 * B * (1.0 / (p - 1.0) - al * N / 2.0)
    assert E == pytest.approx(E_exact, rel=1e-10)
    assert F0v == pytest.approx(math.exp(2.0 * al * 1.3) * E_exact, rel=1e-10)
    assert fu.E_eps(snap, rules, e, eps) == pytest.approx(
        k ** 2 / (p - 1.0) * V, rel=1e-10)
    assert fu.J_eps(snap, rules, e, eps) == pytest.approx(
        -(N / 2.0 + al) * k ** 2 * V, rel=1e-10)
    assert fu.G_eps(snap, rules, e, eps) == pytest.approx(
        0.0, abs=1e-10 * k ** (p + 1.0) * V)
    assert fu.N_eps(snap, rules, e, eps) == 0.0
    Vh = ball_weight_volume(N, eps - 0.5)
    assert fu.I_eps(snap, rules, e, eps) == pytest.approx(
        -N / 2.0 * k ** 2 * Vh, rel=1e-10)
    assert fu.L_eps(snap, rules, e, eps) == pytest.approx(
        (0.5 + eps) * fu.I_eps(snap, rules, e, eps), rel=1e-12)
    assert fu.singular_Lp1(snap, rules, e, eps) == pytest.approx(
        k ** (p + 1.0) * Vh, rel=1e-10)
    # M assembled from the constant-field value of each piece
    c = 2.0 / (p - 1.0) + 0.4
    Vm1 = ball_weight_volume(N, eps - 1.0)
    M_exact = k ** 2 * (V / (p - 1.0) + c * (N / 2.0 + al) * V
                        + 1.2 * c * (Vm1 - V) + c * al * V)
    assert fu.M_func(snap, rules, e) == pytest.approx(M_exact, rel=1e-10)


@pytest.mark.parametrize("p,N", [(4.0, 3), (2.5, 4), (6.0, 2)])
def test_constant_dissipation_closed_form(p, N):
    """d/ds F0 via finite differences matches the boundary + L^(p+1) form."""
    e = sw.make_exponents(p, N)
    rules = RuleTable(N, n_radial=48, n_angular=1)
    k = sw.kappa(e)
    al = e.alpha
    B = ball_volume(N)
    s0, h = 1.0, 1e-4
    f0 = {ds: fu.F0(const_snap(e, k, s=s0 + ds), rules, e)
          for ds in (-h, 0.0, h)}
    fd = (f0[h] - f0[-h]) / (2.0 * h)
    expected = (-math.exp(2.0 * al * s0) * al ** 2 * k ** 2 * N * B
                + al * (p - 1.0) / (p + 1.0) * math.exp(2.0 * al * s0)
                * k ** (p + 1.0) * B)
    assert fd == pytest.approx(expected, rel=1e-8)
    # and the underlying algebraic identity 2 alpha E = RHS holds exactly
    E_exact = k ** 2 * B * (1.0 / (p - 1.0) - al * N / 2.0)
    assert 2.0 * al * E_exact == pytest.approx(
        -al ** 2 * k ** 2 * N * B + al * (p - 1.0) / (p + 1.0) * k ** (p + 1.0) * B,
        rel=1e-12)


def test_zero_profile_gives_zero_everywhere():
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=16)
    snap = const_snap(e, 0.0)
    for val in (fu.E0(snap, rules, e), fu.F0(snap, rules, e),
                fu.E_eps(snap, rules, e, 0.6), fu.J_eps(snap, rules, e, 0.6),
                fu.G_eps(snap, rules, e, 0.6), fu.N_eps(snap, rules, e, 0.6),
                fu.I_eps(snap, rules, e, 0.6), fu.L_eps(snap, rules, e, 0.6),
                fu.M_func(snap, rules, e), fu.singular_Lp1(snap, rules, e, 0.6)):
        assert val == 0.0


def test_e0_linear_field_matches_symbolic_oracle():
    # w = (1-|y|^2), ws = 0, N = 2: E0 by sympy integration in polar coords
    import sympy
    e = sw.make_exponents(6.0, 2)
    rules = RuleTable(2, n_radial=48, n_angular=32)
    snap = StaticSnapshot(TestField(N=2, a=1.0, poly=PolyField(2, {(0, 0): 1.0})))
    r, th = sympy.symbols("r theta", positive=True)
    w = 1 - r ** 2
    wr = sympy.diff(w, r)
    p = 7  # p+1 with p=6
    g1 = sympy.Rational(7, 25)
    integrand = (sympy.Rational(1, 2) * wr ** 2 * (1 - r ** 2)
                 + g1 * w ** 2 - w ** p / p) * r
    exact = float(2 * sympy.pi * sympy.integrate(integrand, (r, 0, 1)))
    assert fu.E0(snap, rules, e) == pytest.approx(exact, rel=1e-10)


def _boost_deviation(p, N, n_ang, d1):
    """|E_eps - E_eps at d = 0| / |E_eps at d = 0| at eps = alpha on the
    48-node radial rule, for the boost d = (d1, 0, ...)."""
    e = sw.make_exponents(p, N)
    rules = RuleTable(N, n_radial=48, n_angular=n_ang)
    d = np.zeros(N)
    ref = fu.E_eps(boosted_snapshot(p, d), rules, e, e.alpha)
    d[0] = d1
    return abs(fu.E_eps(boosted_snapshot(p, d), rules, e, e.alpha) - ref) / abs(ref)


@pytest.mark.parametrize("p,N,n_ang", [(4.0, 3, 8), (4.0, 3, 16), (7.0, 2, 16)])
def test_boosted_energy_at_eps_alpha_does_not_depend_on_the_boost(p, N, n_ang):
    """E_eps at the Antonini-Merle weight eps = alpha takes one value on
    every boosted stationary profile: |d| = 0.2 reads d = 0's value to
    1e-13 (4.3e-15 at most measured)."""
    assert _boost_deviation(p, N, n_ang, 0.2) <= 1e-13


def test_boosted_energy_converges_in_the_angular_rule():
    """At |d| = 0.5 on N = 3 the angular rule resolves the boost
    geometrically: the deviation from d = 0 falls by more than 1000x at
    each doubling of n_angular (2.0e-4, 1.5e-8, 2.9e-14 measured)."""
    dev = [_boost_deviation(4.0, 3, n_ang, 0.5) for n_ang in (4, 8, 16)]
    assert dev[1] < 1e-3 * dev[0] and dev[2] < 1e-3 * dev[1], dev


def test_scaling_homogeneity():
    """Scaling w by lam scales E0's quadratic part by lam^2 and the
    |w|^(p+1) part by lam^(p+1)."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=32)
    rng = np.random.default_rng(4)
    from sswave.verify import random_test_field
    tf = random_test_field(3, rng, with_ws=True)
    vals = {}
    for lam in (1.0, 2.0):
        scaled = TestField(N=3, a=tf.a,
                           poly=PolyField(3, {k: lam * c for k, c in tf.poly.coeffs.items()}),
                           ws_a=tf.ws_a,
                           ws_poly=PolyField(3, {k: lam * c for k, c in tf.ws_poly.coeffs.items()}))
        snap = StaticSnapshot(scaled)
        ns = snap.on(rules.plain)
        quad = float(np.sum(rules.plain.weights * (
            0.5 * ns.ws ** 2 + 0.5 * (ns.g2 - ns.ydg ** 2)
            + (e.p + 1.0) / (e.p - 1.0) ** 2 * ns.w ** 2)))
        pot = float(np.sum(rules.plain.weights * np.abs(ns.w) ** (e.p + 1.0)))
        vals[lam] = (quad, pot)
    assert vals[2.0][0] == pytest.approx(4.0 * vals[1.0][0], rel=1e-12)
    assert vals[2.0][1] == pytest.approx(2.0 ** 5 * vals[1.0][1], rel=1e-12)


def test_composition_L_from_N_and_I():
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=32)
    rng = np.random.default_rng(9)
    from sswave.verify import random_test_field
    snap = StaticSnapshot(random_test_field(3, rng, with_ws=True))
    eps = 0.6
    lhs = fu.L_eps(snap, rules, e, eps)
    rhs = fu.N_eps(snap, rules, e, 0.5 + eps) + (0.5 + eps) * fu.I_eps(snap, rules, e, eps)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_f_ladder_constant_solution_oracle():
    """F1 on the constant solution against the semi-analytic tail oracle."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=32)
    k = sw.kappa(e)
    al = e.alpha
    s = np.arange(2.0, 14.0 + 1e-9, 0.01)
    snaps = const_snap(e, k, s=s)
    f0 = fu.f0_series(snaps, rules, e)
    E_exact = k ** 2 * ball_volume(3) * (1.0 / (e.p - 1.0) - al * 3 / 2.0)
    assert np.allclose(f0.values, np.exp(2 * al * s) * E_exact, rtol=1e-10)
    f1 = fu.f_ladder(f0, 1, e)
    oracle = (s ** (1 / 18) * np.exp(2 * al * s) * E_exact
              + (E_exact / 18.0) * np.array([exp_tail_closed_form(-17.0 / 18.0, al, si)
                                             for si in s]))
    assert np.max(np.abs(f1.values - oracle) / np.abs(oracle)) < 1e-6
    assert np.all(f1.tail_bound >= 0)
    # U1 tail oracle on the constant profile
    uint = FunctionalSeries("U_integrand", s, fu.u_integrand(snaps, rules, e))
    u1 = fu.u_series(uint, 1, e)
    u_const = (k ** (e.p + 1.0) * ball_weight_volume(3, -0.4)
               + k ** 2 * ball_weight_volume(3, 0.6))
    u_oracle = u_const * np.array([exp_tail_closed_form(-17.0 / 18.0, al, si)
                                   for si in s])
    # the U kernel carries e^(2 alpha tau) itself, so the composite trapezoid
    # error is larger than F1's; 3e-5 is the Delta s = 0.01 level
    assert np.max(np.abs(u1.values - u_oracle) / u_oracle) < 3e-5


def test_tail_trapezoid_is_the_right_to_left_loop():
    """The cumulative tail equals the loop accumulated from 0.0 at s_max,
    bit for bit and with the loop's +0.0 where it sums zeros."""
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 3, 9, 200):
        s = np.sort(rng.uniform(0.0, 10.0, n))
        g = rng.standard_normal(n) * rng.choice([1.0, 0.0, -0.0], n)
        loop = np.zeros_like(s)
        for i in range(n - 2, -1, -1):
            loop[i] = loop[i + 1] + 0.5 * (g[i] + g[i + 1]) * (s[i + 1] - s[i])
        got = fu.tail_trapezoid(s, g)
        assert np.array_equal(got, loop) and np.array_equal(np.signbit(got), np.signbit(loop))
    assert not np.any(np.signbit(fu.tail_trapezoid(np.arange(4.0), np.full(4, -0.0))))


def test_f_ladder_zero_series():
    e = sw.make_exponents(4.0, 3)
    s = np.arange(2.0, 14.0, 0.05)
    f0 = FunctionalSeries("F0", s, np.zeros_like(s))
    f1 = fu.f_ladder(f0, 1, e)
    assert np.all(f1.values == 0.0)


def test_f_ladder_short_series_records_its_tail():
    """A series spanning 3 in s, far short of the e^(2 alpha s) decay
    length, still gets F1: its tail bound is the estimate beyond s_max,
    (1/18) |F0(s_max)| int_smax^inf tau^(-17/18) e^(2 alpha (tau - smax))."""
    e = sw.make_exponents(4.0, 3)
    s = np.arange(2.0, 5.0, 0.05)
    f0 = FunctionalSeries("F0", s, np.exp(2 * e.alpha * s))
    f1 = fu.f_ladder(f0, 1, e)
    tail = (1.0 / 18.0) * (abs(f0.values[-1])
                           * fu.exp_tail_factor(-17.0 / 18.0, e.alpha, s[-1]))
    assert tail > 0.0 and np.array_equal(f1.tail_bound, np.full_like(s, tail))
    assert np.all(np.isfinite(f1.values))


def _cli_tail_integrands(monkeypatch, p, N, s_max):
    """The integrands of the tails the CLI computes (F1, F2 and U1) on a
    series ending at s_max, as _integral_to_inf receives them."""
    seen = []
    real = fu._integral_to_inf
    monkeypatch.setattr(fu, "_integral_to_inf", lambda f: seen.append(f) or real(f))
    e = sw.make_exponents(p, N)
    s = np.linspace(s_max - 0.5, s_max, 6)
    ones = FunctionalSeries("F0", s, np.ones_like(s))
    for k in (1, 2):
        fu.f_ladder(ones, k, e)
    fu.u_series(ones, 1, e)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("N,p_grid", [(3, (3.05, 3.5, 4.0, 4.5, 4.95)),
                                      (2, (5.05, 6.0, 7.0, 9.0, 12.0))])
def test_qagie_binding_is_quad_bit_for_bit(monkeypatch, N, p_grid):
    """The loaded qagie returns quad(f, 0, inf)'s value exactly, on every
    tail the CLI computes, over p in (p_c, p_S) and the s_max both
    pipelines reach (a lemma window's ~1 to a full run's ~31)."""
    from scipy.integrate import quad

    for p in p_grid:
        for s_max in (0.6, 1.0, 2.0, 5.0, 10.0, 20.0, 27.0, 31.0):
            tails = _cli_tail_integrands(monkeypatch, p, N, s_max)
            assert len(tails) == 3
            for f in tails:
                assert fu._integral_to_inf(f) == quad(f, 0.0, np.inf)[0], (p, s_max)


def test_qagie_binding_warns_as_quad():
    """A divergent integral stops at quad's 50 subdivisions (ier 1): the same
    value, and quad's own IntegrationWarning with its message."""
    from scipy.integrate import IntegrationWarning, quad

    def f(x):
        return 1.0 / (1.0 + x)

    with pytest.warns(IntegrationWarning) as want:
        value = quad(f, 0.0, np.inf)[0]
    with pytest.warns(IntegrationWarning) as got:
        assert fu._integral_to_inf(f) == value
    assert [(w.category, str(w.message)) for w in got] == \
        [(w.category, str(w.message)) for w in want]


def test_m_bound_inequality_reported():
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=32)
    from sswave.verify import calibrate_m_bound, random_test_field
    rng = np.random.default_rng(12)
    snaps = [StaticSnapshot(random_test_field(3, rng, with_ws=True))
             for _ in range(12)]
    C3 = max(calibrate_m_bound(sn, rules, e) for sn in snaps)
    assert np.isfinite(C3) and C3 > 0
    for sn in snaps:
        assert abs(fu.M_func(sn, rules, e)) <= C3 * fu.m_bound_denominator(sn, rules, e) + 1e-12


def zero_trajectory(e, T_est=1.0):
    grid = sw.RadialGrid(r_max=1.5, nr=64)
    ft = np.linspace(0.0, 0.99, 40)
    z = np.zeros((40, 64))
    return Trajectory(e=e, grid=grid, frames_t=ft, frames_u=z.copy(),
                      frames_ut=z.copy(), center_t=ft, center_u=np.zeros(40),
                      max_u=np.zeros(40), status="blowup", T_est=T_est)


def test_theorem_quantities_zero_field():
    e = sw.make_exponents(4.0, 3)
    rep = fu.theorem_quantities(zero_trajectory(e), e, 1.0, q=1.0)
    for ser in rep.series.values():
        assert np.all(ser.values == 0.0)


def test_theorem_quantities_guards():
    """Frames whose times decrease, and frames too coarse to leave a sample
    time before the last one, are errors rather than silently wrong series."""
    e = sw.make_exponents(4.0, 3)
    traj = zero_trajectory(e)
    traj.frames_t = traj.frames_t[::-1].copy()
    with pytest.raises(ValueError, match="must not decrease"):
        fu.theorem_quantities(traj, e, 1.0, q=1.0)
    traj.frames_t = np.array([0.0, 0.5, 0.9] + [0.995] * 37)
    with pytest.raises(ValueError, match="no sample time"):
        fu.theorem_quantities(traj, e, 0.95, q=1.0)


def test_theorem_quantities_plateau(plateau_1024, exp43):
    rep = fu.theorem_quantities(plateau_1024, exp43, plateau_1024.T_est, q=1.0)
    # derived exponent: N - 4/(p-1) - (p-1)N/(p+3) = 8/21 at (4, 3)
    assert rep.meta["expected_power"] == pytest.approx(8.0 / 21.0, rel=1e-12)
    assert abs(rep.meta["power_fit_slope"] - 8.0 / 21.0) < 0.1 * 8.0 / 21.0
    assert np.isfinite(rep.sup["cone_gradient"])
    assert rep.meta["lower_bound_floor"] > 0.0
    # q = 0 reduces to the unweighted quantity
    rep0 = fu.theorem_quantities(plateau_1024, exp43, plateau_1024.T_est, q=0.0)
    s = rep.series["scaled_l2"].s
    logw = np.abs(np.log(np.exp(-s)))
    assert np.allclose(rep.series["scaled_l2"].values,
                       logw * rep0.series["scaled_l2"].values, rtol=1e-12)


def _radial_integral_1d(vals, grid, R, N):
    """The one-row radial integral theorem_quantities called per quantity."""
    r = grid.nodes
    R = min(R, r[-1])
    f = vals * r ** (N - 1.0)
    i = int(np.searchsorted(r, R))
    if i == 0:
        return 0.0
    total = float(np.trapezoid(f[:i], r[:i]))
    if i < r.size and R > r[i - 1]:
        r0, r1 = r[i - 1], r[i]
        rs = np.linspace(r0, R, 5)
        vi = vals[i - 1] + (vals[i] - vals[i - 1]) * (rs - r0) / (r1 - r0)
        total += float(np.trapezoid(vi * rs ** (N - 1.0), rs))
    return total


def _theorem_quantities_whole_archive(traj, e, T0, q):
    """theorem_quantities as it was: masked copies of every frame before T0,
    the gradient and cone energy of each, and one radial integral per
    quantity and sample; kept as the reference of the windowed version."""
    N, p = e.N, e.p
    sa = sw.surface_area(N)
    ft = traj.frames_t
    taus = T0 - ft
    good = taus > 0
    ft, taus = ft[good], taus[good]
    fu_, fut = traj.frames_u[good], traj.frames_ut[good]
    dr = traj.grid.dr
    fur = np.gradient(fu_, dr, axis=1)
    Gt = np.array([sa * _radial_integral_1d(fur[i] ** 2 + fut[i] ** 2, traj.grid,
                                            taus[i], N) for i in range(ft.size)])
    tau_lo = max(taus[-1] * 4.0, 10.0 * dr)
    tau_hi = taus[0] * 0.45 if taus[0] * 0.45 > tau_lo else taus[2]
    targets = np.geomspace(tau_hi, tau_lo, 40)
    idx = np.unique(np.searchsorted(-taus, -targets))
    idx = idx[idx < ft.size - 1]
    logw = np.abs(np.log(taus[idx])) ** q
    exps_l2 = -(p - 1.0) * N / (p + 3.0)
    cone, bound_e, sl2, lower = [], [], [], []
    for j, i in enumerate(idx):
        t_i, tau_i = ft[i], taus[i]
        sel = (ft >= t_i) & (ft <= 0.5 * (t_i + T0))
        cone.append(logw[j] * float(np.trapezoid(Gt[sel], ft[sel])))
        vals = (fur[i] ** 2 * (1.0 - np.minimum(traj.grid.nodes / tau_i, 1.0) ** 2)
                + fut[i] ** 2 - np.abs(fu_[i]) ** (p + 1.0) / (p + 1.0))
        bound_e.append(logw[j] * 0.5 * tau_i * sa
                       * _radial_integral_1d(vals, traj.grid, tau_i, N))
        l2 = sa * _radial_integral_1d(fu_[i] ** 2, traj.grid, tau_i, N)
        sl2.append(logw[j] * tau_i ** exps_l2 * l2)
        nu = math.sqrt(l2)
        nut = math.sqrt(sa * _radial_integral_1d(fut[i] ** 2, traj.grid, tau_i, N))
        nur = math.sqrt(sa * _radial_integral_1d(fur[i] ** 2, traj.grid, tau_i, N))
        lower.append(tau_i ** (e.two_over_pm1 - 0.5 * N) * nu
                     + tau_i ** (e.two_over_pm1 + 1.0 - 0.5 * N) * (nut + nur))
    s = -np.log(taus[idx])
    series = {name: FunctionalSeries(name, s, np.array(v)) for name, v in (
        ("cone_gradient", cone), ("boundary_energy", bound_e),
        ("scaled_l2", sl2), ("lower_bound", lower))}
    sup = {k: float(np.max(np.abs(v.values))) for k, v in series.items()}
    tau_sel = taus[idx]
    pure = np.array(sl2) / np.where(logw > 0, logw, 1.0)
    slope = power_fit(np.log(tau_sel), np.log(pure)).slope if np.all(pure > 0) else 0.0
    meta = {"q": q, "power_fit_slope": slope,
            "expected_power": -e.l2_rate,
            "lower_bound_floor": float(np.min(lower))}
    return fu.TheoremReport(series=series, sup=sup, meta=meta, tau=tau_sel, pure_l2=pure)


@pytest.mark.parametrize("q", [0.0, 1.0, 2.5])
def test_theorem_quantities_read_only_their_windows(plateau_1024, exp43, q):
    """Sampling first and reading only the frames the windows span gives the
    whole-archive computation bit for bit, also when T0 lies before the last
    frames, which then drop out of the archive's prefix."""
    ft = plateau_1024.frames_t
    for T0 in (plateau_1024.T_est, 0.5 * (ft[-41] + ft[-40])):
        got = fu.theorem_quantities(plateau_1024, exp43, T0, q=q)
        want = _theorem_quantities_whole_archive(plateau_1024, exp43, T0, q)
        assert got.series.keys() == want.series.keys()
        for name, ser in want.series.items():
            assert np.array_equal(got.series[name].s, ser.s), name
            assert np.array_equal(got.series[name].values, ser.values), name
        assert got.sup == want.sup and got.meta == want.meta
        assert np.array_equal(got.tau, want.tau)
        assert np.array_equal(got.pure_l2, want.pure_l2)


def test_h_norm_finite_on_suite(radial_rules, plateau_1024, exp43):
    snaps = sw.trajectory_to_w(plateau_1024, exp43, 0.0, plateau_1024.T_est,
                               [2.0, 4.0])
    for sn in snaps:
        assert np.isfinite(fu.h_norm(sn, radial_rules))


def test_evaluate_series_validation_and_dispatch(plateau_1024, exp43, radial_rules):
    snaps = sw.trajectory_to_w(plateau_1024, exp43, 0.0, plateau_1024.T_est,
                               np.arange(2.0, 4.01, 0.1))
    for names, eps, k, match in ((["F0", "nope"], 0.6, 1, "unknown functional 'nope'"),
                                 (["E_eps"], -0.1, 1, "positive"),
                                 (["Fk"], 0.6, 0, "k must be >= 1"),
                                 (["Fk"], 0.6, -1, "k must be >= 1")):
        with pytest.raises(ValueError, match=match):
            fu.evaluate_series(names, snaps, radial_rules, exp43, eps, k, 1.0)
    ser, f2 = fu.evaluate_series(["F0", "Fk"], snaps, radial_rules, exp43, 0.6, 2, 1.0)
    sf, = fu.evaluate_series(["scriptF1"], snaps, radial_rules, exp43, 0.6, 1, 2.0)
    assert ser.name == "F0" and len(ser) == snaps.s.size
    assert f2.name == "F2" and f2.meta["k"] == 2
    assert sf.name == "scriptF1" and sf.meta["sigma"] == 2.0


def test_block_wise_series_are_the_whole_series(plateau_1024, exp43):
    """evaluate_series, which samples every rule one block of ROW_BLOCK
    snapshots at a time, gives every name in
    FUNCTIONAL_NAMES bit for bit as evaluating it on the whole series at
    once, on a series of two full blocks and a partial one."""
    rules = RuleTable(3, n_radial=12, n_angular=3)
    s_grid = 2.0 + 0.02 * np.arange(2 * fu.ROW_BLOCK + 9)

    def series():
        return sw.trajectory_to_w(plateau_1024, exp43, 0.0, plateau_1024.T_est,
                                  s_grid)

    eps, k, sigma = 0.7, 2, 1.5
    got = fu.evaluate_series(fu.FUNCTIONAL_NAMES, series(), rules, exp43, eps, k, sigma)
    snaps = series()
    s = snaps.s

    def per_snapshot(name):
        return FunctionalSeries(name, s, fu.SNAPSHOT_FUNCTIONALS[name](snaps, rules, exp43, eps))

    def u_ladder(kk):
        return fu.u_series(FunctionalSeries("U_integrand", s, fu.u_integrand(snaps, rules, exp43)),
                           kk, exp43)

    want = [per_snapshot(name) for name in fu.SNAPSHOT_FUNCTIONALS]
    for kk in (1, k):
        want.append(fu.f_ladder(per_snapshot("F0"), kk, exp43))
    want += [u_ladder(1), u_ladder(k)]
    want += [fu.script_f_series(per_snapshot("M"), u_ladder(kk), kk, sigma, exp43)
             for kk in (1, k)]
    assert [ser.name for ser in got] == [ser.name for ser in want] == [
        *fu.SNAPSHOT_FUNCTIONALS, "F1", "F2", "U1", "U2", "scriptF1", "scriptF2"]
    for a, b in zip(got, want):
        assert np.array_equal(a.s, b.s) and a.values.tobytes() == b.values.tobytes(), a.name
        assert (a.tail_bound is None) == (b.tail_bound is None), a.name
        if a.tail_bound is not None:
            assert a.tail_bound.tobytes() == b.tail_bound.tobytes(), a.name
        assert a.meta == b.meta, a.name


def test_evaluate_series_leaves_the_series_unsampled(plateau_1024, exp43):
    """No rule's (m, K) samples outlive the block they were taken for: after
    evaluate_series over every name, the transform series it was given
    holds no node sample."""
    rules = RuleTable(3, n_radial=12, n_angular=3)
    snaps = sw.trajectory_to_w(plateau_1024, exp43, 0.0, plateau_1024.T_est,
                               2.0 + 0.05 * np.arange(fu.ROW_BLOCK + 5))
    fu.evaluate_series(fu.FUNCTIONAL_NAMES, snaps, rules, exp43, 0.6, 1, 1.0)
    assert snaps._samples == {}
