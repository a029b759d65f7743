import math

import numpy as np
import pytest

import sswave as sw
from sswave.core import FunctionalSeries
from sswave.quadrature import RuleTable
from sswave.similarity import PolyField, TestField, constant_field, make_test_field
from sswave import functionals as fu
from sswave import verify

from conftest import lemma_window_snaps, make_gaussian_run


def radial_quadratic(N, c0, c2):
    d = {(0,) * N: c0}
    for i in range(N):
        k = [0] * N
        k[i] = 2
        d[tuple(k)] = c2
    return PolyField(N, d)


def positive_field(N, rng):
    """Strictly positive w (so |w|^(p-1) w is analytic) with a random ws."""
    if N >= 4:
        return TestField(N=N, a=0.0, poly=radial_quadratic(N, 2.0, 0.3),
                         ws_a=1.0, ws_poly=radial_quadratic(N, 0.4, -0.2))
    wc = {(0,) * N: 2.0}
    for _ in range(4):
        k = tuple(int(v) for v in rng.integers(0, 3, size=N))
        wc[k] = wc.get(k, 0.0) + float(rng.uniform(-0.2, 0.2))
    wsc = {tuple(int(v) for v in rng.integers(0, 3, size=N)):
           float(rng.uniform(-0.5, 0.5)) for _ in range(4)}
    return TestField(N=N, a=0.0, poly=PolyField(N, wc), ws_a=1.0,
                     ws_poly=PolyField(N, wsc))


FLOW_CASES = [(4.0, 3, 20), (6.0, 2, 64), (2.5, 4, 1)]


@pytest.mark.parametrize("p,N,n_ang", FLOW_CASES)
@pytest.mark.parametrize("name", verify.LEMMA_NAMES)
def test_lemma_rhs_certified_by_frozen_flow(p, N, n_ang, name):
    """Every d/ds identity's right side agrees with the independent Gateaux
    (differentiate-under-the-integral) oracle for arbitrary smooth (w, ws),
    certifying each law's coefficients to quadrature precision."""
    e = sw.make_exponents(p, N)
    rules = RuleTable(N, n_radial=40, n_angular=n_ang)
    rng = np.random.default_rng(hash((p, N)) % 2 ** 31)
    snap = make_test_field(positive_field(N, rng), rules.rule(0.6), s=3.0)
    for eps in (0.6, 1.0):
        oracle = verify.flow_derivative(name, snap, rules, e, eps)
        rhs = verify.lemma_rhs(name, snap, rules, e, eps)
        scale = max(abs(oracle), abs(rhs), 1e-14)
        assert abs(oracle - rhs) / scale < 1e-9, (name, eps)
        if name in ("dF0", "dJ0", "dM", "dF1"):
            break  # eps-independent identities


def test_dm_composite_equals_collected_form():
    """Coefficient-level cross-check: composite dM vs its collected form."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=40, n_angular=16)
    rng = np.random.default_rng(31)
    for _ in range(5):
        snap = make_test_field(positive_field(3, rng), rules.rule(0.6), s=2.0)
        a = verify.lemma_rhs("dM", snap, rules, e, 0.6)
        b = verify.dm_collected_rhs(snap, rules, e)
        assert a == pytest.approx(b, rel=1e-12)


def test_every_rhs_vanishes_on_stationary_profile():
    """The constant profile is a stationary solution, so every d/ds law's
    right side must vanish on it (a sharp sign/coefficient check: e.g. a
    sign slip in dJ's transport terms would leave an O(1) residue
    4 alpha (N/2 + alpha) kappa^2 Vol)."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=24)
    k = sw.kappa(e)
    snap = make_test_field(constant_field(3, k), rules.rule(0.6), s=1.0)
    for name in verify.LEMMA_NAMES:
        if name in ("dF0", "dF1"):
            continue  # these decay like e^(2 alpha s) even on the constant
        val = verify.lemma_rhs(name, snap, rules, e, 0.6)
        assert abs(val) < 1e-10, name
    V = sw.ball_weight_volume(3, 0.6)
    assert abs(4.0 * e.alpha * (1.5 + e.alpha) * k ** 2 * V) > 1e-2


# ---------------------------------------------------------------------------
# Pohozaev identities

@pytest.mark.parametrize("N,eps", [(2, 0.6), (2, 1.0), (2, 1.1),
                                   (3, 0.6), (3, 1.0), (3, 1.1)])
def test_identity_battery(N, eps):
    reports = verify.run_identity_battery(N, eps, n_fields=50, seed=1234 + N)
    assert len(reports) == 100
    worst = max(r.rel_residual for r in reports)
    assert all(r.passed for r in reports), worst
    assert worst < 1e-8


def test_pohozaev_trivial_and_examples():
    rules3 = RuleTable(3, n_radial=40, n_angular=12)
    one = make_test_field(constant_field(3, 1.0), rules3.rule(0.6))
    rA = verify.check_pohozaev_A(one, 0.6, rules3)
    assert rA.lhs == pytest.approx(0.0, abs=1e-14)
    assert rA.passed
    rE = verify.check_pohozaev_E(one, 0.6, rules3)
    assert rE.lhs == pytest.approx(0.0, abs=1e-14)

    radial = make_test_field(TestField(N=3, a=2.0, poly=PolyField(3, {(0, 0, 0): 1.0})),
                             rules3.rule(0.6))
    for eps in (0.6, 1.0):
        assert verify.check_pohozaev_A(radial, eps, rules3).rel_residual < 1e-8
        assert verify.check_pohozaev_E(radial, eps, rules3).rel_residual < 1e-8

    rules2 = RuleTable(2, n_radial=40, n_angular=48)
    ang = make_test_field(TestField(N=2, a=1.0, poly=PolyField(2, {(0, 0): 1.0}), m=2),
                          rules2.rule(0.6))
    rA = verify.check_pohozaev_A(ang, 0.6, rules2)
    assert rA.rel_residual < 1e-8
    # the angular-gradient term really is exercised
    assert verify._raw(ang, rules2, None, 0.6, "Q1") > 1e-3
    ang1 = make_test_field(TestField(N=2, a=1.0, poly=PolyField(2, {(0, 0): 1.0}), m=1),
                           rules2.rule(0.6))
    rE = verify.check_pohozaev_E(ang1, 0.6, rules2)
    assert rE.rel_residual < 1e-8
    assert (verify._raw(ang1, rules2, None, 0.6, "Thh") > 1e-3
            and verify._raw(ang1, rules2, None, 0.6, "Hr") > 1e-3)


def test_report_relative_residual_floor():
    rep = verify.report("x", 0.0, 0.0, 1e-8)
    assert rep.rel_residual == 0.0 and rep.passed


# ---------------------------------------------------------------------------
# dynamic lemma checks

@pytest.fixture(scope="module")
def small_gauss_pair():
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=40, n_angular=1)
    out = []
    for nr, ds in [(512, 0.04), (1024, 0.02)]:
        traj = make_gaussian_run(nr, u_cap=1e3, store_ds=ds / 2)
        snaps = lemma_window_snaps(traj, e, rules, ds, length=0.8)
        out.append(snaps)
    return e, rules, out


@pytest.mark.parametrize("name", verify.LEMMA_NAMES)
def test_derivative_lemma_converges_on_trajectory(small_gauss_pair, name):
    e, rules, (coarse, fine) = small_gauss_pair
    r1 = verify.check_derivative_lemma(name, coarse, rules, e, eps=0.6)
    r2 = verify.check_derivative_lemma(name, fine, rules, e, eps=0.6)
    assert r2.abs_residual < r1.abs_residual
    order = math.log2(r1.abs_residual / max(r2.abs_residual, 1e-300))
    assert order >= 1.5, (name, r1.abs_residual, r2.abs_residual)


def test_zero_series_lemmas_read_zero():
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=16)
    snaps = make_test_field(constant_field(3, 0.0), rules.plain,
                            s=np.array([1.0, 1.1, 1.2]))
    for name in verify.LEMMA_NAMES:
        rep = verify.check_derivative_lemma(name, snaps, rules, e, eps=0.6)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_constant_profile_dF0_closed_form():
    """On w = kappa the dF0 window check reduces to the algebraic identity
    2 alpha E(kappa) = -alpha^2 kappa^2 N |B| + alpha (p-1)/(p+1) kappa^(p+1)|B|."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=32)
    k = sw.kappa(e)
    snaps = make_test_field(constant_field(3, k), rules.plain,
                            s=np.arange(1.0, 2.0001, 0.005))
    rep = verify.check_derivative_lemma("dF0", snaps, rules, e)
    # trapezoid of a smooth exponential: residual ~ (ds^2/12) (2 alpha)^2
    assert rep.rel_residual < 1e-6
    inst = verify.lemma_rhs("dF0", snaps[0], rules, e, 0.6)
    B = sw.ball_volume(3)
    al = e.alpha
    expected = math.exp(2 * al * 1.0) * (-al ** 2 * k ** 2 * 3 * B
                                         + al * 0.6 * k ** 5 * B)
    assert inst == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# disjoint code paths: mutation tests

def test_mutation_in_functionals_path_is_detected(small_gauss_pair, monkeypatch):
    e, rules, (_, fine) = small_gauss_pair
    base = verify.check_derivative_lemma("dJ_eps", fine, rules, e, eps=0.6)
    orig = fu.J_eps
    monkeypatch.setattr(fu, "J_eps", lambda *a, **k: 1.01 * orig(*a, **k))
    broken = verify.check_derivative_lemma("dJ_eps", fine, rules, e, eps=0.6)
    # a 1% multiplicative break shifts the difference by 1% of the LHS,
    # well above the discretisation-level residual
    assert broken.abs_residual > 3.0 * base.abs_residual
    assert broken.abs_residual == pytest.approx(
        base.abs_residual + 0.01 * abs(base.lhs), rel=0.3)


def test_mutation_in_quadrature_path_is_detected(small_gauss_pair, monkeypatch):
    e, rules, (_, fine) = small_gauss_pair
    base = verify.check_derivative_lemma("dJ_eps", fine, rules, e, eps=0.6)
    orig = verify._Gfun
    monkeypatch.setattr(verify, "_Gfun",
                        lambda *args: 1.01 * orig(*args))
    broken = verify.check_derivative_lemma("dJ_eps", fine, rules, e, eps=0.6)
    assert broken.abs_residual > 50.0 * max(base.abs_residual, 1e-15)


# ---------------------------------------------------------------------------
# monotonicity / decay monitors

def test_monitor_monotone_constant_solution():
    e = sw.make_exponents(4.0, 3)
    s = np.arange(1.0, 6.0, 0.1)
    ser = FunctionalSeries("F0", s, np.exp(2 * e.alpha * s) * 3.7)
    mon = verify.monitor_monotone(ser, require_nonneg=True)
    assert mon["monotone"] and mon["nonnegative"] and mon["violations"] == []


def test_monitor_monotone_zero_series_vacuous():
    ser = FunctionalSeries("z", [0, 1, 2], [0.0, 0.0, 0.0])
    assert verify.monitor_monotone(ser)["monotone"]


def test_monitor_monotone_flags_violation():
    ser = FunctionalSeries("bad", [0, 1, 2, 3], [1.0, 0.5, 0.7, 0.1])
    mon = verify.monitor_monotone(ser, slack=1e-6)
    assert mon["violations"] == [1]


def test_monitor_monotone_flags_non_finite_steps():
    """NaN compares False, and a step to or from inf is no larger than slack
    times its infinite scale: without a finiteness check a series holding
    one NaN or inf would read as monotone."""
    for bad in (math.nan, math.inf, -math.inf):
        ser = FunctionalSeries("bad", [0, 1, 2, 3], [1.0, bad, 0.5, 0.1])
        mon = verify.monitor_monotone(ser)
        assert mon["violations"] == [0, 1] and not mon["monotone"], bad


def test_monitor_requires_three_samples():
    with pytest.raises(ValueError):
        verify.monitor_monotone(FunctionalSeries("s", [0, 1], [1.0, 0.5]))


def test_ladder_check_fails_short_windows():
    """A ladder window with fewer than 3 samples is a failed check, not an
    error; the windows that are long enough are still checked."""
    e = sw.make_exponents(4.0, 3)   # ladder_start(e, k) = 1.25 k / 12
    s = np.arange(0.5, 0.95, 0.1)
    f0 = FunctionalSeries("F0", s, np.exp(2 * e.alpha * s))
    reps = verify.check_ladder(f0, e, 8)
    assert [r["name"] for r in reps] == [f"ladder_k{k}_monotone" for k in range(1, 9)]
    assert all(set(r) == {"name", "passed", "violations"} for r in reps)
    n_window = [int(np.count_nonzero(s >= max(s[0], verify.ladder_start(e, k))))
                for k in range(1, 9)]
    assert min(n_window) < 3 <= max(n_window)
    for rep, n in zip(reps, n_window):
        assert rep["passed"] is (n >= 3)
        assert rep["violations"] == []


def test_sigma_bound_constant_profile_closed_form():
    """On w = kappa only the w^2 pieces of Sigma survive, and the calibrated
    C1 is their sum over int w^2 rho in closed form."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=40)
    k = sw.kappa(e)
    snaps = make_test_field(constant_field(3, k), rules.plain,
                            s=np.arange(1.0, 2.0001, 0.05))
    c1 = verify.calibrate_sigma_bound(snaps, rules, e)
    parts = verify.sigma_parts(snaps[0], rules, e)
    assert parts["Sigma1"] == 0.0 and parts["Sigma2"] == 0.0
    assert parts["Sigma5"] == 0.0
    # closed forms of the surviving pieces
    al, p, N = e.alpha, e.p, e.N
    g1 = (p + 1.0) / (p - 1.0) ** 2
    c = e.two_over_pm1 + 0.4
    V = sw.ball_weight_volume(3, 0.6)
    A = k ** 2 * (sw.ball_weight_volume(3, -0.4) - V)
    s3 = (-2.0 * c * g1 + 2.0 * al * g1 + al * c * N + 4.0 * c * al ** 2) * k ** 2 * V
    s4 = 2.4 * al * c * A
    assert parts["Sigma3"] == pytest.approx(s3, rel=1e-10)
    assert parts["Sigma4"] == pytest.approx(s4, rel=1e-10)
    # ws = grad w = 0: int Sigma <= C1 int w^2 rho, with equality at the calibration
    assert c1 == pytest.approx((s3 + s4) / (k ** 2 * V), rel=1e-10)


def test_sigma_bound_zero_series():
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=16)
    snaps = make_test_field(constant_field(3, 0.0), rules.plain,
                            s=np.array([1.0, 1.5, 2.0]))
    assert all(np.all(part == 0.0) for part in verify.sigma_parts(snaps, rules, e).values())
    assert verify.calibrate_sigma_bound(snaps, rules, e) == 0.0


def test_singular_average_constant_profile_and_zero_series():
    """On w = kappa the singular norm is kappa^(p+1) times the volume of
    rho_eps/sqrt(1-|y|^2), and the energy sum (kappa^2 + kappa^(p+1)) times
    that of rho_eps: C is their ratio over the window lengths 1 and 5.  It
    is 0 on w = 0, and a series that does not cover [s_lo-2, s_lo+3] is an
    error."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=24)
    k, eps, s = sw.kappa(e), 0.6, np.arange(0.0, 5.0001, 0.25)
    const = make_test_field(constant_field(3, k), rules.plain, s=s)
    C = verify.calibrate_singular_average(const, rules, e, eps, s_lo=2.0)
    lp1 = k ** (e.p + 1.0)
    want = (lp1 * sw.ball_weight_volume(3, eps - 0.5)
            / (5.0 * (k ** 2 + lp1) * sw.ball_weight_volume(3, eps)))
    assert C == pytest.approx(want, rel=1e-10)
    zero = make_test_field(constant_field(3, 0.0), rules.plain, s=s)
    assert verify.calibrate_singular_average(zero, rules, e, eps, s_lo=2.0) == 0.0
    with pytest.raises(ValueError, match="need coverage"):
        verify.calibrate_singular_average(const, rules, e, eps, s_lo=2.5)


def test_decay_report():
    s = np.linspace(0.0, 10.0, 101)
    dec = verify.decay_report(FunctionalSeries("d", s, np.exp(-s)))
    assert dec["passed"] and dec["ratio"] < 0.1
    grow = verify.decay_report(FunctionalSeries("g", s, np.exp(0.1 * s)))
    assert not grow["passed"]


def _rate_report(slope=-0.5, pure_l2=None, cone_sup=2.0):
    """A hand-built TheoremReport whose three rate verdicts hold by default:
    slope on the expected power -0.5, tau^-0.5 falling toward the blow-up
    (tau from 1e-1 to 1e-4, so the last decade is tau <= 1e-3), a finite
    cone sup."""
    tau = np.geomspace(1e-1, 1e-4, 40)
    return fu.TheoremReport(
        series={}, sup={"cone_gradient": cone_sup, "scaled_l2": 1.0},
        meta={"power_fit_slope": slope, "expected_power": -0.5,
              "lower_bound_floor": 0.25},
        tau=tau, pure_l2=tau ** 0.5 if pure_l2 is None else pure_l2)


def test_rate_verdicts_fail_one_at_a_time():
    """Each rate verdict turns false on its own defect, and only that one."""
    good = verify.rate_verdict(_rate_report(), q=1.0)
    assert set(good) == {"q", "power_fit_slope", "expected_power", "slope_within_10pct",
                         "scaled_l2_decreasing_last_decade", "cone_gradient_sup",
                         "cone_gradient_bounded", "lower_bound_floor", "sup"}
    assert all(good[key] is True for key in verify.RATE_VERDICTS)
    rising, early = _rate_report().pure_l2.copy(), _rate_report().pure_l2.copy()
    rising[-1] = 1.01 * rising[-2]          # inside the last decade
    early[1] = 2.0 * early[0]               # before it: not a verdict
    for rep, failed in [(_rate_report(slope=-0.6), "slope_within_10pct"),
                        (_rate_report(slope=-0.4), "slope_within_10pct"),
                        (_rate_report(pure_l2=rising), "scaled_l2_decreasing_last_decade"),
                        (_rate_report(cone_sup=math.inf), "cone_gradient_bounded"),
                        (_rate_report(pure_l2=early), None)]:
        verdict = verify.rate_verdict(rep, q=1.0)
        assert {key for key in verify.RATE_VERDICTS if not verdict[key]} == (
            {failed} if failed else set()), failed
    # a last decade of two falling samples is fewer than MIN_SAMPLES: no trend
    few = _rate_report()
    few.tau, few.pure_l2 = np.array([1e-1, 1e-2, 5e-4, 1e-4]), np.array([4.0, 3.0, 2.0, 1.0])
    assert not verify.rate_verdict(few, q=1.0)["scaled_l2_decreasing_last_decade"]
    # two samples fit any power exactly: fewer than MIN_SAMPLES, no slope
    two = _rate_report()
    two.tau, two.pure_l2 = np.array([1e-1, 1e-4]), np.array([1e-1, 1e-4]) ** 0.5
    assert not verify.rate_verdict(two, q=1.0)["slope_within_10pct"]
    near = verify.rate_verdict(_rate_report(slope=-0.54), q=2.5)   # 8% off
    assert near["slope_within_10pct"] and near["q"] == 2.5


def test_decay_windows_are_per_window_trapezoids(exp43, plateau_1024):
    """The decay bundle's [s, s+1] window integrals equal one np.trapezoid
    per window, bit for bit, on an uneven s grid whose windows hold
    different numbers of samples."""
    traj, rules = plateau_1024, RuleTable(3, n_radial=12, n_angular=3)
    s_grid = 2.0 + np.cumsum(np.random.default_rng(8).uniform(0.02, 0.08, 50))
    snaps = sw.trajectory_to_w(traj, exp43, 0.0, traj.T_est, s_grid, rules.plain)
    s = snaps.s
    gradient = verify.build_decay_bundle(snaps, rules, exp43)["window_gradient"]
    g2 = verify._raw_int(snaps, rules, exp43, "g2", 0.0)
    sels = [(s >= si - 1e-12) & (s <= si + 1.0 + 1e-12) for si in gradient.s]
    assert len({np.count_nonzero(sel) for sel in sels}) > 2
    loop = np.array([float(np.trapezoid(g2[sel], s[sel])) for sel in sels])
    sh = gradient.s
    assert np.array_equal(gradient.values,
                          sh ** (1.0 / 18.0) * np.exp(2.0 * exp43.alpha * sh) * loop)


def _smallest_sigma_loop(P, U):
    """The loop smallest_sigma replaced: the reference for its array form."""
    need = 0.0
    for a, b in zip(np.diff(P), np.diff(U)):
        if a <= 0.0:
            continue
        if b >= 0:
            return math.inf
        need = max(need, a / (-b))
    return need


def test_smallest_sigma_matches_loop():
    e = sw.make_exponents(4.0, 3)
    s = np.arange(2.0, 4.0, 0.1)
    gamma = (1 - 18.0) / 18.0
    rng = np.random.default_rng(5)
    for trial in range(40):
        m = FunctionalSeries("M", s, rng.normal(size=s.size))
        # mostly decreasing U, sometimes with a step up that cannot pay
        u = FunctionalSeries("U", s, -np.cumsum(rng.uniform(-0.05 * (trial % 2), 1.0, s.size)))
        P = s ** gamma * np.exp(2 * e.alpha * s) * m.values
        assert verify.smallest_sigma(m, u, 1, e) == _smallest_sigma_loop(P, u.values)


def test_smallest_sigma_reporting():
    e = sw.make_exponents(4.0, 3)
    s = np.arange(2.0, 4.0, 0.1)
    # M-part engineered to increase somewhere, U decreasing
    m = FunctionalSeries("M", s, np.exp(-2 * e.alpha * s) * (1.0 + 0.6 * np.sin(3 * s)))
    gamma = (1 - 18.0) / 18.0
    u = FunctionalSeries("U", s, np.exp(-0.5 * (s - s[0])))
    sig = verify.smallest_sigma(m, u, 1, e)
    assert np.isfinite(sig) and sig > 0
    P = s ** gamma * np.exp(2 * e.alpha * s) * m.values
    f = FunctionalSeries("F", s, P + sig * u.values)
    assert verify.monitor_monotone(f, slack=1e-12)["monotone"]
