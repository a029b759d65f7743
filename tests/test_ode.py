import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import sswave as sw
from sswave.ode import FitError, fit_blowup, ode_exact, ode_integrate, power_fit


@pytest.fixture(scope="module")
def e43():
    return sw.make_exponents(4.0, 3)


def test_ode_exact_value_p4(e43):
    u, ut = ode_exact(e43, 1.0, 0.0)
    assert u == pytest.approx((10.0 / 9.0) ** (1.0 / 3.0), rel=1e-12)
    # residual of u'' = u^p at the closed form, via finite differences
    # (roundoff-limited; the symbolic oracle below is the sharp check)
    h = 1e-4
    um, _ = ode_exact(e43, 1.0, -h)
    up, _ = ode_exact(e43, 1.0, h)
    upp = (up - 2.0 * u + um) / h ** 2
    assert upp == pytest.approx(u ** 4, rel=1e-5)


def test_ode_exact_symbolic_residual(e43):
    # symbolic differentiation oracle: d^2/dt^2 of the closed form equals u^p
    p, T, t = sympy.symbols("p T t", positive=True)
    kappa = (2 * (p + 1) / (p - 1) ** 2) ** sympy.Rational(1, 1) ** 1
    kappa = (2 * (p + 1) / (p - 1) ** 2) ** (1 / (p - 1))
    u = kappa * (T - t) ** (-2 / (p - 1))
    resid = sympy.simplify(sympy.diff(u, t, 2) - u ** p)
    for pv, tv in [(4.0, 0.3), (3.5, 0.7), (2.5, 0.1)]:
        val = float(resid.subs({p: pv, T: 1.0, t: tv}))
        uval = float(u.subs({p: pv, T: 1.0, t: tv}))
        assert abs(val) < 1e-10 * max(1.0, uval ** pv)


def test_ode_exact_amplitude_limit(e43):
    # u (T-t)^(2/(p-1)) -> kappa trivially, by definition
    for tau in (1e-2, 1e-6, 1e-10):
        t = 1.0 - tau
        tau_eff = 1.0 - t  # what the closed form actually sees in float64
        u, _ = ode_exact(e43, 1.0, t)
        assert u * tau_eff ** (2.0 / 3.0) == pytest.approx(sw.kappa(e43), rel=1e-12)


def test_ode_exact_rejects_t_past_T(e43):
    with pytest.raises(ValueError):
        ode_exact(e43, 1.0, 1.0)


def test_scaling_invariance(e43):
    # if u solves the ODE then lam^(2/(p-1)) u(lam t) does too
    lam = 2.0
    q = e43.two_over_pm1
    for t in (0.1, 0.3, 0.45):
        u_scaled = lam ** q * ode_exact(e43, 1.0, lam * t)[0]
        # the scaled branch blows up at T/lam with the same kappa
        u_direct = ode_exact(e43, 1.0 / lam, t)[0]
        assert u_scaled == pytest.approx(u_direct, rel=1e-8)


def test_integrate_tracks_exact_branch(e43):
    # Pointwise agreement with the seeded branch amplifies the integrator's
    # tiny blow-up-time defect like 1/(T-t), so exact-branch agreement is
    # asserted over a moderate window and the deep asymptotics are compared
    # against the trajectory's own fitted branch (same closed form).
    u0, u1 = ode_exact(e43, 1.0, 0.0)
    traj = ode_integrate(u0, u1, e43, dt=1e-4, u_cap=1e6)
    assert traj.status == "blowup"
    sel = traj.u <= 1e3
    uex, _ = ode_exact(e43, 1.0, traj.t[sel])
    assert np.max(np.abs(traj.u[sel] - uex) / uex) < 1e-6
    fit = fit_blowup(traj.t, traj.u, amp_window=(1e4, 1e6))
    deep = (traj.u >= 1e3) & (traj.u <= 1e6)
    uex2, _ = ode_exact(e43, fit.T_est, traj.t[deep])
    assert np.max(np.abs(traj.u[deep] - uex2) / uex2) < 1e-6


def test_integrate_zero_data_reports_no_blowup(e43):
    traj = ode_integrate(0.0, 0.0, e43, dt=1e-3, max_steps=2000)
    assert traj.status == "no-blowup"
    assert np.all(traj.u == 0.0)


def test_integrate_mirror_symmetry(e43):
    u0, u1 = ode_exact(e43, 1.0, 0.0)
    plus = ode_integrate(u0, u1, e43, dt=1e-4, u_cap=1e4)
    minus = ode_integrate(-u0, -u1, e43, dt=1e-4, u_cap=1e4)
    assert minus.status == "blowup"
    n = min(plus.u.size, minus.u.size)
    assert np.allclose(minus.u[:n], -plus.u[:n], rtol=1e-12, atol=0)


def test_fit_recovers_exact_parameters(e43):
    # sample densely toward T so the asymptotic window has many points
    t = 1.0 - np.geomspace(0.5, 1e-9, 4000)
    u, _ = ode_exact(e43, 1.0, t)
    fit = fit_blowup(t, u, amp_window=(1e3, None))
    assert abs(fit.T_est - 1.0) < 1e-6
    assert abs(fit.exponent - (-2.0 / 3.0)) < 1e-3
    assert fit.r2 > 1.0 - 1e-9


@settings(max_examples=60, deadline=None)
@given(p=st.floats(3.1, 4.9), T=st.floats(0.5, 2.0),
       noise=st.one_of(st.just(0.0), st.floats(1e-9, 1e-3)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fit_recovers_blowup_from_noisy_exact_series(p, T, noise, seed):
    """Exact ODE amplitudes times (1 + noise * U(-1, 1)): T within a few
    noise levels of the last sample's distance to T, and the exponent
    -2/(p-1) within a fraction of the noise level, each above the
    golden-section search's own resolution."""
    e = sw.make_exponents(p, 3)
    t = T - T * np.geomspace(0.5, 1e-8, 400)
    u, _ = ode_exact(e, T, t)
    u = u * (1.0 + noise * np.random.default_rng(seed).uniform(-1.0, 1.0, t.size))
    fit = fit_blowup(t, u, amp_window=(u[100], None))
    assert abs(fit.T_est - T) <= 4.0 * noise * (T - t[-1]) + 1e-12 * max(1.0, T)
    assert abs(fit.exponent + e.two_over_pm1) <= e.two_over_pm1 * (0.25 * noise + 1e-6)


@pytest.mark.parametrize("slope", [-2.0 / 3.0, 8.0 / 21.0, -2.66, 0.0])
def test_power_fit_recovers_exact_power_law(slope):
    """tau^slope sampled like the rate stage's 40 times gives back its slope
    and r2 = 1 to rounding; a constant series has r2 = 0."""
    x = np.log(np.geomspace(0.45, 1e-3, 40))
    fit = power_fit(x, 0.75 + slope * x)
    assert fit.slope == pytest.approx(slope, rel=1e-13, abs=1e-14)
    assert fit.sse < 1e-26
    assert fit.r2 == (0.0 if slope == 0.0 else pytest.approx(1.0, abs=1e-14))


@pytest.mark.parametrize("shape", ["rate", "decay"])
def test_power_fit_agrees_with_polyfit(shape):
    """On noisy log-log data shaped like the rate series (at most 40 tau
    samples) and the decay series (hundreds of samples of log|v| ~ -250 over
    a stretch of s), the slope is np.polyfit's to 1e-13."""
    rng = np.random.default_rng(0 if shape == "rate" else 1)
    for _ in range(200):
        if shape == "rate":
            n = int(rng.integers(3, 41))
            x = np.log(np.geomspace(rng.uniform(0.05, 0.5), rng.uniform(1e-4, 1e-2), n))
            y = rng.uniform(-5.0, 5.0) + rng.uniform(-1.0, 1.0) * x
            y += rng.uniform(0.0, 0.05) * rng.standard_normal(n)
        else:
            n = int(rng.integers(3, 301))
            s0 = rng.uniform(5.0, 15.0)
            x = np.linspace(s0, s0 + rng.uniform(2.0, 15.0), n)
            y = rng.uniform(-250.0, 5.0) - rng.uniform(0.1, 3.0) * x
            y += rng.uniform(0.0, 0.5) * rng.standard_normal(n)
        want = np.polyfit(x, y, 1)[0]
        assert abs(power_fit(x, y).slope - want) <= 1e-13 * max(abs(want), 1.0), (n, want)


def test_fit_blowup_exponent_is_power_fit_on_its_window(e43):
    """The fitted exponent and r2 are power_fit's, bit for bit, on the
    amplitude window at the fitted T."""
    t = 1.0 - np.geomspace(0.5, 1e-8, 400)
    u, _ = ode_exact(e43, 1.0, t)
    u = u * (1.0 + 1e-4 * np.random.default_rng(3).uniform(-1.0, 1.0, t.size))
    fit = fit_blowup(t, u, amp_window=(1e3, None))
    win = u >= 1e3
    direct = power_fit(np.log(fit.T_est - t[win]), np.log(u[win]))
    assert (fit.exponent, fit.r2) == (direct.slope, direct.r2)
    assert fit.n_samples == int(np.count_nonzero(win))


def test_fit_rejects_constant_data():
    t = np.linspace(0, 1, 50)
    with pytest.raises(FitError):
        fit_blowup(t, np.full(50, 2e3), amp_window=(1e2, None))


def test_fit_rejects_non_monotone_tail():
    t = np.linspace(0, 1, 50)
    amp = np.geomspace(1e3, 1e6, 50)
    amp[30] = amp[29] * 0.5
    with pytest.raises(FitError, match="increasing"):
        fit_blowup(t, amp, amp_window=(1e2, None))


def test_fit_on_rk4_data(e43):
    u0, u1 = ode_exact(e43, 1.0, 0.0)
    traj = ode_integrate(u0, u1, e43, dt=1e-4, u_cap=1e8)
    fit = fit_blowup(traj.t, traj.u, amp_window=(1e3, None))
    assert abs(fit.exponent - (-2.0 / 3.0)) < 0.01 * (2.0 / 3.0)
    assert abs(fit.T_est - 1.0) < 5e-3 * 1.0
