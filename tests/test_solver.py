import math

import numpy as np
import pytest

import sswave as sw
from sswave.ode import ode_exact
from sswave.solver import SolverConfig, SolverError, initial_state, run_until_blowup, step


def make_cfg(nr=512, family="ode_constant", r_max=1.5, **kw):
    e = sw.make_exponents(4.0, 3)
    grid = sw.RadialGrid(r_max=r_max, nr=nr)
    return SolverConfig(e=e, grid=grid, family=family, **kw)


def test_zero_data_stays_zero():
    cfg = make_cfg(nr=128, family="zero")
    st = initial_state(cfg)
    for _ in range(50):
        st = step(st, cfg)
    assert np.all(st.u == 0.0) and np.all(st.ut == 0.0)


def test_zero_data_reports_no_blowup():
    cfg = make_cfg(nr=128, family="zero", max_steps=200)
    traj = run_until_blowup(cfg)
    assert traj.status == "no-blowup"
    assert traj.T_est is None


def test_center_tracks_ode_before_boundary_influence():
    # spatially constant ODE data: the center is pure ODE until the Dirichlet
    # boundary's cone arrives (t = r_max at unit speed)
    cfg = make_cfg(nr=512, family="ode_constant", T=1.0)
    st = initial_state(cfg)
    dt = cfg.cfl * cfg.grid.dr
    t_stop = 0.8
    while st.t < t_stop:
        st = step(st, cfg)
    u_exact, _ = ode_exact(cfg.e, 1.0, st.t)
    assert abs(st.u[0] - u_exact) / u_exact < 1e-4


def test_second_order_convergence_at_center():
    errs = []
    for nr in (256, 512, 1024):
        cfg = make_cfg(nr=nr, family="ode_constant", T=1.0)
        st = initial_state(cfg)
        while st.t < 0.6:
            st = step(st, cfg)
        # land exactly on t* with one fractional step
        st = step(st, cfg, dt=0.6 + cfg.cfl * cfg.grid.dr - st.t)
        u_exact, _ = ode_exact(cfg.e, 1.0, st.t)
        errs.append(abs(st.u[0] - u_exact) / u_exact)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 1.7 <= o <= 2.3, (errs, orders)


def test_linear_regime_energy_drift():
    # tiny amplitude: nonlinearity negligible; energy inside a causally
    # protected ball is conserved up to discretisation drift
    cfg = make_cfg(nr=512, family="gaussian", amplitude=1e-3, width=0.2)
    st = initial_state(cfg)
    r = cfg.grid.nodes
    sel = r <= 0.9

    def energy(state):
        ur = np.gradient(state.u, cfg.grid.dr)
        return float(np.trapezoid(((state.ut ** 2 + ur ** 2) * r ** 2)[sel],
                                  r[sel]))

    e0 = None
    for n in range(100):
        st = step(st, cfg)
        if e0 is None:
            e0 = energy(st)
    assert abs(energy(st) - e0) / e0 < 1e-3


def test_causality_of_exterior_perturbation():
    cfg = make_cfg(nr=512, family="zero")
    r = cfg.grid.nodes
    base = initial_state(cfg)
    pert = initial_state(cfg)
    R = 0.9
    bump = np.where((r > R) & (r < 1.2), (r - R) ** 2 * (1.2 - r) ** 2, 0.0)
    pert.u = pert.u + 1e3 * bump
    n_steps = 150
    for _ in range(n_steps):
        base = step(base, cfg)
        pert = step(pert, cfg)
    t = n_steps * cfg.cfl * cfg.grid.dr
    diff = np.abs(pert.u - base.u)
    # strict stencil cone: one cell per step, bitwise-unchanged inside it
    stencil_edge = R - n_steps * cfg.grid.dr
    assert np.all(diff[r < stencil_edge - 1e-12] == 0.0)
    # the scheme's dispersive precursor decays super-exponentially inside
    # the physical cone: negligible at the edge, round-off a few cells in
    assert np.max(diff[r < R - t]) < 1e-6 * 1e3
    assert np.max(diff[r < R - t - 20 * cfg.grid.dr]) < 1e-12 * 1e3


def test_plateau_blowup_time_and_rate(plateau_1024):
    traj = plateau_1024
    assert traj.status == "blowup"
    assert abs(traj.T_est - 1.0) < 0.005
    q = 2.0 / 3.0
    assert abs(traj.fit.exponent + q) < 0.02 * q


def test_gaussian_blowup_grid_stability():
    T_est = []
    for nr in (512, 1024):
        e = sw.make_exponents(4.0, 3)
        grid = sw.RadialGrid(r_max=0.5, nr=nr)
        cfg = SolverConfig(e=e, grid=grid, family="gaussian", amplitude=5.0,
                           width=0.35, u_cap=1e5)
        traj = run_until_blowup(cfg)
        assert traj.status == "blowup"
        assert np.argmax(np.abs(traj.frames_u[-1])) == 0  # center blows up
        T_est.append(traj.T_est)
    assert abs(T_est[0] - T_est[1]) / T_est[1] < 0.01


def test_snapshot_density_near_blowup(plateau_1024):
    # >= 40 stored frames per unit of s in the asymptotic regime
    traj = plateau_1024
    tau = traj.T_est - traj.frames_t
    tau = tau[tau > 0]
    s = -np.log(tau)
    sel = s > 10.0
    gaps = np.diff(s[sel])
    assert np.max(gaps) < 1.0 / 40.0 + 1e-3


def test_sample_state_batch_is_the_per_time_loop(plateau_1024):
    """Interpolating many times at once, across several blocks, gives the
    per-time 4-point Lagrange loop's states bit for bit."""
    traj, ft = plateau_1024, plateau_1024.frames_t
    ts = np.concatenate([[ft[0], ft[-1]], np.linspace(ft[0], ft[-1], 150)[1:-1],
                         ft[5:12], ft[-8:] - 1e-3 * (ft[-1] - ft[-8])])
    batch = traj.sample_state(ts)
    assert batch.u.shape == batch.ut.shape == (traj.grid.nr, ts.size)
    for j, t in enumerate(ts):
        i0 = min(max(int(np.searchsorted(ft, t)) - 2, 0), ft.size - 4)
        tt = ft[i0:i0 + 4]
        u, ut = np.zeros(traj.grid.nr), np.zeros(traj.grid.nr)
        for k in range(4):
            lam = 1.0
            for m in range(4):
                if m != k:
                    lam *= (t - tt[m]) / (tt[k] - tt[m])
            u += lam * traj.frames_u[i0 + k]
            ut += lam * traj.frames_ut[i0 + k]
        assert np.array_equal(batch.u[:, j], u) and np.array_equal(batch.ut[:, j], ut)
        one = traj.sample_state(t)
        assert np.array_equal(one.u, u) and np.array_equal(one.ut, ut)


def test_overflow_guard_raises_before_nonfinite():
    cfg = make_cfg(nr=128, family="ode_plateau", u_cap=np.inf, max_steps=10 ** 7)
    with pytest.raises(SolverError):
        run_until_blowup(cfg)


def test_cap_triggers_with_finite_fields(plateau_1024):
    assert np.all(np.isfinite(plateau_1024.frames_u))
    assert np.all(np.isfinite(plateau_1024.frames_ut))
    assert plateau_1024.max_u[-1] >= 1e8


def test_initial_family_validation():
    with pytest.raises(ValueError, match="unknown initial-data family"):
        initial_state(make_cfg(family="nope"))
    with pytest.raises(ValueError, match="cfl"):
        make_cfg(cfl=1.5)
    with pytest.raises(ValueError, match="grid too small"):
        grid = sw.RadialGrid(r_max=1.0, nr=64)
        initial_state(SolverConfig(e=sw.make_exponents(4.0, 3), grid=grid,
                                   family="ode_plateau", T=1.0))


def test_plateau_profile_shape():
    from sswave.solver import plateau_profile
    r = np.linspace(0, 2, 201)
    chi = plateau_profile(r, 1.0, 1.5)
    assert np.all(chi[r <= 1.0] == 1.0)
    assert np.all(chi[r >= 1.5] == 0.0)
    assert np.all(np.diff(chi) <= 1e-14)
