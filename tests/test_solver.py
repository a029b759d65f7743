import math

import numpy as np
import pytest

import sswave as sw
from sswave import solver
from sswave.core import kappa_value
from sswave.ode import ode_exact
from sswave.solver import (AMP_SAFETY, CFL, CORE_FRAC, FRAME_CAPACITY, R_MAX_FACTOR,
                           TAPER_FRAC, SolverConfig, SolverError, Trajectory,
                           initial_state, plateau_profile, run_until_blowup, step)

from conftest import observed_order


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
    dt = CFL * cfg.grid.dr
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
        st = step(st, cfg, dt=0.6 + CFL * cfg.grid.dr - st.t)
        u_exact, _ = ode_exact(cfg.e, 1.0, st.t)
        errs.append(abs(st.u[0] - u_exact) / u_exact)
    orders = [observed_order(errs[i], errs[i + 1]) for i in range(2)]
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
    t = n_steps * CFL * cfg.grid.dr
    diff = np.abs(pert.u - base.u)
    # strict stencil cone: one cell per step, bitwise-unchanged inside it
    stencil_edge = R - n_steps * cfg.grid.dr
    assert np.all(diff[r < stencil_edge - 1e-12] == 0.0)
    # the scheme's dispersive precursor decays super-exponentially inside
    # the physical cone: negligible at the edge, round-off a few cells in
    assert np.max(diff[r < R - t]) < 1e-6 * 1e3
    assert np.max(diff[r < R - t - 20 * cfg.grid.dr]) < 1e-12 * 1e3


def _accel_reference(u, dr, N, p):
    """The acceleration as one expression with fresh temporaries."""
    a = np.empty_like(u)
    a[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dr ** 2
    r = np.arange(1, u.size - 1) * dr
    a[1:-1] += (N - 1.0) / r * (u[2:] - u[:-2]) / (2.0 * dr)
    a[0] = N * 2.0 * (u[1] - u[0]) / dr ** 2
    a[-1] = 0.0
    return a + np.abs(u) ** (p - 1.0) * u


def _march_reference(cfg):
    """run_until_blowup's steps with two accelerations per step, each
    evaluated afresh: the (t, u, ut) after every step, and how many steps
    ran with dt capped below CFL*dr."""
    dr, N, p = cfg.grid.dr, cfg.e.N, cfg.e.p
    k, pow_ = kappa_value(p), (p - 1.0) / 2.0
    st = initial_state(cfg)
    u, ut, t_hi, t_lo = st.u, st.ut, 0.0, 0.0
    amax, capped, states = float(np.max(np.abs(u))), 0, []
    while amax < cfg.u_cap:
        dt = CFL * dr
        if amax > k:
            dt = min(dt, AMP_SAFETY * (k / amax) ** pow_)
        capped += dt < CFL * dr
        a0 = _accel_reference(u, dr, N, p)
        u = u + dt * ut + 0.5 * dt * dt * a0
        u[-1] = 0.0
        a1 = _accel_reference(u, dr, N, p)
        ut = ut + 0.5 * dt * (a0 + a1)
        ut[-1] = 0.0
        y = dt - t_lo
        t_new = t_hi + y
        t_lo = (t_new - t_hi) - y
        t_hi = t_new
        amax = float(np.max(np.abs(u)))
        states.append((t_hi, u, ut))
    return states, capped


@pytest.mark.parametrize("p,N", [(7.05, 2), (4.55, 3), (4.0, 3)])
def test_march_is_bitwise_the_two_acceleration_step(p, N):
    """The march that carries each acceleration into the next step gives,
    after every step and through the dt-capped regime, the t, u and ut of
    evaluating both accelerations of each step afresh, bit for bit; and
    step() from the initial state is the march's first step."""
    e = sw.make_exponents(p, N)
    cfg = SolverConfig(e=e, grid=sw.RadialGrid(r_max=1.5, nr=192), u_cap=1e4,
                       store_ds=0.0)   # store a frame after every step
    states, capped = _march_reference(cfg)
    assert capped >= 300
    traj = run_until_blowup(cfg)
    # so the archive grew past its first FRAME_CAPACITY rows at least thrice
    assert traj.frames_t.size > 4 * FRAME_CAPACITY
    assert traj.frames_t.size == len(states) + 1
    for n, (t, u, ut) in enumerate(states, start=1):
        assert traj.frames_t[n] == traj.center_t[n] == t, n
        assert np.array_equal(traj.frames_u[n], u) and np.array_equal(traj.frames_ut[n], ut), n
    first = step(initial_state(cfg), cfg, traj.frames_t[1])
    assert first.t == traj.frames_t[1]
    assert np.array_equal(first.u, traj.frames_u[1])
    assert np.array_equal(first.ut, traj.frames_ut[1])


def test_plateau_blowup_time_and_rate(plateau_1024):
    traj = plateau_1024
    assert traj.status == "blowup"
    assert abs(traj.T_est - 1.0) < 0.005
    q = 2.0 / 3.0
    assert abs(traj.fit.exponent + q) < 0.02 * q


def test_plateau_family_blows_up_as_its_flat_core():
    """family = plateau is the amplitude times the plateau cut-off, at
    rest.  The core stays flat until the taper's influence reaches the
    center, so the center follows u'' = u^p from (amplitude, 0): blow-up at
    amplitude^(-(p-1)/2) int_1^inf dv / sqrt(2 (v^(p+1) - 1) / (p+1)) and
    the rate (T - t)^(-2/(p-1))."""
    from scipy.integrate import quad

    cfg = make_cfg(nr=256, family="plateau", u_cap=1e5)
    state = initial_state(cfg)
    chi = plateau_profile(cfg.grid.nodes, CORE_FRAC * cfg.T, TAPER_FRAC * cfg.T)
    assert state.t == 0.0
    assert np.array_equal(state.u, cfg.amplitude * chi)
    assert np.array_equal(state.ut, np.zeros(cfg.grid.nr))
    traj = run_until_blowup(cfg)
    p = cfg.e.p
    T_ode = cfg.amplitude ** (-(p - 1.0) / 2.0) * quad(
        lambda v: 1.0 / math.sqrt(2.0 * (v ** (p + 1.0) - 1.0) / (p + 1.0)), 1.0, math.inf)[0]
    assert traj.status == "blowup"
    assert traj.T_est == pytest.approx(0.1288, abs=1e-4)
    assert traj.T_est == pytest.approx(T_ode, rel=1e-4)
    assert traj.fit.exponent == pytest.approx(-cfg.e.two_over_pm1, rel=1e-6)


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


def test_archive_is_held_once():
    """Each frame is written into one buffer per field, grown when full:
    the frames are the buffers' leading rows, which are more than half of
    them, and the march's traced peak stays within 1.5x the buffers' bytes
    plus 64 rows of nr, where per-frame copies stacked at the end would
    hold the archive twice."""
    import tracemalloc

    nr = 512
    cfg = make_cfg(nr=nr, family="ode_plateau", u_cap=1e8)
    tracemalloc.start()
    try:
        traj = run_until_blowup(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = traj.frames_t.size
    buffers = [f.base for f in (traj.frames_u, traj.frames_ut)]
    assert all(b is not None and b.shape[1] == nr and n <= b.shape[0] < 2 * n
               for b in buffers)
    assert all(np.shares_memory(f, b) and f.shape == (n, nr) for f, b in
               zip((traj.frames_u, traj.frames_ut), buffers))
    assert peak <= 1.5 * sum(b.nbytes for b in buffers) + 64 * nr * 8


def test_archive_grows_in_place(monkeypatch):
    """The archive grows in place by FRAME_CAPACITY rows at a time: the
    frames are bit for bit the same whatever that capacity, and the march's
    traced peak stays below the frames plus two growths of both fields,
    plus the march's buffers and per-step series.  Growing by a copy into
    a doubled array holds the old array beside the new one and exceeds it."""
    import tracemalloc

    nr = 512
    cfg = make_cfg(nr=nr, family="ode_plateau", u_cap=1e8)
    ref = None
    for capacity in (1, 5, FRAME_CAPACITY):
        monkeypatch.setattr(solver, "FRAME_CAPACITY", capacity)
        tracemalloc.start()
        try:
            traj = run_until_blowup(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, steps = traj.frames_t.size, traj.center_t.size
        # the march's 16 rows of nr, and three per-step lists of floats
        # turned into arrays, at most 48 bytes a step each
        buffers = 16 * nr * 8 + 3 * steps * 48
        assert peak < (n + 2 * capacity) * nr * 8 * 2 + buffers, capacity
        ref = ref or traj
        for name in ("frames_t", "frames_u", "frames_ut"):
            assert getattr(traj, name).tobytes() == getattr(ref, name).tobytes(), name


def test_sample_state_reads_only_the_rows_asked_for(plateau_1024, tmp_path):
    """sample_state(t, rows=n) is the first n rows of the full call, bit for
    bit; on a mapped archive it gathers those rows alone, so its traced
    peak stays below the size of one field's n rows over all frames, which
    copying the row-sliced archive would allocate."""
    import tracemalloc

    traj, ft = plateau_1024, plateau_1024.frames_t
    ts = np.linspace(ft[10], ft[-10], 150)
    full = traj.sample_state(ts)
    for n in (3, 200, traj.grid.nr):
        part = traj.sample_state(ts, rows=n)
        assert part.u.shape == part.ut.shape == (n, ts.size)
        assert np.array_equal(part.u, full.u[:n]) and np.array_equal(part.ut, full.ut[:n])
    for n in (0, traj.grid.nr + 1):
        with pytest.raises(ValueError, match="rows must be in"):
            traj.sample_state(ts, rows=n)
    one = traj.sample_state(ts[7], rows=200)
    assert np.array_equal(one.u, full.u[:200, 7]) and np.array_equal(one.ut, full.ut[:200, 7])
    for name in ("frames_u", "frames_ut"):
        np.save(tmp_path / f"{name}.npy", getattr(traj, name))
    mapped = Trajectory(e=traj.e, grid=traj.grid, frames_t=ft,
                        **{name: np.load(tmp_path / f"{name}.npy", mmap_mode="r")
                           for name in ("frames_u", "frames_ut")},
                        center_t=ft, center_u=ft, max_u=ft, status=traj.status)
    tracemalloc.start()
    try:
        part = mapped.sample_state(ts, rows=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(part.u, full.u[:200]) and np.array_equal(part.ut, full.ut[:200])
    assert peak < traj.frames_u[:, :200].nbytes


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
    with pytest.raises(ValueError, match="grid too small"):
        grid = sw.RadialGrid(r_max=1.0, nr=64)
        initial_state(SolverConfig(e=sw.make_exponents(4.0, 3), grid=grid,
                                   family="ode_plateau", T=1.0))


def test_solver_constants_order():
    """The plateau core ends before its taper, and a configured grid reaches
    past the taper: so a config can give neither a plateau without a core
    nor an ode_plateau grid too small for its data.  The step is a CFL
    fraction of dr."""
    assert CORE_FRAC < TAPER_FRAC < R_MAX_FACTOR
    assert 0.0 < CFL < 1.0


def test_plateau_profile_shape():
    from sswave.solver import plateau_profile
    r = np.linspace(0, 2, 201)
    chi = plateau_profile(r, 1.0, 1.5)
    assert np.all(chi[r <= 1.0] == 1.0)
    assert np.all(chi[r >= 1.5] == 0.0)
    assert np.all(np.diff(chi) <= 1e-14)
