"""Radial leapfrog solver for u_tt = u_rr + (N-1)/r u_r + |u|^(p-1) u.

Explicit second-order leapfrog in velocity (Verlet) form, so a step maps
(u, ut) -> (u, ut) directly; the u-sequence is identical to three-level
leapfrog with the nonlinearity at the current level.  dt = CFL*dr away from
blow-up; once the amplitude makes the local ODE time scale
(kappa/max|u|)^((p-1)/2) ~ T-t smaller than that, the step is capped at a
fixed fraction of it, which also makes consecutive steps advance s by a
fixed ~AMP_SAFETY, exactly what the similarity resampling needs.  Each
step evaluates the acceleration once, at the new level, into buffers held
for the whole march, and carries it into the next step.

Frames are archived at (approximately) uniform spacing in s using the
amplitude-based proxy for T-t, and the accumulated time uses compensated
summation so frame times stay meaningful down to T-t ~ 1e-12.  The archive
is held once: preallocated u and ut arrays, grown in place when full,
whose leading rows the trajectory keeps.  Interpolation reads only the
leading radial rows asked for, and drops a mapped archive's pages per block.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .core import Exponents, PhysicalState, RadialGrid, kappa_value
from .ode import BlowupFit, FitError, fit_blowup, ode_exact


class SolverError(RuntimeError):
    pass


FAMILIES = ("ode_plateau", "plateau", "gaussian", "ode_constant", "zero")
STATUSES = ("blowup", "no-blowup")
TIME_BLOCK = 64   # times interpolated at once, whose sums stay in cache
FRAME_CAPACITY = 64   # rows the archive starts with and grows by when full
CFL = 0.45            # dt = CFL*dr away from blow-up
AMP_SAFETY = 0.02     # near blow-up dt ~ AMP_SAFETY*(T-t)
CORE_FRAC = 1.15      # plateau: exact-ODE core out to CORE_FRAC*T
TAPER_FRAC = 1.4      # plateau: data vanishes beyond TAPER_FRAC*T
R_MAX_FACTOR = 1.5    # a configured grid's radius / T, beyond TAPER_FRAC
FIT_AMP_MIN = 1e3     # lower edge of the rate-fit window


@dataclass
class SolverConfig:
    e: Exponents
    grid: RadialGrid
    u_cap: float = 1e8
    max_steps: int = 2_000_000
    store_ds: float = 0.02
    family: str = "ode_plateau"   # one of FAMILIES
    T: float = 1.0                # seeded ODE blow-up time (plateau families)
    amplitude: float = 5.0        # gaussian/plateau amplitude
    width: float = 0.35           # gaussian width

    def __post_init__(self):
        if self.family == "ode_plateau" and self.grid.r_max <= TAPER_FRAC * self.T:
            raise ValueError("grid too small: need r_max > TAPER_FRAC*T")


def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def plateau_profile(r, r1, r2):
    """1 on [0, r1], 0 beyond r2, quintic smoothstep between."""
    return 1.0 - _smoothstep((r - r1) / (r2 - r1))


def initial_state(cfg: SolverConfig) -> PhysicalState:
    r = cfg.grid.nodes
    if cfg.family == "zero":
        return PhysicalState(0.0, np.zeros_like(r), np.zeros_like(r))
    if cfg.family == "ode_constant":
        u0, u1 = ode_exact(cfg.e, cfg.T, 0.0)
        return PhysicalState(0.0, np.full_like(r, u0), np.full_like(r, u1))
    if cfg.family == "ode_plateau":
        u0, u1 = ode_exact(cfg.e, cfg.T, 0.0)
        chi = plateau_profile(r, CORE_FRAC * cfg.T, TAPER_FRAC * cfg.T)
        return PhysicalState(0.0, u0 * chi, u1 * chi)
    if cfg.family == "plateau":
        chi = plateau_profile(r, CORE_FRAC * cfg.T, TAPER_FRAC * cfg.T)
        return PhysicalState(0.0, cfg.amplitude * chi, np.zeros_like(r))
    if cfg.family == "gaussian":
        u = cfg.amplitude * np.exp(-((r / cfg.width) ** 2))
        return PhysicalState(0.0, u, np.zeros_like(r))
    raise ValueError(f"unknown initial-data family '{cfg.family}'")


class _Leapfrog:
    """One march's fields u, ut and a(u), its buffers and its stencil constants.

    a holds a(u) of the current u, so each step evaluates the acceleration
    once, at the new u, and carries it into the next step.  Every array
    operation writes into a preallocated buffer, in the order of the
    expressions written in the comments, so the bits are those of
    evaluating them with fresh temporaries.
    """

    def __init__(self, state: PhysicalState, cfg: SolverConfig):
        nr, dr, e = cfg.grid.nr, cfg.grid.dr, cfg.e
        self.pm1 = e.p - 1.0
        self.two_N = e.N * 2.0
        self.dr2 = dr ** 2
        self.two_dr = 2.0 * dr
        self.coef = (e.N - 1.0) / (np.arange(1, nr - 1) * dr)
        self.u, self.ut = state.u.copy(), state.ut.copy()
        self.a = np.empty(nr)
        self.u1, self.ut1, self.a1, self.w = np.empty((4, nr))
        self.s = np.empty(nr - 2)
        self._accel(self.u, self.a)

    def _accel(self, u: np.ndarray, a: np.ndarray):
        """a = Laplacian + nonlinearity; origin by the symmetric limit N*u_rr."""
        ai, s, w = a[1:-1], self.s, self.w
        # ai = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dr**2
        np.multiply(u[1:-1], 2.0, out=s)
        np.subtract(u[2:], s, out=ai)
        ai += u[:-2]
        ai /= self.dr2
        # ai += (N - 1.0) / r * (u[2:] - u[:-2]) / (2.0 * dr)
        np.subtract(u[2:], u[:-2], out=s)
        s *= self.coef
        s /= self.two_dr
        ai += s
        a[0] = self.two_N * (u[1] - u[0]) / self.dr2
        a[-1] = 0.0
        # a += |u|**(p - 1.0) * u
        np.abs(u, out=w)
        w **= self.pm1
        w *= u
        a += w

    def step(self, dt: float) -> float:
        """Advance by dt (homogeneous Dirichlet outer boundary); returns
        max|u| at the new level."""
        u1, ut1, w = self.u1, self.ut1, self.w
        # u1 = u + dt * ut + 0.5 * dt * dt * a
        np.multiply(self.ut, dt, out=u1)
        u1 += self.u
        np.multiply(self.a, 0.5 * dt * dt, out=w)
        u1 += w
        u1[-1] = 0.0
        self._accel(u1, self.a1)
        # ut1 = ut + 0.5 * dt * (a + a1)
        np.add(self.a, self.a1, out=ut1)
        ut1 *= 0.5 * dt
        ut1 += self.ut
        ut1[-1] = 0.0
        np.abs(u1, out=w)
        amax = float(w.max())
        # stay far from the float range so |u|^p never overflows silently
        if not np.isfinite(amax) or amax > 1e40:
            raise SolverError(
                "amplitude overflow before the cap triggered; u_cap must stop the run first")
        self.u, self.u1 = u1, self.u
        self.ut, self.ut1 = ut1, self.ut
        self.a, self.a1 = self.a1, self.a
        return amax


def step(state: PhysicalState, cfg: SolverConfig, dt: float | None = None) -> PhysicalState:
    """One leapfrog (velocity form) step; homogeneous Dirichlet outer boundary."""
    if dt is None:
        dt = CFL * cfg.grid.dr
    march = _Leapfrog(state, cfg)
    march.step(dt)
    return PhysicalState(state.t + dt, march.u, march.ut)


@dataclass
class Trajectory:
    """Archived frames plus the per-step center amplitude series."""

    e: Exponents
    grid: RadialGrid
    frames_t: np.ndarray
    frames_u: np.ndarray          # (n_frames, nr)
    frames_ut: np.ndarray
    center_t: np.ndarray
    center_u: np.ndarray
    max_u: np.ndarray
    status: str                   # one of STATUSES
    T_est: float | None = None
    fit: BlowupFit | None = None

    def sample_state(self, t, rows: int | None = None) -> PhysicalState:
        """Cubic (4-point Lagrange in t) interpolation of the stored frames,
        at one time t or at each of an array of m times; u and ut are then
        (rows, m) blocks, column j being the state at t[j].  Only the first
        rows radial rows (all nr by default) are read and interpolated.
        A read-only file-mapped archive drops its pages after each block."""
        ft = self.frames_t
        if ft.size < 4:
            raise ValueError(f"4-point interpolation in t needs at least 4 frames, "
                             f"got {ft.size}")
        ts = np.atleast_1d(t)
        outside = ~((ft[0] <= ts) & (ts <= ft[-1]))
        if np.any(outside):
            raise ValueError(f"t={ts[outside][0]} outside stored range "
                             f"[{ft[0]}, {ft[-1]}]")
        n = self.grid.nr if rows is None else rows
        if not 0 < n <= self.grid.nr:
            raise ValueError(f"rows must be in [1, {self.grid.nr}], got {n}")
        i0 = np.clip(np.searchsorted(ft, ts) - 2, 0, ft.size - 4)
        u = np.empty((n, ts.size))
        ut = np.empty((n, ts.size))
        # one set of block buffers per call: the loop allocates nothing, so
        # its page faults do not depend on what the allocator did before.
        # Each frame's first n values are read by row, a view of the
        # (mapped) archive, straight into the buffer: np.take on a
        # row-sliced view would copy the whole archive, and a (block, n)
        # index array costs more than the rows it gathers
        block = min(ts.size, TIME_BLOCK)
        acc = np.empty((2, block, n))
        term = np.empty((block, n))
        for cols in (slice(i, i + TIME_BLOCK) for i in range(0, ts.size, TIME_BLOCK)):
            tb, tt = ts[cols], ft[i0[cols, None] + np.arange(4)].T
            acc_b, term_b = acc[:, :tb.size], term[:tb.size]
            acc_b.fill(0.0)
            for j in range(4):
                lam = 1.0
                for m in range(4):
                    if m != j:
                        lam *= (tb - tt[m]) / (tt[j] - tt[m])
                for a, frames in zip(acc_b, (self.frames_u, self.frames_ut)):
                    for r, k in enumerate(i0[cols] + j):
                        np.multiply(frames[k, :n], lam[r], out=term_b[r])
                    a += term_b
            u[:, cols], ut[:, cols] = acc_b[0].T, acc_b[1].T
            for f in (self.frames_u, self.frames_ut):
                if isinstance(f.base, mmap.mmap) and not f.flags.writeable:
                    f.base.madvise(mmap.MADV_DONTNEED)
        shape = (n,) + np.shape(t)
        return PhysicalState(t, u.reshape(shape), ut.reshape(shape))

    @property
    def s_max_covered(self) -> float:
        if self.T_est is None:
            raise ValueError("no blow-up time estimate")
        return -math.log(max(self.T_est - self.frames_t[-1], 1e-300))


def run_until_blowup(cfg: SolverConfig) -> Trajectory:
    """March until max|u| >= u_cap (or the step budget runs out).

    The blow-up time is fitted from the center-value series restricted to
    the asymptotic window [FIT_AMP_MIN, u_cap].
    """
    e = cfg.e
    dr = cfg.grid.dr
    dt_spatial = CFL * dr
    k = kappa_value(e.p)
    pow_ = (e.p - 1.0) / 2.0

    march = _Leapfrog(initial_state(cfg), cfg)
    t_hi, t_lo = 0.0, 0.0          # compensated time accumulator

    frames_t = [0.0]
    frames_u = np.empty((FRAME_CAPACITY, cfg.grid.nr))
    frames_ut = np.empty((FRAME_CAPACITY, cfg.grid.nr))
    frames_u[0], frames_ut[0] = march.u, march.ut
    center_t, center_u, max_u = [0.0], [float(march.u[0])], [float(np.max(np.abs(march.u)))]
    s_accum = 0.0
    status = "no-blowup"

    for _ in range(cfg.max_steps):
        amax = max_u[-1]
        dt = dt_spatial
        if amax > k:
            dt = min(dt, AMP_SAFETY * (k / amax) ** pow_)
            if dt < 1e-306:
                raise SolverError("time step underflow; lower u_cap")
        amax = march.step(dt)
        # Kahan update of t
        y = dt - t_lo
        t_new = t_hi + y
        t_lo = (t_new - t_hi) - y
        t_hi = t_new

        center_t.append(t_hi)
        center_u.append(float(march.u[0]))
        max_u.append(amax)

        tau_proxy = (k / max(amax, k)) ** pow_
        s_accum += dt / tau_proxy
        hit_cap = amax >= cfg.u_cap
        if s_accum >= cfg.store_ds or hit_cap:
            n = len(frames_t)
            # realloc remaps a large block's pages, no copy; it zero-fills new rows
            if n == frames_u.shape[0]:
                frames_u.resize((n + FRAME_CAPACITY, cfg.grid.nr))
                frames_ut.resize((n + FRAME_CAPACITY, cfg.grid.nr))
            frames_u[n], frames_ut[n] = march.u, march.ut
            frames_t.append(t_hi)
            s_accum = 0.0
        if hit_cap:
            status = "blowup"
            break

    n = len(frames_t)
    traj = Trajectory(e=e, grid=cfg.grid,
                      frames_t=np.array(frames_t),
                      frames_u=frames_u[:n],
                      frames_ut=frames_ut[:n],
                      center_t=np.array(center_t),
                      center_u=np.array(center_u),
                      max_u=np.array(max_u),
                      status=status)
    if status == "blowup":
        amp_min = min(FIT_AMP_MIN, cfg.u_cap / 100.0)
        # keep the fit clear of float64 exhaustion in T-t: beyond the
        # amplitude where T-t ~ 1e-11 * t, log(T-t) is ulp-noise dominated
        tau_floor = 1e-11 * max(t_hi, 1.0)
        amp_hi = min(cfg.u_cap * 1.01, k * tau_floor ** (-e.two_over_pm1))
        amp_hi = max(amp_hi, 100.0 * amp_min)
        try:
            traj.fit = fit_blowup(traj.center_t, np.abs(traj.center_u),
                                  amp_window=(amp_min, amp_hi))
        except FitError:
            # center did not reach the window; fall back to the max series
            traj.fit = fit_blowup(traj.center_t, traj.max_u,
                                  amp_window=(amp_min, amp_hi))
        traj.T_est = traj.fit.T_est
    return traj
