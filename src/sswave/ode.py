"""Blow-up solutions of u'' = |u|^(p-1) u: closed form, RK4, and rate fits.

The closed-form branch u(t) = kappa (T-t)^(-2/(p-1)) is the ground truth
for the PDE solver (spatially constant data) and for the rate-fitting
machinery; the RK4 integrator cross-validates both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Exponents, kappa_value


class FitError(RuntimeError):
    pass


@dataclass
class OdeTrajectory:
    p: float
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray            # du/dt
    status: str               # 'blowup' | 'no-blowup'


def ode_exact(e: Exponents, T: float, t):
    """Exact ODE blow-up branch: u = kappa (T-t)^(-2/(p-1)) and its rate.

    Accepts scalar or array t < T.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t >= T):
        raise ValueError(f"need t < T={T}")
    k = kappa_value(e.p)
    q = e.two_over_pm1
    tau = T - t
    u = k * tau ** -q
    ut = q * k * tau ** (-q - 1.0)
    if u.ndim == 0:
        return float(u), float(ut)
    return u, ut


def _rk4_step(u, v, dt, p):
    def f(uu):
        return abs(uu) ** (p - 1.0) * uu

    k1u, k1v = v, f(u)
    k2u, k2v = v + 0.5 * dt * k1v, f(u + 0.5 * dt * k1u)
    k3u, k3v = v + 0.5 * dt * k2v, f(u + 0.5 * dt * k2u)
    k4u, k4v = v + dt * k3v, f(u + dt * k3u)
    return (u + dt / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u),
            v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


def ode_integrate(u0: float, u1: float, e: Exponents, dt: float,
                  u_cap: float = 1e8, max_steps: int = 200_000) -> OdeTrajectory:
    """RK4 trajectory of u'' = |u|^(p-1) u, stopped at |u| >= u_cap.

    dt is the base step; near blow-up the step shrinks to
    0.01 * (kappa/|u|)^((p-1)/2), i.e. a fixed fraction of the local
    time-to-blow-up, so the cap is actually reachable.  Never hitting the
    cap within the step budget is reported as status 'no-blowup'.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if u_cap <= max(abs(u0), 1.0):
        raise ValueError("u_cap must exceed max(|u0|, 1)")
    p = e.p
    k = kappa_value(p)
    ts, us, vs = [0.0], [float(u0)], [float(u1)]
    t, u, v = 0.0, float(u0), float(u1)
    status = "no-blowup"
    for _ in range(max_steps):
        au = abs(u)
        step = dt
        if au > k:
            step = min(dt, 0.01 * (k / au) ** ((p - 1.0) / 2.0))
        u, v = _rk4_step(u, v, step, p)
        t += step
        ts.append(t)
        us.append(u)
        vs.append(v)
        if abs(u) >= u_cap:
            status = "blowup"
            break
    return OdeTrajectory(p=p, t=np.array(ts), u=np.array(us),
                         v=np.array(vs), status=status)


@dataclass
class BlowupFit:
    T_est: float
    exponent: float
    r2: float
    n_samples: int


class PowerFit(NamedTuple):
    slope: float
    sse: float
    r2: float


def power_fit(x: np.ndarray, y: np.ndarray) -> PowerFit:
    """Least-squares line y ~ a + slope x from centred sums, the one fit of
    the package: fit_blowup's T search, the rate stage's scaled-L2 power and
    the decay suite's log-slopes all read it.  r2 is 0 when y is constant."""
    dx, dy = x - x.mean(), y - y.mean()
    b = np.sum(dx * dy) / np.sum(dx * dx)
    sse = float(np.sum((dy - b * dx) ** 2))
    sst = float(np.sum(dy ** 2))
    return PowerFit(float(b), sse, 1.0 - sse / sst if sst > 0 else 0.0)


def fit_blowup(t, amp, amp_window=(1e3, None)):
    """Fit log|amp| ~ log(T - t) with T inside the fit.

    T is located by a deterministic golden-section search on the one-sided
    bracket (t_last, t_last + span]; for each candidate T the inner fit is
    power_fit of log|amp| against log(T - t).  The asymptotic window keeps only
    samples with |amp| in [amp_window[0], amp_window[1]].
    """
    t = np.asarray(t, dtype=float)
    amp = np.abs(np.asarray(amp, dtype=float))
    lo, hi = amp_window
    mask = amp >= lo
    if hi is not None:
        mask &= amp <= hi
    t, amp = t[mask], amp[mask]
    if t.size < 8:
        raise FitError(f"only {t.size} samples in the asymptotic window, need 8")
    if np.any(np.diff(amp) <= 0):
        raise FitError("fit-failed: amplitude tail is not strictly increasing")
    la = np.log(amp)
    gap = t[-1] - t[-2]
    a = t[-1] + 0.1 * gap
    span = max(2.0 * (t[-1] - t[0]), 100.0 * gap)
    b = t[-1] + span
    # golden-section minimisation of the profile SSE over T
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = power_fit(np.log(c - t), la).sse
    fd = power_fit(np.log(d - t), la).sse
    for _ in range(200):
        if b - a <= 1e-13 * max(1.0, abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = power_fit(np.log(c - t), la).sse
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = power_fit(np.log(d - t), la).sse
    T = 0.5 * (a + b)
    fit = power_fit(np.log(T - t), la)
    return BlowupFit(T_est=float(T), exponent=fit.slope, r2=fit.r2,
                     n_samples=int(t.size))
