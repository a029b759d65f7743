"""Exponent bookkeeping, grids, the containers shared by the whole package,
and its one fan-out of independent tasks over worker processes.

The object of study is the radial semilinear wave equation

    u_tt = u_rr + (N-1)/r u_r + |u|^(p-1) u

with a superconformal nonlinearity, p_c < p < p_S, where

    p_c = 1 + 4/(N-1),     p_S = 1 + 4/(N-2)  (N >= 3; unbounded for N = 2).

Blow-up solutions are analysed through the self-similar profile

    w(y, s) = (T0 - t)^(2/(p-1)) u(x0 + y (T0 - t), t),   s = -log(T0 - t),

which lives on the unit ball.  The exponent

    alpha = 2/(p-1) - (N-1)/2 < 0

controls every e^(2*alpha*s) decay weight downstream.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

EPS0 = 0.6   # the weight exponent 3/5 that M, its d/ds law, Sigma and the U ladder pin


@dataclass(frozen=True)
class Exponents:
    """Validated nonlinearity/dimension pair; each derived exponent is stated once."""

    p: float
    N: int
    p_c: float
    p_S: float  # math.inf when N == 2
    alpha: float

    @property
    def two_over_pm1(self) -> float:
        return 2.0 / (self.p - 1.0)

    @property
    def g1(self) -> float:
        """(p+1)/(p-1)^2, the profile equation's coefficient of w."""
        return (self.p + 1.0) / (self.p - 1.0) ** 2

    @property
    def lp32(self) -> float:
        """(p+3)/2, the power of |w| in the decay suite's lp32_weighted."""
        return (self.p + 3.0) / 2.0

    @property
    def l2_rate(self) -> float:
        """8 alpha/(p+3), the rate of l2_weighted's weight; -l2_rate is rate's power."""
        return 8.0 * self.alpha / (self.p + 3.0)

    def l2_gain(self, k: int) -> float:
        """2(k+1)/(9(p+3)), the power of s l2_weighted gains at index k."""
        return 2.0 * (k + 1.0) / (9.0 * (self.p + 3.0))

    def ladder(self, k: int) -> float:
        """k/18, the power of s that F0 carries in the ladder F_k."""
        return k / 18.0

    def kernel(self, k: int) -> float:
        """(k-18)/18, the power of tau in the tail kernels of F_k, U_k, scriptF_k."""
        return (k - 18.0) / 18.0


def make_exponents(p: float, N: int) -> Exponents:
    """Build Exponents, rejecting anything outside the superconformal window.

    Raises ValueError for N < 2, p <= 1 or NaN, p <= p_c
    (conformal/subconformal) or p >= p_S (Sobolev-critical and beyond).
    """
    N = int(N)
    p = float(p)
    if N < 2:
        raise ValueError(f"space dimension must be >= 2, got N={N}")
    if not p > 1.0:
        raise ValueError(f"nonlinearity power must be > 1, got p={p}")
    p_c = 1.0 + 4.0 / (N - 1)
    p_S = math.inf if N == 2 else 1.0 + 4.0 / (N - 2)
    if p <= p_c:
        raise ValueError(
            f"p={p} is not superconformal for N={N}: need p > p_c={p_c}")
    if p >= p_S:
        raise ValueError(
            f"p={p} is Sobolev-critical or beyond for N={N}: need p < p_S={p_S}")
    alpha = 2.0 / (p - 1.0) - (N - 1.0) / 2.0
    return Exponents(p=p, N=N, p_c=p_c, p_S=p_S, alpha=alpha)


def kappa_value(p: float) -> float:
    """Positive constant stationary profile: kappa^(p-1) = 2(p+1)/(p-1)^2.

    This is also the coefficient of the ODE blow-up branch
    u(t) = kappa (T-t)^(-2/(p-1)) of u'' = u^p.
    """
    if p <= 1.0:
        raise ValueError(f"need p > 1, got p={p}")
    return (2.0 * (p + 1.0) / (p - 1.0) ** 2) ** (1.0 / (p - 1.0))


def kappa(e: Exponents) -> float:
    return kappa_value(e.p)


def pointwise(fn, x):
    """fn on each float of x in Python, i.e. libm's exp, log and pow, which numpy's
    vectorised ones miss in the last bit; a scalar x gives a scalar."""
    return np.vectorize(fn, otypes=[float])(x)[()]


def sum_last(x: np.ndarray) -> np.ndarray:
    """x summed over its short last axis left to right, as np.sum adds it, but faster."""
    return functools.reduce(np.add, (x[..., d] for d in range(x.shape[-1])))


class WorkerError(RuntimeError):
    """A worker process of fan_out died before it returned its result."""


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (Linux), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fan_out(fn, tasks: list, cost=None) -> list:
    """[fn(task) for task in tasks], on min(usable_cpus(), len(tasks)) worker
    processes: a pool forks all its workers on the first submit, so never
    more than tasks.  One worker runs them in this process, with no pool.
    In a pool the tasks are submitted costliest first by cost(task), so the
    long ones do not start last; the results come back in task order.  An
    exception fn raises reaches the caller as itself; a worker killed
    mid-task (out of memory, os._exit) raises WorkerError."""
    workers = min(usable_cpus(), len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    order = list(range(len(tasks)))
    if cost is not None:
        order.sort(key=lambda i: cost(tasks[i]), reverse=True)
    try:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            done = list(ex.map(fn, [tasks[i] for i in order]))
    except BrokenProcessPool as exc:
        raise WorkerError(f"a worker process died before it returned; "
                          f"{len(tasks)} tasks on {workers} workers: {exc}") from exc
    out = [None] * len(tasks)
    for i, result in zip(order, done):
        out[i] = result
    return out


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid on [0, r_max] with the origin as node 0."""

    r_max: float
    nr: int
    nodes: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.nr < 3:
            raise ValueError(f"need at least 3 radial nodes, got nr={self.nr}")
        if self.r_max <= 0:
            raise ValueError(f"r_max must be positive, got {self.r_max}")
        nodes = np.linspace(0.0, self.r_max, self.nr)
        object.__setattr__(self, "nodes", nodes)

    @property
    def dr(self) -> float:
        return self.r_max / (self.nr - 1)


@dataclass
class PhysicalState:
    """(t, u, du/dt) sampled on a RadialGrid."""

    t: float
    u: np.ndarray
    ut: np.ndarray


@dataclass
class FunctionalSeries:
    """Named time series {(s_i, value_i)} with optional tail metadata.

    For functionals containing an integral to s = infinity, ``tail_bound``
    records the estimated remainder beyond the truncation horizon and
    ``meta['s_max']`` the horizon itself.
    """

    name: str
    s: np.ndarray
    values: np.ndarray
    tail_bound: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.s.shape != self.values.shape:
            raise ValueError("s and values must have matching shapes")
        if self.s.size >= 2 and not np.all(np.diff(self.s) > 0):
            raise ValueError(f"series '{self.name}' must be strictly increasing in s")

    def __len__(self):
        return self.s.size
