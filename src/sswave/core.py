"""Exponent bookkeeping, grids, and the containers shared by the whole package.

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

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Exponents:
    """Validated nonlinearity/dimension pair with derived exponents."""

    p: float
    N: int
    p_c: float
    p_S: float  # math.inf when N == 2
    alpha: float

    @property
    def two_over_pm1(self) -> float:
        return 2.0 / (self.p - 1.0)


def make_exponents(p: float, N: int) -> Exponents:
    """Build Exponents, rejecting anything outside the superconformal window.

    Raises ValueError for N < 2, p <= 1, p <= p_c (conformal/subconformal)
    or p >= p_S (Sobolev-critical and beyond).
    """
    N = int(N)
    p = float(p)
    if N < 2:
        raise ValueError(f"space dimension must be >= 2, got N={N}")
    if p <= 1.0:
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
