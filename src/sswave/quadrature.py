"""Quadrature on the unit ball against the degenerate weights (1-|y|^2)^beta.

Every functional downstream is an integral of a smooth expression in
(w, ds w, grad w) against one of the weights

    rho_eps = (1-|y|^2)^eps,   rho_eps/(1-|y|^2),   rho_eps/sqrt(1-|y|^2),

i.e. always (1-|y|^2)^beta for some beta > -1.  Rules are built *in the
weight*: the radial factor r^(N-1) (1-r^2)^beta is absorbed into a
Gauss-Jacobi rule after the substitution u = r^2, so singular weights are
never sampled pointwise near the boundary.  The resulting rule integrates
radially-symmetric polynomials in r^2 of degree <= 2*n_radial - 1 exactly.

Angular directions: a periodic theta grid for N = 2 (exact for trig
polynomials of degree < n_angular), Gauss-Legendre x uniform azimuth for
N = 3, and a radial-collapse mode (n_angular = 1, any N >= 2) for
radially symmetric fields.

Reductions use numpy's pairwise summation in a fixed order, so repeated
integrals of the same data are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def surface_area(N: int) -> float:
    """|S^(N-1)| = 2 pi^(N/2) / Gamma(N/2)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


def ball_volume(N: int) -> float:
    return surface_area(N) / N


def ball_weight_volume(N: int, beta: float) -> float:
    """Closed form of the weighted volume integral_B (1-|y|^2)^beta dy.

    Equals pi^(N/2) Gamma(beta+1) / Gamma(N/2 + beta + 1); used as an
    independent oracle against the built rules.
    """
    if beta <= -1.0:
        raise ValueError(f"weight exponent must be > -1, got beta={beta}")
    return math.pi ** (N / 2.0) * math.gamma(beta + 1.0) / math.gamma(N / 2.0 + beta + 1.0)


@dataclass(frozen=True)
class BallQuadrature:
    """Nodes/weights for integral_B f(y) (1-|y|^2)^beta dy."""

    N: int
    beta: float
    n_radial: int
    n_angular: int
    radial_nodes: np.ndarray = field(repr=False)
    radial_weights: np.ndarray = field(repr=False)
    points: np.ndarray = field(repr=False)   # (K, N)
    weights: np.ndarray = field(repr=False)  # (K,)

    @property
    def r2(self) -> np.ndarray:
        return np.sum(self.points ** 2, axis=1)


def _radial_rule(N: int, beta: float, n_radial: int):
    """Gauss rule for integral_0^1 g(r) r^(N-1) (1-r^2)^beta dr, exact for
    g polynomial in r^2 of degree <= 2*n_radial - 1."""
    from scipy.special import roots_jacobi

    # u = r^2 turns the weight into the Jacobi weight u^((N-2)/2) (1-u)^beta.
    x, w = roots_jacobi(n_radial, beta, (N - 2) / 2.0)
    u = 0.5 * (x + 1.0)
    r = np.sqrt(u)
    W = (2.0 ** -(beta + N / 2.0 + 1.0)) * w
    return r, W


def build_rule(N: int, beta: float, n_radial: int = 48, n_angular: int = 1) -> BallQuadrature:
    """Build a ball rule for the weight (1-|y|^2)^beta.

    The nodes are the radial rule tensored with sphere_rule(N, n_angular):
    n_angular = 1 collapses the angular directions (valid for radially
    symmetric integrands, any N >= 2); otherwise a tensor spherical grid
    is attached (N = 2 or 3 only).
    """
    if beta <= -1.0:
        raise ValueError(f"non-integrable weight: beta={beta} <= -1")
    if n_radial < 4:
        raise ValueError(f"need n_radial >= 4, got {n_radial}")
    if N < 2:
        raise ValueError(f"need N >= 2, got N={N}")
    r, W = _radial_rule(N, beta, n_radial)
    if np.any(W <= 0) or np.any(r <= 0) or np.any(r >= 1):
        raise AssertionError("radial rule integrity violated")

    sph = sphere_rule(N, n_angular)
    points = (r[:, None, None] * sph.points[None, :, :]).reshape(-1, N)
    weights = np.outer(W, sph.weights).ravel()
    return BallQuadrature(N=N, beta=float(beta), n_radial=n_radial,
                          n_angular=n_angular, radial_nodes=r, radial_weights=W,
                          points=points, weights=weights)


@dataclass(frozen=True)
class SphereRule:
    """Nodes/weights on the unit sphere |y| = 1, summing to |S^(N-1)|."""

    N: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def sphere_rule(N: int, n_angular: int = 1) -> SphereRule:
    if n_angular < 1:
        raise ValueError(f"need n_angular >= 1, got {n_angular}")
    if n_angular == 1:
        pts = np.zeros((1, N))
        pts[0, 0] = 1.0
        return SphereRule(N=N, points=pts, weights=np.array([surface_area(N)]))
    if N == 2:
        theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return SphereRule(N=2, points=pts,
                          weights=np.full(n_angular, 2.0 * math.pi / n_angular))
    if N == 3:
        from scipy.special import roots_legendre

        mu, vmu = roots_legendre(n_angular)
        n_az = 2 * n_angular
        phi = 2.0 * math.pi * np.arange(n_az) / n_az
        smu = np.sqrt(1.0 - mu ** 2)
        pts = np.empty((n_angular * n_az, 3))
        pts[:, 0] = np.outer(smu, np.cos(phi)).ravel()
        pts[:, 1] = np.outer(smu, np.sin(phi)).ravel()
        pts[:, 2] = np.outer(mu, np.ones(n_az)).ravel()
        wts = np.outer(vmu, np.full(n_az, 2.0 * math.pi / n_az)).ravel()
        return SphereRule(N=3, points=pts, weights=wts)
    raise NotImplementedError(
        f"tensor angular grids are implemented for N in (2, 3); got N={N} "
        "with n_angular > 1 (radial collapse n_angular=1 supports any N)")


def integrate(rule: BallQuadrature, f) -> float:
    """Weighted integral integral_B f(y) (1-|y|^2)^beta dy.

    f is either a callable taking the (K, N) node array or an array of node
    values.  Non-finite node values raise, naming the offending node.
    """
    vals = f(rule.points) if callable(f) else np.asarray(f, dtype=float)
    if vals.shape != rule.weights.shape:
        raise ValueError(f"got {vals.shape} values for {rule.weights.shape} nodes")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"non-finite integrand value {vals[i]} at node {i}, y={rule.points[i]}")
    return float(np.sum(rule.weights * vals))


def grad_decompose(y: np.ndarray, grad: np.ndarray):
    """Split grad into radial and angular parts at points y.

    grad_r = (y.grad/|y|^2) y,  grad_theta = grad - grad_r; at y = 0 the
    convention is grad_r = 0 (both sides of (y.grad)^2 = |y|^2 |grad_r|^2
    vanish there).  It also applies where |y|^2 underflows below the
    smallest normal float, whose few significant bits would spoil the
    quotient.  Accepts single points (N,) or stacks (K, N).
    """
    y = np.asarray(y, dtype=float)
    grad = np.asarray(grad, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[None, :]
        grad = grad[None, :]
    r2 = np.sum(y * y, axis=1)
    yg = np.sum(y * grad, axis=1)
    coef = np.divide(yg, r2, out=np.zeros_like(yg),
                     where=r2 >= np.finfo(float).tiny)
    grad_r = coef[:, None] * y
    grad_theta = grad - grad_r
    if single:
        return grad_r[0], grad_theta[0]
    return grad_r, grad_theta


class RuleTable:
    """Lazy cache of ball rules sharing (N, n_radial, n_angular).

    Functionals mix many weight exponents for one snapshot; the table hands
    out one immutable rule per beta so node samples can be cached per rule.
    """

    def __init__(self, N: int, n_radial: int = 48, n_angular: int = 1):
        self.N = N
        self.n_radial = n_radial
        self.n_angular = n_angular
        self._rules: dict = {}
        self._sphere = None

    def rule(self, beta: float) -> BallQuadrature:
        key = round(float(beta), 12)
        if key not in self._rules:
            self._rules[key] = build_rule(self.N, key, self.n_radial, self.n_angular)
        return self._rules[key]

    @property
    def plain(self) -> BallQuadrature:
        return self.rule(0.0)

    def sphere(self) -> SphereRule:
        if self._sphere is None:
            self._sphere = sphere_rule(self.N, self.n_angular)
        return self._sphere

