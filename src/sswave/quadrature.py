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
from functools import cached_property

import numpy as np

from .core import sum_last


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

    @cached_property
    def r2(self) -> np.ndarray:
        return sum_last(self.points ** 2)


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


def check_rule(N: int, beta: float, n_radial: int = 48, n_angular: int = 1):
    """Raise the ValueError, or the NotImplementedError of a tensor angular
    grid beyond N = 3, that build_rule raises for parameters it builds no
    rule from; computes nothing, so scipy stays unloaded."""
    if beta <= -1.0:
        raise ValueError(f"non-integrable weight: beta={beta} <= -1")
    if n_radial < 4:
        raise ValueError(f"need n_radial >= 4, got {n_radial}")
    if N < 2:
        raise ValueError(f"need N >= 2, got N={N}")
    _check_sphere(N, n_angular)


def build_rule(N: int, beta: float, n_radial: int = 48, n_angular: int = 1) -> BallQuadrature:
    """Build a ball rule for the weight (1-|y|^2)^beta.

    The nodes are the radial rule tensored with sphere_rule(N, n_angular):
    n_angular = 1 collapses the angular directions (valid for radially
    symmetric integrands, any N >= 2); otherwise a tensor spherical grid
    is attached (N = 2 or 3 only).
    """
    check_rule(N, beta, n_radial, n_angular)
    return _ball_rule(beta, n_angular, *_radial_rule(N, beta, n_radial),
                      sphere_rule(N, n_angular))


def _ball_rule(beta: float, n_angular: int, r: np.ndarray, W: np.ndarray,
               sph: SphereRule) -> BallQuadrature:
    """The radial rule (r, W) of the weight exponent beta tensored with the
    sphere rule: the one assembly of built and stored rules alike."""
    if np.any(W <= 0) or np.any(r <= 0) or np.any(r >= 1):
        raise AssertionError("radial rule integrity violated")
    points = (r[:, None, None] * sph.points[None, :, :]).reshape(-1, sph.N)
    weights = np.outer(W, sph.weights).ravel()
    return BallQuadrature(N=sph.N, beta=float(beta), n_radial=r.size,
                          n_angular=n_angular, radial_nodes=r, radial_weights=W,
                          points=points, weights=weights)


@dataclass(frozen=True)
class SphereRule:
    """Nodes/weights on the unit sphere |y| = 1, summing to |S^(N-1)|."""

    N: int
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def _check_sphere(N: int, n_angular: int):
    if n_angular < 1:
        raise ValueError(f"need n_angular >= 1, got {n_angular}")
    if n_angular > 1 and N not in (2, 3):
        raise NotImplementedError(
            f"tensor angular grids are implemented for N in (2, 3); got N={N} "
            "with n_angular > 1 (radial collapse n_angular=1 supports any N)")


def sphere_rule(N: int, n_angular: int = 1) -> SphereRule:
    _check_sphere(N, n_angular)
    if n_angular == 1:
        pts = np.zeros((1, N))
        pts[0, 0] = 1.0
        return SphereRule(N=N, points=pts, weights=np.array([surface_area(N)]))
    if N == 2:
        theta = 2.0 * math.pi * np.arange(n_angular) / n_angular
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return SphereRule(N=2, points=pts,
                          weights=np.full(n_angular, 2.0 * math.pi / n_angular))
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
    quotient.  Accepts single points (N,) or stacks (K, N), and gradients
    with leading axes over the stack, e.g. (m, K, N) for m snapshots.
    """
    y = np.asarray(y, dtype=float)
    grad = np.asarray(grad, dtype=float)
    r2 = sum_last(y * y)
    yg = sum_last(y * grad)
    coef = np.divide(yg, r2, out=np.zeros_like(yg),
                     where=r2 >= np.finfo(float).tiny)
    grad_r = coef[..., None] * y
    return grad_r, grad - grad_r


# Read-back bounds on a stored rule, relative to the closed forms.  Over N
# 2-6, beta -0.999..30 and n_radial 4-1024 the radial rules roots_jacobi
# builds were off by at most 1.6e-15 in the zeroth moment and by
# 1.0e-16 n_radial^3 in the |y|^2 moment (the error of its weights grows
# with n); sphere rules with n_angular 1-129 summed to |S^(N-1)| within
# 5.7e-16 and put their nodes at |y| = 1 within 4.5e-16.  The bounds leave
# a margin of 6x (zeroth), 10x (|y|^2) and 17x (sphere).
MOMENT0_TOL = 1e-14
MOMENT2_TOL = 1e-15   # times n_radial**3


def ball_r2_moment(N: int, beta: float) -> float:
    """Closed form of integral_B |y|^2 (1-|y|^2)^beta dy,
    pi^(N/2) (N/2) Gamma(beta+1) / Gamma(N/2 + beta + 2)."""
    return (math.pi ** (N / 2.0) * (N / 2.0) * math.gamma(beta + 1.0)
            / math.gamma(N / 2.0 + beta + 2.0))


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * abs(want)   # False for NaN


def check_radial_rule(N: int, beta: float, n_radial: int, r: np.ndarray, W: np.ndarray):
    """ValueError unless (r, W) is an n_radial-node radial rule of the weight
    exponent beta: W > 0, 0 < r < 1, and the ball moments of 1 and |y|^2 are
    the closed forms."""
    if not (math.isfinite(beta) and beta > -1.0):
        raise ValueError(f"weight exponent {beta} is not finite and > -1")
    if r.shape != (n_radial,) or W.shape != (n_radial,):
        raise ValueError(f"the rule of beta={beta} has {r.shape} nodes and {W.shape} "
                         f"weights, not ({n_radial},)")
    if not (np.all(W > 0) and np.all(r > 0) and np.all(r < 1)):
        raise ValueError(f"the rule of beta={beta} has a weight <= 0 or a node outside (0, 1)")
    S = surface_area(N)
    try:
        want = ball_weight_volume(N, beta), ball_r2_moment(N, beta)
    except OverflowError as exc:
        raise ValueError(f"no closed-form moments at beta={beta}: {exc}") from exc
    got = S * np.sum(W), S * np.sum(W * r * r)
    if not (_close(got[0], want[0], MOMENT0_TOL)
            and _close(got[1], want[1], MOMENT2_TOL * n_radial ** 3)):
        raise ValueError(f"the rule of beta={beta} has the moments {got}, "
                         f"not the closed forms {want}")


def check_sphere_rule(N: int, n_angular: int, points: np.ndarray, weights: np.ndarray):
    """ValueError unless (points, weights) has the size of sphere_rule(N,
    n_angular), positive weights summing to |S^(N-1)| and unit nodes."""
    _check_sphere(N, n_angular)
    K = 1 if n_angular == 1 else n_angular if N == 2 else 2 * n_angular ** 2
    if points.shape != (K, N) or weights.shape != (K,):
        raise ValueError(f"the sphere rule has {points.shape} nodes and {weights.shape} "
                         f"weights, not ({K}, {N}) and ({K},)")
    if not (np.all(weights > 0) and _close(np.sum(weights), surface_area(N), MOMENT0_TOL)
            and np.all(np.abs(sum_last(points ** 2) - 1.0) <= MOMENT0_TOL)):
        raise ValueError("the sphere rule has a weight <= 0, a node off |y| = 1 "
                         "or weights that do not sum to the sphere's area")


def beta_key(beta: float) -> float:
    """The key of a weight exponent in a RuleTable: beta to 12 decimals."""
    return round(float(beta), 12)


class RuleTable:
    """Lazy cache of ball rules sharing (N, n_radial, n_angular).

    Functionals mix many weight exponents for one snapshot; the table hands
    out one immutable rule per beta so node samples can be cached per rule.
    stored() gives the radial rule of each beta held and the sphere rule as
    JSON data, and seed() takes them back into a new table, which assembles
    a seeded rule, without building it, the first time its beta is asked
    for; `built` says whether the table built a rule that it was not seeded
    with.
    """

    def __init__(self, N: int, n_radial: int = 48, n_angular: int = 1):
        self.N = N
        self.n_radial = n_radial
        self.n_angular = n_angular
        self._rules: dict = {}    # beta key -> BallQuadrature handed out
        self._radial: dict = {}   # beta key -> (nodes, weights) of every rule held
        self._sphere = None
        self.built = False

    def rule(self, beta: float) -> BallQuadrature:
        key = beta_key(beta)
        if key not in self._rules:
            if key in self._radial:   # seeded: assembled on first use
                rule = _ball_rule(key, self.n_angular, *self._radial[key], self._sphere)
            else:
                rule = build_rule(self.N, key, self.n_radial, self.n_angular)
                self._radial[key], self.built = (rule.radial_nodes, rule.radial_weights), True
            self._rules[key] = rule
        return self._rules[key]

    def release(self, beta: float):
        """Drop the ball rule of beta handed out, if any: its nodes are freed
        with the last reference to it, and its next use assembles it again
        from the radial rule held."""
        self._rules.pop(beta_key(beta), None)

    @property
    def plain(self) -> BallQuadrature:
        return self.rule(0.0)

    def sphere(self) -> SphereRule:
        if self._sphere is None:
            self._sphere = sphere_rule(self.N, self.n_angular)
            self.built = True
        return self._sphere

    def stored(self) -> dict:
        """The header (N, n_radial, n_angular), the radial rule (nodes,
        weights) of every beta held and the sphere rule, as JSON data whose
        floats read back bit for bit."""
        sph = self.sphere()
        return {"N": self.N, "n_radial": self.n_radial, "n_angular": self.n_angular,
                "radial": {repr(key): {"nodes": r.tolist(), "weights": W.tolist()}
                           for key, (r, W) in sorted(self._radial.items())},
                "sphere": {"points": sph.points.tolist(), "weights": sph.weights.tolist()}}

    def seed(self, doc: dict):
        """Take the rules of stored() data, before any rule is handed out; a
        ValueError, and no rule taken, unless its header is this table's and
        every rule passes check_radial_rule and check_sphere_rule.  It keeps
        each radial rule and the sphere rule, and assembles no ball rule."""
        header = {key: getattr(self, key) for key in ("N", "n_radial", "n_angular")}
        got = {key: doc.get(key) for key in header}
        if got != header:
            raise ValueError(f"rules for {got}, not for {header}")
        radial, sph = doc.get("radial"), doc.get("sphere")
        if not (isinstance(radial, dict) and isinstance(sph, dict)
                and all(isinstance(v, dict) for v in radial.values())):
            raise ValueError('no "radial" object of rule objects and "sphere" object')
        pts, wts = (np.array(sph.get(name), dtype=float) for name in ("points", "weights"))
        check_sphere_rule(self.N, self.n_angular, pts, wts)
        rules = {}
        for text, rule in radial.items():
            key = beta_key(float(text))
            r, W = (np.array(rule.get(name), dtype=float) for name in ("nodes", "weights"))
            check_radial_rule(self.N, key, self.n_radial, r, W)
            rules[key] = r, W
        self._radial.update(rules)
        self._sphere = SphereRule(N=self.N, points=pts, weights=wts)
