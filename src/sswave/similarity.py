"""Self-similar change of variables, and closed-form test fields on the ball.

Two sources of profiles on the unit ball:

* the transform of a physical trajectory,
      w(y, s) = tau^(2/(p-1)) u(x0 + y tau, t),   tau = T0 - t,  s = -log tau,
  with ds w obtained from the chain rule
      ds w = -(2/(p-1)) w + tau^(2/(p-1)+1) (dt u - y . grad_x u);
  the chain-rule formula is validated against a finite-difference-in-s
  oracle in the test suite before anything downstream trusts it; u and
  dt u between the radial nodes come from RadialSpline, scipy's
  CubicSpline arithmetic in numpy, batched over all snapshots of a series;

* static test fields w = (1-|y|^2)^a q(y) with polynomial q (optionally
  carrying a planar angular mode via the harmonic factor Re((y1+i y2)^m)),
  whose gradient, Hessian and the Pohozaev divergence
      div(rho_eps grad w - rho_eps (y.grad w) y)
        = rho_eps (Lap w - y^T H y - (N+1+2 eps) y.grad w)
  are evaluated in closed form, so identity checks carry no numerical
  differentiation noise.

Both are SimilaritySnapshot subclasses with one fields(pts) -> (w, ds w,
grad w).  That is the only sampling path: SimilaritySnapshot.on samples
every rule through it, the snapshot's primary rule included, and caches
the node samples per rule; the boundary trace is fields on a sphere rule.
PolyField's value, gradient and Hessian are likewise one routine, which
differentiates each monomial along an ordered list of coordinates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import Exponents, PhysicalState
from .quadrature import BallQuadrature, SphereRule, grad_decompose


# ---------------------------------------------------------------------------
# polynomial machinery

class PolyField:
    """Multivariate polynomial sum_k c_k y^k with closed-form derivatives."""

    def __init__(self, N: int, coeffs: dict):
        self.N = N
        self.coeffs = {tuple(int(i) for i in k): float(c)
                       for k, c in coeffs.items() if c != 0.0}
        for k in self.coeffs:
            if len(k) != N or any(i < 0 for i in k):
                raise ValueError(f"bad multi-index {k} for N={N}")

    @property
    def degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)

    def _partials(self, pts: np.ndarray, orders) -> np.ndarray:
        """Column j: sum_k d/dy_o[0] ... d/dy_o[-1] (c_k y^k) at pts, for the
        j-th ordered coordinate tuple o in orders.

        Each y_d^e is taken from a power table built once for the call.
        """
        pts = np.atleast_2d(pts)
        K = pts.shape[0]
        top = [max((k[d] for k in self.coeffs), default=0) for d in range(self.N)]
        powers = [[None] + [pts[:, d] ** e for e in range(1, top[d] + 1)]
                  for d in range(self.N)]
        out = np.zeros((K, len(orders)))
        for j, order in enumerate(orders):
            for k, c in self.coeffs.items():
                kk = list(k)
                fac = c
                for d in order:
                    if kk[d] == 0:
                        break
                    fac = fac * kk[d]
                    kk[d] -= 1
                else:
                    term = np.full(K, fac)
                    for d, e in enumerate(kk):
                        if e:
                            term = term * powers[d][e]
                    out[:, j] += term
        return out

    def jet(self, pts: np.ndarray, degrees) -> list:
        """The value (degree 0), gradient (1) or Hessian (2) for each entry
        of degrees, all from one power table."""
        orders = [list(itertools.product(range(self.N), repeat=g)) for g in degrees]
        cols = self._partials(pts, [o for group in orders for o in group])
        parts = np.split(cols, np.cumsum([len(group) for group in orders])[:-1], axis=1)
        return [c.reshape((-1,) + (self.N,) * g) for g, c in zip(degrees, parts)]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.jet(pts, (0,))[0]

    def grad(self, pts: np.ndarray) -> np.ndarray:
        return self.jet(pts, (1,))[0]

    def hess(self, pts: np.ndarray) -> np.ndarray:
        return self.jet(pts, (2,))[0]

    def times(self, other: "PolyField") -> "PolyField":
        coeffs: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                coeffs[k] = coeffs.get(k, 0.0) + c1 * c2
        return PolyField(self.N, coeffs)


def harmonic_poly(m: int) -> PolyField:
    """Re((y1 + i y2)^m) as a planar polynomial; r^m cos(m theta)."""
    return PolyField(2, {(m - j, j): math.comb(m, j) * (-1.0) ** (j // 2)
                         for j in range(0, m + 1, 2)})


class WeightedPoly:
    """w(y) = (1-|y|^2)^a q(y) with analytic gradient and Hessian.

    Values (and with a >= 1, gradients) extend continuously to |y| = 1;
    Hessians are only requested at interior nodes.
    """

    def __init__(self, N: int, a: float, poly: PolyField):
        if a < 0:
            raise ValueError(f"boundary exponent must be >= 0, got a={a}")
        self.N = N
        self.a = float(a)
        self.poly = poly

    def value(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        om = 1.0 - np.sum(pts ** 2, axis=1)
        P = np.ones_like(om) if self.a == 0.0 else np.clip(om, 0.0, None) ** self.a
        return P * self.poly(pts)

    def grad(self, pts: np.ndarray) -> np.ndarray:
        a = self.a
        if a == 0.0:
            return self.poly.grad(pts)
        pts = np.atleast_2d(pts)
        om = 1.0 - np.sum(pts ** 2, axis=1)
        q, gq = self.poly.jet(pts, (0, 1))
        P = om ** a
        return P[:, None] * gq - (2.0 * a) * (om ** (a - 1.0) * q)[:, None] * pts

    def hess(self, pts: np.ndarray) -> np.ndarray:
        a = self.a
        if a == 0.0:
            return self.poly.hess(pts)
        pts = np.atleast_2d(pts)
        N = pts.shape[1]
        om = 1.0 - np.sum(pts ** 2, axis=1)
        q, gq, Hq = self.poly.jet(pts, (0, 1, 2))
        P = om ** a
        Pm1 = om ** (a - 1.0)
        eye = np.eye(N)
        out = P[:, None, None] * Hq
        out -= (2.0 * a) * Pm1[:, None, None] * (
            pts[:, :, None] * gq[:, None, :] + gq[:, :, None] * pts[:, None, :]
            + q[:, None, None] * eye[None, :, :])
        if a != 1.0:
            Pm2 = om ** (a - 2.0)
            out += (4.0 * a * (a - 1.0)) * (Pm2 * q)[:, None, None] * (
                pts[:, :, None] * pts[:, None, :])
        return out


# ---------------------------------------------------------------------------
# snapshots

@dataclass
class NodeSample:
    """Snapshot fields sampled at one rule's nodes."""

    points: np.ndarray
    w: np.ndarray
    ws: np.ndarray
    grad: np.ndarray
    grad_r: np.ndarray
    grad_theta: np.ndarray

    @property
    def r2(self) -> np.ndarray:
        return np.sum(self.points ** 2, axis=1)

    @property
    def ydg(self) -> np.ndarray:
        return np.sum(self.points * self.grad, axis=1)

    @property
    def g2(self) -> np.ndarray:
        return np.sum(self.grad ** 2, axis=1)

    @property
    def gr2(self) -> np.ndarray:
        return np.sum(self.grad_r ** 2, axis=1)

    @property
    def gth2(self) -> np.ndarray:
        return np.sum(self.grad_theta ** 2, axis=1)


class SimilaritySnapshot:
    """Profile (w, ds w, grad w) on the unit ball at similarity time s.

    A subclass supplies fields(pts) -> (w, ds w, grad w) anywhere on the
    closed ball.  Every rule's node samples, the primary rule's included,
    come from it through on(), which caches them per rule; the boundary
    trace is the same evaluation on a sphere rule.
    """

    def __init__(self, s: float, rule: BallQuadrature):
        self.s = float(s)
        self.rule = rule
        self._samples: dict = {}
        self.on(rule)

    @property
    def base(self) -> NodeSample:
        return self._samples[id(self.rule)]

    @property
    def w(self):
        return self.base.w

    @property
    def ws(self):
        return self.base.ws

    @property
    def grad(self):
        return self.base.grad

    @property
    def grad_r(self):
        return self.base.grad_r

    @property
    def grad_theta(self):
        return self.base.grad_theta

    def on(self, rule: BallQuadrature) -> NodeSample:
        key = id(rule)
        if key not in self._samples:
            w, ws, grad = self.fields(rule.points)
            grad_r, grad_theta = grad_decompose(rule.points, grad)
            self._samples[key] = NodeSample(rule.points, w, ws, grad,
                                            grad_r, grad_theta)
        return self._samples[key]

    def boundary(self, sph: SphereRule):
        """(w, ds w) traces on |y| = 1."""
        return self.fields(sph.points)[:2]


# ---------------------------------------------------------------------------
# static test fields

@dataclass
class TestField:
    """w = (1-|y|^2)^a q(y), optionally with a planar cos(m theta) mode.

    The angular mode folds the harmonic polynomial r^m cos(m theta) into q,
    keeping everything polynomial (hence smooth at the origin).  An optional
    second component plays the role of ds w for static lemma checks; without
    one, ds w is the zero polynomial.
    """

    N: int
    a: float
    poly: PolyField
    m: int = 0
    ws_a: float = 0.0
    ws_poly: PolyField | None = None

    __test__ = False  # not a pytest class, despite the name

    def __post_init__(self):
        if self.poly.degree > 6:
            raise ValueError(f"polynomial degree {self.poly.degree} > 6")
        if self.m and self.N != 2:
            raise ValueError("angular modes are planar (N = 2) only")

    def parts(self):
        q = self.poly.times(harmonic_poly(self.m)) if self.m else self.poly
        w_part = WeightedPoly(self.N, self.a, q)
        if self.ws_poly is None:
            return w_part, WeightedPoly(self.N, 0.0, PolyField(self.N, {}))
        return w_part, WeightedPoly(self.N, self.ws_a, self.ws_poly)


class StaticSnapshot(SimilaritySnapshot):
    """Snapshot backed by closed forms; also exposes Hessian-level data."""

    def __init__(self, tf: TestField, rule: BallQuadrature, s: float = 0.0):
        self.field_spec = tf
        self.w_part, self.ws_part = tf.parts()
        super().__init__(s, rule)

    def fields(self, pts: np.ndarray):
        return self.w_part.value(pts), self.ws_part.value(pts), self.w_part.grad(pts)

    def hess(self, pts: np.ndarray) -> np.ndarray:
        return self.w_part.hess(pts)

    def ws_grad(self, pts: np.ndarray) -> np.ndarray:
        return self.ws_part.grad(pts)

    def pohozaev_div_over_rho(self, pts: np.ndarray, eps: float) -> np.ndarray:
        """div(rho_eps grad w - rho_eps (y.grad w) y) / rho_eps, analytically.

        Equals Lap w - y^T H y - (N+1+2 eps) y.grad w; the 1/(1-|y|^2)
        factor from grad rho_eps cancels exactly against the multiplier
        structure, so no boundary-singular term ever appears.
        """
        pts = np.atleast_2d(pts)
        H = self.hess(pts)
        grad = self.w_part.grad(pts)
        lap = np.trace(H, axis1=1, axis2=2)
        yHy = np.einsum("ki,kij,kj->k", pts, H, pts)
        ydg = np.sum(pts * grad, axis=1)
        return lap - yHy - (self.field_spec.N + 1.0 + 2.0 * eps) * ydg

    def eq_rhs(self, pts: np.ndarray, e: Exponents) -> np.ndarray:
        """What d2s w would be if (w, ds w) evolved under the profile equation,
        the Pohozaev divergence at eps = alpha plus the lower-order terms.

        Used by the frozen-flow oracle that certifies every d/ds identity
        independently of any PDE solve.
        """
        pts = np.atleast_2d(pts)
        w = self.w_part.value(pts)
        ws = self.ws_part.value(pts)
        ydgs = np.sum(pts * self.ws_grad(pts), axis=1)
        p, N, al = e.p, e.N, e.alpha
        g1 = (p + 1.0) / (p - 1.0) ** 2
        return (self.pohozaev_div_over_rho(pts, al)
                - 2.0 * g1 * w + np.abs(w) ** (p - 1.0) * w
                - (N + 2.0 * al) * ws - 2.0 * ydgs)


def make_test_field(tf: TestField, rule: BallQuadrature, s: float = 0.0) -> StaticSnapshot:
    """Instantiate a test field as a snapshot with analytic derivatives."""
    if rule.N != tf.N:
        raise ValueError(f"rule dimension {rule.N} != field dimension {tf.N}")
    return StaticSnapshot(tf, rule, s=s)


def constant_field(N: int, value: float) -> TestField:
    return TestField(N=N, a=0.0, poly=PolyField(N, {(0,) * N: value}))


# ---------------------------------------------------------------------------
# radial splines

class RadialSpline:
    """Cubic splines through every column of y (n, m) on the nodes x, with
    slope 0 at x[0] and not-a-knot at x[-1].

    The arithmetic is that of scipy's CubicSpline(x, y, bc_type=((1, 0.0),
    "not-a-knot")) column by column, so coefficients and values agree bit
    for bit: the node slopes solve the tridiagonal system as LAPACK dgtsv
    does, row interchanges included, and evaluation is PPoly's power sum.
    The interchanges and elimination factors depend only on x, so they are
    found once; each elimination step then runs over all m columns.  y is
    kept, not copied.

    Per interval i and column j, with h = r - x[i], the spline is
        0 + y[i] + dydx[i] h + quadratic[i] h^2 + cubic[i] h^3.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = x.size
        if n < 3 or y.ndim != 2 or y.shape[0] != n:
            raise ValueError(f"need >= 3 nodes and y of shape ({n}, m), "
                             f"got y of shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("spline data must contain only finite values")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("spline nodes must be strictly increasing")
        dxc = dx[:, None]
        # slope holds the chord slopes until it becomes the quadratic block;
        # scratch is the right-hand side's workspace, then the cubic block
        slope = np.diff(y, axis=0)
        slope /= dxc
        scratch = np.empty_like(slope)
        b = np.empty_like(y)
        b[0] = 0.0
        np.multiply(dxc[1:], slope[:-1], out=b[1:-1])
        np.multiply(dxc[:-1], slope[1:], out=scratch[:-1])
        b[1:-1] += scratch[:-1]
        b[1:-1] *= 3
        d = x[-1] - x[-3]
        b[-1] = dx[-1] ** 2 * slope[-2]
        np.multiply((2 * d + dx[-1]) * dx[-2], slope[-1], out=scratch[0])
        b[-1] += scratch[0]
        b[-1] /= d
        _solve_tridiagonal(dx, d, b, scratch[0])
        # Hermite form: t = (dydx[:-1] + dydx[1:] - 2 slope) / dx,
        # cubic = t / dx, quadratic = (slope - dydx[:-1]) / dx - t
        cubic = scratch
        np.add(b[:-1], b[1:], out=cubic)
        cubic -= 2 * slope
        cubic /= dxc
        slope -= b[:-1]
        slope /= dxc
        slope -= cubic
        cubic /= dxc
        self.x = x
        self.y = y
        self.dydx = b
        self.quadratic = slope
        self.cubic = cubic

    def locate(self, r: np.ndarray):
        """(interval, h, h^2, h^3) at each r, extrapolating past both ends:
        interval i holds x[i] <= r < x[i+1], the last one also r >= x[-1]."""
        i = self.x[1:-1].searchsorted(r, side="right")
        h = r - self.x[i]
        h2 = h * h
        return i, h, h2, h2 * h

    def value(self, at, j: int) -> np.ndarray:
        """Column j at the points that locate() returned."""
        i, h, h2, h3 = at
        return (0.0 + self.y[:, j][i] + self.dydx[:, j][i] * h
                + self.quadratic[:, j][i] * h2 + self.cubic[:, j][i] * h3)

    def derivative(self, at, j: int) -> np.ndarray:
        """The first derivative of column j at the points of locate(); its
        coefficients are (cubic, quadratic, dydx) * (3, 2, 1)."""
        i, h, h2, _h3 = at
        return (0.0 + self.dydx[:, j][i] + (self.quadratic[:, j][i] * 2.0) * h
                + (self.cubic[:, j][i] * 3.0) * h2)


def _solve_tridiagonal(dx: np.ndarray, d_end: float, b: np.ndarray, tmp: np.ndarray):
    """Overwrite b (n, m) with the node slopes, by dgtsv's Gaussian
    elimination with row interchanges.

    The matrix has diagonal (1, 2 (dx[i-1] + dx[i]), ..., dx[-2]), upper
    diagonal (0, dx[0], ..., dx[-3]) and lower diagonal (dx[1], ...,
    dx[-1], d_end); tmp is one scratch row of b.  The matrix entries are
    Python floats, whose arithmetic is the same IEEE double arithmetic.
    """
    n = b.shape[0]
    dx = dx.tolist()
    diag = [1.0] + [2 * (dx[i - 1] + dx[i]) for i in range(1, n - 1)] + [dx[-2]]
    up = [0.0] + dx[:n - 2]
    low = dx[1:n - 1] + [float(d_end)]
    rows = list(b)
    for i in range(n - 1):
        if abs(diag[i]) >= abs(low[i]):
            if diag[i] == 0.0:
                raise ValueError(f"singular spline system at row {i}")
            fact = low[i] / diag[i]
            diag[i + 1] = diag[i + 1] - fact * up[i]
            np.multiply(rows[i], fact, out=tmp)
            rows[i + 1] -= tmp
            low[i] = 0.0
        else:
            fact = diag[i] / low[i]
            diag[i] = low[i]
            temp = diag[i + 1]
            diag[i + 1] = up[i] - fact * temp
            if i < n - 2:
                low[i] = up[i + 1]
                up[i + 1] = -fact * low[i]
            up[i] = temp
            tmp[...] = rows[i]
            rows[i][...] = rows[i + 1]
            rows[i + 1] *= fact
            np.subtract(tmp, rows[i + 1], out=rows[i + 1])
    if diag[n - 1] == 0.0:
        raise ValueError(f"singular spline system at row {n - 1}")
    rows[n - 1] /= diag[n - 1]
    np.multiply(rows[n - 1], up[n - 2], out=tmp)
    rows[n - 2] -= tmp
    rows[n - 2] /= diag[n - 2]
    for i in range(n - 3, -1, -1):
        row = rows[i]
        np.multiply(rows[i + 1], up[i], out=tmp)
        row -= tmp
        np.multiply(rows[i + 2], low[i], out=tmp)
        row -= tmp
        row /= diag[i]


# ---------------------------------------------------------------------------
# transform of physical data

class TransformSnapshot(SimilaritySnapshot):
    """Snapshot of one physical state: (w, ds w, grad w) from column col of
    the radial (u, ut) splines, evaluated at x0 + tau y."""

    def __init__(self, e: Exponents, x0: np.ndarray, tau: float,
                 u_spline: RadialSpline, ut_spline: RadialSpline, col: int,
                 rule: BallQuadrature):
        self.e = e
        self.x0 = x0
        self.tau = tau
        self.u_spline = u_spline
        self.ut_spline = ut_spline
        self.col = col
        super().__init__(-math.log(tau), rule)

    def fields(self, pts: np.ndarray):
        pts = np.atleast_2d(pts)
        X = self.x0[None, :] + self.tau * pts
        R = np.sqrt(np.sum(X ** 2, axis=1))
        e = self.e
        lam = self.tau ** e.two_over_pm1
        at = self.u_spline.locate(R)   # the two splines share their nodes
        uval = self.u_spline.value(at, self.col)
        urval = self.u_spline.derivative(at, self.col)
        utval = self.ut_spline.value(at, self.col)
        # grad_x u = u_r(R) X / R; u_r(0) = 0 for smooth radial data
        coef = np.divide(urval, R, out=np.zeros_like(R), where=R > 1e-300)
        gradx = coef[:, None] * X
        w = lam * uval
        grad = (lam * self.tau) * gradx
        ydgx = np.sum(pts * gradx, axis=1)
        ws = -e.two_over_pm1 * w + (lam * self.tau) * (utval - ydgx)
        return w, ws, grad


def _ball(e: Exponents, grid, x0, t: float, T0: float):
    """(x0 as an N-vector, tau = T0 - t) once t < T0 and the closed ball
    {x0 + y tau : |y| <= 1} lies inside the radial grid."""
    tau = float(T0 - t)
    if tau <= 0:
        raise ValueError(f"state time t={t} is not before T0={T0}")
    x0v = np.zeros(e.N)
    x0flat = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0flat.size == 1:
        x0v[0] = x0flat[0]
    elif x0flat.size == e.N:
        x0v = x0flat.astype(float)
    else:
        raise ValueError(f"x0 must be scalar or length {e.N}")
    if np.sqrt(np.sum(x0v ** 2)) + tau > grid.r_max * (1.0 + 1e-12):
        raise ValueError(
            f"similarity ball of radius {tau} at |x0|={np.linalg.norm(x0v)} "
            f"exits the grid (r_max={grid.r_max})")
    return x0v, tau


def to_similarity(state, grid, e: Exponents, x0, T0: float, rule: BallQuadrature):
    """Transform one PhysicalState into a SimilaritySnapshot, or a batch of
    states into a list of snapshots.

    A batch is a PhysicalState whose t holds m times and whose u and ut are
    (nr, m) blocks, column j being the state at t[j]; one state is a batch
    of one.  Every t must be before T0, with the closed ball
    {x0 + y (T0 - t) : |y| <= 1} inside the radial grid.  One RadialSpline
    over u's columns and one over ut's carry the off-node evaluation; the
    left end is clamped to u_r(0) = 0 (smooth even data).
    """
    times = state.t if np.ndim(state.t) else [state.t]
    balls = [_ball(e, grid, x0, t, T0) for t in times]
    u_spline = RadialSpline(grid.nodes, np.reshape(state.u, (grid.nr, -1)))
    ut_spline = RadialSpline(grid.nodes, np.reshape(state.ut, (grid.nr, -1)))
    snaps = [TransformSnapshot(e, x0v, tau, u_spline, ut_spline, j, rule)
             for j, (x0v, tau) in enumerate(balls)]
    return snaps if np.ndim(state.t) else snaps[0]


def trajectory_to_w(traj, e: Exponents, x0, T0: float, s_grid,
                    rule: BallQuadrature) -> list[SimilaritySnapshot]:
    """Time-interpolated snapshots at the requested s values.

    Every T0 - e^(-s) must be bracketed by stored trajectory frames
    (cubic interpolation in t); otherwise the uncovered s is reported.
    The states are sampled into the columns of one batch for to_similarity.
    """
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    batch = PhysicalState(np.empty(s_grid.size), np.empty((traj.grid.nr, s_grid.size)),
                          np.empty((traj.grid.nr, s_grid.size)))
    for j, s in enumerate(s_grid):
        t = T0 - math.exp(-s)
        try:
            state = traj.sample_state(t)
        except ValueError as exc:
            raise ValueError(f"s={s} requires t={t}, outside coverage: {exc}") from exc
        batch.t[j] = state.t
        batch.u[:, j] = state.u
        batch.ut[:, j] = state.ut
    return to_similarity(batch, traj.grid, e, x0, T0, rule)
