"""Self-similar change of variables, and closed-form test fields on the ball.

Two sources of profiles on the unit ball:

* the transform of a physical trajectory,
      w(y, s) = tau^(2/(p-1)) u(x0 + y tau, t),   tau = T0 - t,  s = -log tau,
  with ds w obtained from the chain rule
      ds w = -(2/(p-1)) w + tau^(2/(p-1)+1) (dt u - y . grad_x u);
  the chain-rule formula is validated against a finite-difference-in-s
  oracle in the test suite before anything downstream trusts it; u and
  dt u between the radial nodes come from RadialSpline, scipy's
  CubicSpline arithmetic in numpy, one spline over the (u | dt u) columns
  of ROW_BLOCK snapshots, transformed when their rows are read; only the
  radial rows their largest ball reads, and CONE_MARGIN rows beyond them,
  are interpolated and splined, which leaves every value the balls read
  bit for bit that of the spline over the whole grid;

* static test fields w = (1-|y|^2)^a q(y) with polynomial q (optionally
  carrying a planar angular mode via the harmonic factor Re((y1+i y2)^m)),
  whose gradient, Hessian and the Pohozaev divergence
      div(rho_eps grad w - rho_eps (y.grad w) y)
        = rho_eps (Lap w - y^T H y - (N+1+2 eps) y.grad w)
  are evaluated in closed form, so identity checks carry no numerical
  differentiation noise.

Both are SimilaritySnapshot subclasses with one fields(pts) -> (w, ds w,
grad w).  That is the only sampling path: SimilaritySnapshot.on samples
a rule through it when an integral first asks for that rule, and caches
the node samples per rule; the boundary trace is fields on a sphere rule.
A polynomial is evaluated only through PolyField.jet, one routine for its
value, gradient and Hessian, which differentiates each monomial along an
ordered list of coordinates; it reads the coordinate powers y_d^e from a
table built once per points array and dropped with it, so every field
evaluated on one rule shares that rule's table.  WeightedPoly.jet builds
all requested degrees of (1-|y|^2)^a q from one PolyField.jet, taking per
call only the powers of 1-|y|^2 those degrees need and filling the Hessian
entry by entry; WeightedPoly.value, grad and hess each take one degree of
it.
"""

from __future__ import annotations

import copy
import itertools
import math
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .core import Exponents, pointwise, sum_last
from .quadrature import BallQuadrature, SphereRule, grad_decompose


# ---------------------------------------------------------------------------
# polynomial machinery

# id(pts) -> per coordinate d, the list of pts[:, d] ** e for e = 2, 3, ...
# An entry lives exactly as long as its points array: a finalizer drops it
# when the array dies, before its id can be reused.  It holds no view of
# the array, which would keep the array alive.  Points arrays are never
# written after they are built.
_POWER_TABLES: dict = {}


def _powers(pts: np.ndarray, top) -> list:
    """powers[d][e] = pts[:, d] ** e for 1 <= e <= top[d]; e = 1 is the
    column view, e >= 2 comes from the table of pts, extended on demand."""
    table = _POWER_TABLES.get(id(pts))
    if table is None:
        table = _POWER_TABLES[id(pts)] = [[] for _ in range(pts.shape[1])]
        weakref.finalize(pts, _POWER_TABLES.pop, id(pts), None)
    for d, col in enumerate(table):
        col.extend(pts[:, d] ** e for e in range(len(col) + 2, top[d] + 1))
    return [[None, pts[:, d]] + col for d, col in enumerate(table)]


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
        """Row j: sum_k d/dy_o[0] ... d/dy_o[-1] (c_k y^k) at pts, for the
        j-th ordered coordinate tuple o in orders.

        Each y_d^e comes from the power table of pts (_powers); a term is
        its factor times its first power, times the others in place.
        """
        pts = np.atleast_2d(pts)
        top = [max((k[d] for k in self.coeffs), default=0) for d in range(self.N)]
        powers = _powers(pts, top)
        out = np.zeros((len(orders), pts.shape[0]))
        buf = np.empty(pts.shape[0])
        for row, order in zip(out, orders):
            for k, c in self.coeffs.items():
                kk = list(k)
                fac = c
                for d in order:
                    if kk[d] == 0:
                        break
                    fac = fac * kk[d]
                    kk[d] -= 1
                else:
                    term = None
                    for d, e in enumerate(kk):
                        if e == 0:
                            continue
                        if term is None:
                            term = np.multiply(powers[d][e], fac, out=buf)
                        else:
                            term *= powers[d][e]
                    row += fac if term is None else term
        return out

    def jet(self, pts: np.ndarray, degrees) -> list:
        """The value (degree 0), gradient (1) or Hessian (2) for each entry
        of degrees, all from one power table.  Each is a (K, N, ...) view of
        contiguous (orders, K) rows, so every column [:, i] or [:, i, j] is
        contiguous."""
        orders = [list(itertools.product(range(self.N), repeat=g)) for g in degrees]
        rows = self._partials(pts, [o for group in orders for o in group])
        parts = np.split(rows, np.cumsum([len(group) for group in orders])[:-1])
        return [r.T.reshape((-1,) + (self.N,) * g) for g, r in zip(degrees, parts)]

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

    def jet(self, pts: np.ndarray, degrees) -> list:
        """The value (degree 0), gradient (1) or Hessian (2) for each entry
        of degrees, from one |y|^2, the powers of 1-|y|^2 those degrees
        need and one PolyField.jet.  The value clips 1-|y|^2 at 0; the
        derivatives do not.

        With a > 0 the gradient (K, N) and Hessian (K, N, N) are C-contiguous
        arrays filled entry by entry from contiguous (K,) columns, with the
        operations in this order:
            grad_i = P_0 g_i - (2a (P_1 q)) y_i,
            H_ij = (P_0 Hq_ij - (2a P_1) ((y_i g_j + g_i y_j) + q d_ij))
                   + (4a(a-1) (P_2 q)) (y_i y_j),
        where P_k = (1-|y|^2)^(a-k), g and Hq are the gradient and Hessian
        of q, q d_ij is q * 0.0 off the diagonal, and the last term is
        absent for a = 1.  With a = 0 they are PolyField.jet's.
        """
        pts = np.atleast_2d(pts)
        a = self.a
        if a == 0.0:
            return self.poly.jet(pts, degrees)
        q, *dq = self.poly.jet(pts, range(max(degrees) + 1))
        om = 1.0 - sum_last(pts ** 2)
        out = {0: np.clip(om, 0.0, None) ** a * q} if 0 in degrees else {}
        if dq:
            P, Pm1 = om ** a, om ** (a - 1.0)
            ys = [pts[:, i].copy() for i in range(self.N)]
            gs = [dq[0][:, i] for i in range(self.N)]
            x, h = np.empty_like(q), np.empty_like(q)
        if 1 in degrees:
            G = out[1] = np.empty((q.size, self.N))
            r = Pm1 * q
            r *= 2.0 * a
            for i in range(self.N):
                np.multiply(P, gs[i], out=h)
                np.multiply(r, ys[i], out=x)
                np.subtract(h, x, out=G[:, i])
        if len(dq) == 2:
            s = (2.0 * a) * Pm1
            t = (4.0 * a * (a - 1.0)) * (om ** (a - 2.0) * q) if a != 1.0 else None
            qz = q * 0.0
            H = out[2] = np.empty((q.size, self.N, self.N))
            yy = np.empty_like(q)
            # x = s ((y_i g_j + g_i y_j) + q d_ij) and yy = t (y_i y_j) are
            # symmetric in (i, j): each is formed once for both entries
            for i, j in itertools.combinations_with_replacement(range(self.N), 2):
                np.multiply(ys[i], gs[j], out=x)
                np.multiply(gs[i], ys[j], out=h)
                x += h
                x += q if i == j else qz
                x *= s
                if t is not None:
                    np.multiply(ys[i], ys[j], out=yy)
                    yy *= t
                for u, v in {(i, j), (j, i)}:
                    np.multiply(P, dq[1][:, u, v], out=h)
                    if t is None:
                        np.subtract(h, x, out=H[:, u, v])
                    else:
                        h -= x
                        np.add(h, yy, out=H[:, u, v])
        return [out[g] for g in degrees]

    def value(self, pts: np.ndarray) -> np.ndarray:
        return self.jet(pts, (0,))[0]

    def grad(self, pts: np.ndarray) -> np.ndarray:
        return self.jet(pts, (1,))[0]

    def hess(self, pts: np.ndarray) -> np.ndarray:
        return self.jet(pts, (2,))[0]


# ---------------------------------------------------------------------------
# snapshots

ROW_BLOCK = 32   # snapshots transformed and sampled at once: bounds their memory


@dataclass
class NodeSample:
    """What the integrands read at one rule's K nodes, each computed once:
    per snapshot (ROWS; (m, K) for a series of m), and through the rule
    sampled, which the sample keeps alive, r2 = |y|^2 (K,)."""

    rule: BallQuadrature
    w: np.ndarray
    ws: np.ndarray
    ydg: np.ndarray     # y . grad w
    g2: np.ndarray      # |grad w|^2
    gr2: np.ndarray     # |radial part of grad w|^2
    gth2: np.ndarray    # |angular part of grad w|^2

    ROWS = ("w", "ws", "ydg", "g2", "gr2", "gth2")

    @property
    def r2(self) -> np.ndarray:
        return self.rule.r2


class SimilaritySnapshot:
    """Profile (w, ds w, grad w) on the unit ball at similarity time s, or a
    series of profiles when s is an (m,) array; indexing a series selects
    rows (an integer one snapshot), which start with no sample.

    A subclass supplies fields(pts) -> (w, ds w, grad w) anywhere on the
    closed ball, shaped s.shape + (K,) and s.shape + (K, N), and names its
    per-snapshot attributes in ROWS.  No rule is sampled when a snapshot is
    built: on(rule) samples a rule the first time it is asked for and caches
    the sample by id(rule); each sample holds its rule, so no other rule can
    take that id while the entry exists.  The boundary trace is the same
    evaluation on a sphere rule.  on(rule) and blockwise take a series
    ROW_BLOCK rows at a time, which a TransformSeries transforms as selected.
    """

    ROWS = ("s",)

    def __init__(self, s):
        self.s = np.asarray(s, dtype=float) if np.ndim(s) else float(s)
        self._samples: dict = {}

    def __getitem__(self, idx) -> "SimilaritySnapshot":
        if np.ndim(self.s) == 0:
            raise TypeError("a single snapshot has no rows")
        out = copy.copy(self)
        for name in self.ROWS:
            setattr(out, name, getattr(self, name)[idx])
        out._samples = {}
        return out

    def blockwise(self, fn):
        """fn of each selection of ROW_BLOCK rows of the series in turn, as
        an iterator; each block is dropped before the next is selected."""
        return map(fn, (self[i:i + ROW_BLOCK] for i in range(0, self.s.size, ROW_BLOCK)))

    def on(self, rule: BallQuadrature) -> NodeSample:
        key = id(rule)
        if key not in self._samples:
            if np.ndim(self.s) == 0:
                ns = NodeSample(rule, *self._node_fields(rule.points))
            else:
                ns = NodeSample(rule, *(np.empty((self.s.size, rule.weights.size))
                                        for _ in NodeSample.ROWS))
                for i in range(0, self.s.size, ROW_BLOCK):
                    block = self[i:i + ROW_BLOCK]._node_fields(rule.points)
                    for name, val in zip(NodeSample.ROWS, block):
                        getattr(ns, name)[i:i + ROW_BLOCK] = val
            self._samples[key] = ns
        return self._samples[key]

    def _node_fields(self, pts: np.ndarray):
        """NodeSample.ROWS at pts: w, ws, y.grad w, |grad w|^2, |grad_r|^2, |grad_th|^2."""
        w, ws, grad = self.fields(pts)
        grad_r, grad_theta = grad_decompose(pts, grad)
        return (w, ws, sum_last(pts * grad), sum_last(grad ** 2),
                sum_last(grad_r ** 2), sum_last(grad_theta ** 2))

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
    """Snapshot backed by closed forms; also exposes Hessian-level data.  Its
    w part is evaluated once per points array if the Hessian is asked first
    (_jet); the jets, like the node samples, live as long as the snapshot, so
    the identity battery makes one per check.  With an (m,) array s it is the
    series of the same field at m times; fields rejects the points of a rule
    or sphere of another dimension."""

    def __init__(self, tf: TestField, s=0.0):
        self.field_spec = tf
        self.w_part, self.ws_part = tf.parts()
        self._jets: dict = {}   # id(pts) -> (pts, w_part.jet(pts, (0, ..., top)))
        super().__init__(s)

    def _jet(self, pts: np.ndarray, top: int) -> list:
        """w_part.jet(pts, (0, ..., top)), made again only for a degree it lacks."""
        got = self._jets.get(id(pts), (pts, []))
        if len(got[1]) <= top:
            got = self._jets[id(pts)] = (pts, self.w_part.jet(pts, tuple(range(top + 1))))
        return got[1]

    def fields(self, pts: np.ndarray):
        if np.shape(pts)[-1] != self.field_spec.N:
            raise ValueError(f"rule dimension {np.shape(pts)[-1]} != "
                             f"field dimension {self.field_spec.N}")
        w, grad = self._jet(pts, 1)[:2]
        return tuple(np.broadcast_to(f, np.shape(self.s) + f.shape)
                     for f in (w, self.ws_part.value(pts), grad))

    def pohozaev_div_over_rho(self, pts: np.ndarray, eps: float) -> np.ndarray:
        """div(rho_eps grad w - rho_eps (y.grad w) y) / rho_eps, analytically.

        Equals Lap w - y^T H y - (N+1+2 eps) y.grad w; the 1/(1-|y|^2)
        factor from grad rho_eps cancels exactly against the multiplier
        structure, so no boundary-singular term ever appears.  y.grad w is
        formed here from the jet, not read from a NodeSample, so the static
        checks stay independent of the sampling path.
        """
        pts = np.atleast_2d(pts)
        grad, H = self._jet(pts, 2)[1:]
        lap = np.trace(H, axis1=1, axis2=2)
        yHy = np.einsum("ki,kij,kj->k", pts, H, pts)
        ydg = sum_last(pts * grad)
        return lap - yHy - (self.field_spec.N + 1.0 + 2.0 * eps) * ydg

    def eq_rhs(self, pts: np.ndarray, e: Exponents) -> np.ndarray:
        """What d2s w would be if (w, ds w) evolved under the profile equation,
        the Pohozaev divergence at eps = alpha plus the lower-order terms.

        Used by the frozen-flow oracle that certifies every d/ds identity
        independently of any PDE solve.
        """
        pts = np.atleast_2d(pts)
        w = self._jet(pts, 2)[0]
        ws = self.ws_part.value(pts)
        ydgs = sum_last(pts * self.ws_part.grad(pts))
        p, N, al = e.p, e.N, e.alpha
        return (self.pohozaev_div_over_rho(pts, al)
                - 2.0 * e.g1 * w + np.abs(w) ** (p - 1.0) * w
                - (N + 2.0 * al) * ws - 2.0 * ydgs)


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
    kept, not copied, unless keep cuts all coefficients to the first keep rows.

    Per interval i and column j, with h = r - x[i], the spline is
        0 + y[i] + dydx[i] h + quadratic[i] h^2 + cubic[i] h^3.
    """

    def __init__(self, x, y, keep: int | None = None):
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
        if keep is not None:   # the whole grid's rows are freed before the Hermite form
            x, y, b, slope, dxc = (a[:keep].copy() for a in (
                x, y, b, slope[:keep - 1], dxc[:keep - 1]))
            n, scratch = x.size, np.empty_like(slope)
        # Hermite form: t = (dydx[:-1] + dydx[1:] - 2 slope) / dx,
        # cubic = t / dx, quadratic = (slope - dydx[:-1]) / dx - t
        cubic = scratch
        np.add(b[:-1], b[1:], out=cubic)
        # 2 * slope is exact; taken 64 rows at a time, its temporary stays small
        for i in range(0, n - 1, 64):
            cubic[i:i + 64] -= 2 * slope[i:i + 64]
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

    def value(self, at, j) -> np.ndarray:
        """Column(s) j, broadcast against the points that locate() returned."""
        i, h, h2, h3 = at
        return (0.0 + self.y[i, j] + self.dydx[i, j] * h
                + self.quadratic[i, j] * h2 + self.cubic[i, j] * h3)

    def derivative(self, at, j) -> np.ndarray:
        """The first derivative of column(s) j at the points of locate(); its
        coefficients are (cubic, quadratic, dydx) * (3, 2, 1)."""
        i, h, h2, _h3 = at
        return (0.0 + self.dydx[i, j] + (self.quadratic[i, j] * 2.0) * h
                + (self.cubic[i, j] * 3.0) * h2)


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

# Rows of a spline's grid kept past those its values are read from.  On a
# uniform grid the end condition at the last row reaches a row k rows away
# damped by rho^k, rho = 2 - sqrt(3) (de Boor).  Cutting the grid changes
# the last row's slope by at most 4 DBL_MAX for finite data, and
# rho^CONE_MARGIN of that is below half the smallest subnormal, 2^-1075:
# a spline cut CONE_MARGIN rows past the last row read has the whole
# grid's values there, bit for bit.
CONE_MARGIN = math.ceil((math.log(4.0) + math.log(sys.float_info.max)
                         + 1075.0 * math.log(2.0)) / -math.log(2.0 - math.sqrt(3.0)))


def _cone_rows(grid, x0, tau):
    """How many leading rows of the radial grid balls of radii tau at x0 read
    (the intervals' up to the reach |x0| + max(tau), one more for the rounding
    of |x0 + tau y|) and how many a spline of them needs: CONE_MARGIN more, <= nr."""
    reach = float(np.sqrt(np.sum(np.square(x0))) + np.max(tau))
    need = int(np.searchsorted(grid.nodes, reach, side="right")) + 2
    return need, min(grid.nr, need + CONE_MARGIN)


class TransformSnapshot(SimilaritySnapshot):
    """Snapshots of physical states: (w, ds w, grad w) from columns cols (u)
    and m + cols (ut) of a spline over m states' (u | ut), at x0 + tau y."""

    ROWS = ("s", "tau", "cols")

    def __init__(self, e: Exponents, x0: np.ndarray, tau, spline: RadialSpline, cols):
        self.e = e
        self.x0 = x0
        self.tau = tau
        self.spline = spline
        self.cols = cols
        super().__init__(pointwise(lambda t: -math.log(t), tau))

    def fields(self, pts: np.ndarray):
        pts = np.atleast_2d(pts)
        tau = np.expand_dims(self.tau, (-2, -1))
        X = self.x0 + tau * pts
        R = np.sqrt(sum_last(X ** 2))
        e = self.e
        lam = np.expand_dims(pointwise(lambda t: t ** e.two_over_pm1, self.tau), -1)
        col = np.expand_dims(self.cols, -1)
        sp = self.spline
        at = sp.locate(R)
        uval = sp.value(at, col)
        urval = sp.derivative(at, col)
        utval = sp.value(at, sp.y.shape[1] // 2 + col)
        # grad_x u = u_r(R) X / R; u_r(0) = 0 for smooth radial data
        coef = np.divide(urval, R, out=np.zeros_like(R), where=R > 1e-300)
        gradx = coef[..., None] * X
        w = lam * uval
        lam_tau = lam * tau[..., 0]
        grad = lam_tau[..., None] * gradx
        ydgx = sum_last(pts * gradx)
        ws = -e.two_over_pm1 * w + lam_tau * (utval - ydgx)
        return w, ws, grad


def _ball(e: Exponents, grid, x0, t, T0: float):
    """(x0 as an N-vector, tau = T0 - t) once every t is before T0 and each
    closed ball {x0 + y tau : |y| <= 1} lies inside the radial grid."""
    tau = T0 - t
    if np.any(tau <= 0):
        raise ValueError(f"state time t={np.max(t)} is not before T0={T0}")
    x0flat = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0flat.size not in (1, e.N):
        raise ValueError(f"x0 must be scalar or length {e.N}")
    x0v = np.zeros(e.N)
    x0v[:x0flat.size] = x0flat
    if np.sqrt(np.sum(x0v ** 2)) + np.max(tau) > grid.r_max * (1.0 + 1e-12):
        raise ValueError(
            f"similarity ball of radius {np.max(tau)} at |x0|={np.linalg.norm(x0v)} "
            f"exits the grid (r_max={grid.r_max})")
    return x0v, tau


def to_similarity(state, grid, e: Exponents, x0, T0: float) -> TransformSnapshot:
    """Transform a PhysicalState into a snapshot, or a batch of states (t of
    m times, u and ut (nr, m) blocks, column j at t[j]) into a series.

    Every t must be before T0, with the closed ball {x0 + y (T0 - t) : |y| <= 1}
    inside the radial grid.  One RadialSpline over u's columns and then ut's,
    clamped to u_r(0) = 0 (smooth even data), evaluates off the nodes; it
    spans the leading rows a spline of the balls needs (_cone_rows), which
    the state may hold alone, and keeps the rows the balls read.
    """
    x0v, tau = _ball(e, grid, x0, state.t, T0)
    need, rows = _cone_rows(grid, x0v, tau)
    y = np.hstack([np.reshape(f, (np.shape(f)[0], -1))[:rows] for f in (state.u, state.ut)])
    del state   # a batch no caller holds is freed before the spline is solved
    spline = RadialSpline(grid.nodes[:rows], y, need)
    cols = np.arange(np.size(tau)).reshape(np.shape(tau))
    return TransformSnapshot(e, x0v, tau, spline, cols)


def window(traj, e: Exponents, x0, T0: float, s_grid):
    """(x0 as an N-vector, tau, t) at each t = T0 - e^(-s) of s_grid, once
    the stored frames cover every t (Trajectory.stencils), every t is before
    T0 and each closed ball {x0 + y tau : |y| <= 1} lies inside the radial
    grid; otherwise a ValueError names a time that fails.  No frame is read."""
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    t = T0 - pointwise(lambda s: math.exp(-s), s_grid)
    ft = traj.frames_t
    outside = ~((ft[0] <= t) & (t <= ft[-1]))
    if np.any(outside):
        raise ValueError(f"s={s_grid[outside][0]} needs t={t[outside][0]}, outside "
                         f"the stored range [{ft[0]}, {ft[-1]}]")
    traj.stencils(t)
    return *_ball(e, traj.grid, x0, t, T0), t


class TransformSeries(SimilaritySnapshot):
    """A trajectory's snapshots at the times t = T0 - tau that window accepted,
    holding only the times: a selection of at most ROW_BLOCK rows becomes the
    TransformSnapshot of sample_state at its times on its own _cone_rows, bit for
    bit those rows of the whole series'; on(rule) and fields go block by block."""

    ROWS = ("s", "tau", "t")

    def __init__(self, traj, e: Exponents, T0: float, x0: np.ndarray, tau, t):
        self.traj, self.e, self.T0, self.x0, self.tau, self.t = traj, e, T0, x0, tau, t
        super().__init__(pointwise(lambda t: -math.log(t), tau))

    def __getitem__(self, idx) -> SimilaritySnapshot:
        rows = super().__getitem__(idx)
        if np.size(rows.s) > ROW_BLOCK:
            return rows
        return to_similarity(rows.traj.sample_state(rows.t, rows=_cone_rows(
            rows.traj.grid, rows.x0, rows.tau)[1]), rows.traj.grid, rows.e, rows.x0, rows.T0)

    def fields(self, pts: np.ndarray):
        return tuple(map(np.concatenate, zip(*self.blockwise(lambda b: b.fields(pts)))))


def trajectory_to_w(traj, e: Exponents, x0, T0: float, s_grid) -> TransformSeries:
    """The series of time-interpolated snapshots at the requested s values,
    once window accepts them; no frame is read until its rows are."""
    return TransformSeries(traj, e, T0, *window(traj, e, x0, T0, s_grid))
