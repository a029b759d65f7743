"""Scalar functionals of a similarity profile, and the Lyapunov ladders.

Per-snapshot functionals (all integrals over the unit ball, g1 denoting
Exponents.g1 = (p+1)/(p-1)^2 and rho_eps = (1-|y|^2)^eps):

    E_eps = int (1/2 ws^2 + 1/2(|gw|^2 - (y.gw)^2) + g1 w^2 - |w|^(p+1)/(p+1)) rho_eps
    E0   = E_eps at eps = 0
    E    = E0 + alpha int w ws - (alpha N/2) int w^2,      F0 = e^(2 alpha s) E
    J_eps, G_eps, N_eps                             (weight rho_eps)
    I_eps, L_eps = N_(1/2+eps) + (1/2+eps) I_eps    (weight rho_eps/sqrt(1-|y|^2))
    M    = E_e0 + N_e0 - c J_e0 + (6/5) c int w^2 |y|^2 rho/(1-|y|^2)
           + c alpha int w^2 rho,   c = 2/(p-1) + 2/5,  e0 = EPS0 = 3/5

Series-level objects: the ladder F_k = s^(k/18) F0 + (k/18) int_s^inf
tau^((k-18)/18) F0 dtau, the weighted tails U_k, and the companions
scriptF_k = s^((k-18)/18) e^(2 alpha s) M + sigma_k U_k.  Tails beyond the
sampled horizon are estimated from the last sample's e^(2 alpha s) decay and
recorded as metadata.

Every per-snapshot integral goes through _int, which takes one snapshot or
a whole series (one value per snapshot); every selectable name is a key of
SNAPSHOT_FUNCTIONALS or a ladder family of LADDERS, and evaluate_series
evaluates any selection of them block by block over a series.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import EPS0, Exponents, FunctionalSeries, pointwise
from .ode import power_fit
from .quadrature import RuleTable, surface_area
from .similarity import ROW_BLOCK, SimilaritySnapshot
from .solver import TIME_BLOCK


def _int(snap: SimilaritySnapshot, rules: RuleTable, beta: float, weighted):
    """Sum of weighted(node weights, node samples) over the beta rule's
    nodes, one row sum per snapshot.

    The integrand applies the weights itself, so each product keeps the
    association it is written with."""
    rule = rules.rule(beta)
    return np.sum(weighted(rule.weights, snap.on(rule)), axis=-1)


def _lp1(n, e: Exponents) -> np.ndarray:
    """|w|^(p+1) at the nodes."""
    return np.abs(n.w) ** (e.p + 1.0)


def _w2(wt, n) -> np.ndarray:
    return wt * n.w ** 2


def E0(snap: SimilaritySnapshot, rules: RuleTable, e: Exponents) -> float:
    return E_eps(snap, rules, e, 0.0)


def _j0_terms(snap: SimilaritySnapshot, rules: RuleTable, e: Exponents):
    """(alpha int w ws, (alpha N / 2) int w^2), plain measure."""
    return (e.alpha * _int(snap, rules, 0.0, lambda wt, n: wt * n.w * n.ws),
            0.5 * e.alpha * e.N * _int(snap, rules, 0.0, _w2))


def E_and_F0(snap: SimilaritySnapshot, rules: RuleTable, e: Exponents):
    ww, w2 = _j0_terms(snap, rules, e)
    E = E0(snap, rules, e) + ww - w2
    return E, pointwise(math.exp, 2.0 * e.alpha * snap.s) * E


def F0(snap: SimilaritySnapshot, rules: RuleTable, e: Exponents) -> float:
    return E_and_F0(snap, rules, e)[1]


def J0(snap: SimilaritySnapshot, rules: RuleTable, e: Exponents) -> float:
    """alpha int w ws - (alpha N / 2) int w^2 (plain measure)."""
    ww, w2 = _j0_terms(snap, rules, e)
    return ww - w2


def E_eps(snap, rules, e: Exponents, eps: float) -> float:
    return _int(snap, rules, eps, lambda wt, n: wt * (
        0.5 * n.ws ** 2 + 0.5 * (n.g2 - n.ydg ** 2)
        + e.g1 * n.w ** 2 - _lp1(n, e) / (e.p + 1.0)))


def J_eps(snap, rules, e: Exponents, eps: float) -> float:
    return _int(snap, rules, eps, lambda wt, n: wt * (
        -n.w * n.ws - (0.5 * e.N + e.alpha) * n.w ** 2))


def G_eps(snap, rules, e: Exponents, eps: float) -> float:
    return _int(snap, rules, eps, lambda wt, n: wt * (
        n.g2 - _lp1(n, e) - (n.ws + n.ydg) ** 2 + 2.0 * e.g1 * n.w ** 2))


def N_eps(snap, rules, e: Exponents, eps: float) -> float:
    return _int(snap, rules, eps, lambda wt, n: wt * (n.ydg * n.ws + n.ydg ** 2))


def I_eps(snap, rules, e: Exponents, eps: float) -> float:
    """Singular-weight functional; the rule is built in rho_eps/sqrt(1-|y|^2)."""
    return _int(snap, rules, eps - 0.5, lambda wt, n: wt * (
        -n.w * (n.ws + 2.0 * n.ydg) - 0.5 * e.N * n.w ** 2))


def L_eps(snap, rules, e: Exponents, eps: float) -> float:
    return N_eps(snap, rules, e, 0.5 + eps) + (0.5 + eps) * I_eps(snap, rules, e, eps)


def singular_Lp1(snap, rules, e: Exponents, eps: float) -> float:
    return _int(snap, rules, eps - 0.5, lambda wt, n: wt * _lp1(n, e))


def M_func(snap, rules, e: Exponents) -> float:
    c = e.two_over_pm1 + 0.4
    A = _int(snap, rules, EPS0 - 1.0, lambda wt, n: wt * n.w ** 2 * n.r2)
    W3 = _int(snap, rules, EPS0, _w2)
    return (E_eps(snap, rules, e, EPS0) + N_eps(snap, rules, e, EPS0)
            - c * J_eps(snap, rules, e, EPS0) + 1.2 * c * A + c * e.alpha * W3)


def m_bound_denominator(snap, rules, e: Exponents) -> float:
    """int (ws^2 + |gw|^2 + w^2 + |w|^(p+1)) rho, the |M| bound's right side."""
    return _int(snap, rules, EPS0, lambda wt, n: wt * (
        n.ws ** 2 + n.g2 + n.w ** 2 + _lp1(n, e)))


def h_norm(snap, rules) -> float:
    """Squared norm of the natural energy space on the ball."""
    return _int(snap, rules, 0.0, lambda wt, n: wt * (
        n.ws ** 2 + n.g2 - n.ydg ** 2 + n.w ** 2))


# ---------------------------------------------------------------------------
# series assembly

def f0_series(snaps, rules, e: Exponents) -> FunctionalSeries:
    return FunctionalSeries("F0", snaps.s, F0(snaps, rules, e))


def u_integrand(snap, rules, e: Exponents) -> float:
    """int |w|^(p+1) rho/(1-|y|^2) + int w^2 rho, the U-ladder integrand."""
    return (_int(snap, rules, EPS0 - 1.0, lambda wt, n: wt * _lp1(n, e))
            + _int(snap, rules, EPS0, _w2))


def tail_trapezoid(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """int_s^smax g dtau at every sample: the trapezoid rule accumulated
    from the right, 0 at smax (+ 0.0 turns a -0.0 sum into a loop's 0.0)."""
    out = np.zeros_like(s)
    out[:-1] = np.cumsum((0.5 * (g[:-1] + g[1:]) * (s[1:] - s[:-1]))[::-1])[::-1] + 0.0
    return out


class QuadpackError(ImportError):
    """scipy's compiled QUADPACK extension could not be found or loaded."""


def _scipy_roots() -> list[str]:
    """The directories of the scipy package; find_spec of a top-level
    package imports nothing."""
    spec = importlib.util.find_spec("scipy")
    return list(spec.submodule_search_locations or ()) if spec else []


@functools.cache
def _qagie():
    """QUADPACK's qagie, the routine scipy.integrate.quad calls on [a, inf).

    The extension is loaded from its file in scipy's tree, so the
    scipy.integrate package, which imports sparse, linalg, optimize and
    special, never runs; a missing or unloadable file is a QuadpackError."""
    dirs = [os.path.join(root, "integrate") for root in _scipy_roots()]
    for path in (os.path.join(d, "_quadpack" + suffix) for d in dirs
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        if not os.path.isfile(path):
            continue
        spec = importlib.util.spec_from_file_location("scipy.integrate._quadpack", path)
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except (ImportError, OSError) as exc:
            raise QuadpackError(f"cannot load {path}: {exc}") from exc
        return module._qagie
    raise QuadpackError("scipy's QUADPACK extension _quadpack is not in "
                        + (", ".join(dirs) or "any scipy package (scipy not found)"))


def _integral_to_inf(f) -> float:
    """int_0^inf f(x) dx: qagie with quad(f, 0.0, np.inf)'s arguments.  On a
    nonzero error code quad itself repeats the same qagie call, so that its
    IntegrationWarning or exception reports the failure in quad's words; an
    exception the integrand raises propagates as it does through quad."""
    value, _abserr, ier = _qagie()(f, 0.0, 1, (), 0, 1.49e-8, 1.49e-8, 50)
    if ier:
        from scipy.integrate import quad

        value = quad(f, 0.0, np.inf)[0]
    return value


def exp_tail_factor(gamma: float, alpha: float, s_max: float) -> float:
    """int_smax^inf tau^gamma e^(2 alpha (tau - smax)) dtau by quadrature."""
    return _integral_to_inf(lambda x: (s_max + x) ** gamma * math.exp(2.0 * alpha * x))


def f_ladder(f0: FunctionalSeries, k: int, e: Exponents) -> FunctionalSeries:
    """F_k = s^(k/18) F0 + (k/18) int_s^inf tau^((k-18)/18) F0 dtau.

    The integral is truncated at the sampled horizon; the remainder is
    estimated from F0(s_max) e^(2 alpha (tau - s_max)) decay, added to the
    value and recorded in tail_bound, however short the series.
    """
    if k < 1:
        raise ValueError("ladder index k must be >= 1")
    s, vals = f0.s, f0.values
    gamma, power = e.kernel(k), e.ladder(k)
    inner = tail_trapezoid(s, s ** gamma * vals)
    fac = exp_tail_factor(gamma, e.alpha, s[-1])
    F = s ** power * vals + power * (inner + vals[-1] * fac)
    return FunctionalSeries(
        name=f"F{k}", s=s, values=F,
        tail_bound=np.full_like(s, power * (abs(vals[-1]) * fac)),
        meta={"k": k, "s_max": float(s[-1])})


def kernel_weighted(ser: FunctionalSeries, k: int, e: Exponents) -> np.ndarray:
    """s^((k-18)/18) e^(2 alpha s) times the series: U_k's integrand, scriptF_k's M term."""
    return ser.s ** e.kernel(k) * np.exp(2.0 * e.alpha * ser.s) * ser.values


def u_series(uint: FunctionalSeries, k: int, e: Exponents) -> FunctionalSeries:
    """U_k = int_s^inf tau^((k-18)/18) e^(2 alpha tau) (U integrand) dtau.

    Beyond the sampled horizon the slowly varying integrand is frozen at its
    last value and the full kernel tau^((k-18)/18) e^(2 alpha tau) is integrated out.
    """
    s = uint.s
    inner = tail_trapezoid(s, kernel_weighted(uint, k, e))
    kern = _integral_to_inf(lambda x: (s[-1] + x) ** e.kernel(k)
                            * math.exp(2.0 * e.alpha * (s[-1] + x)))
    return FunctionalSeries(
        name=f"U{k}", s=s, values=inner + uint.values[-1] * kern,
        tail_bound=np.full_like(s, abs(uint.values[-1]) * kern),
        meta={"k": k, "s_max": float(s[-1])})


def script_f_series(mser: FunctionalSeries, user: FunctionalSeries, k: int,
                    sigma: float, e: Exponents) -> FunctionalSeries:
    if not np.array_equal(mser.s, user.s):
        raise ValueError("M and U series must share the s grid")
    vals = kernel_weighted(mser, k, e) + sigma * user.values
    return FunctionalSeries(name=f"scriptF{k}", s=mser.s, values=vals,
                            tail_bound=None if user.tail_bound is None
                            else sigma * user.tail_bound,
                            meta={"k": k, "sigma": sigma})


# ---------------------------------------------------------------------------
# the name registry

# name -> value at one snapshot for the weight exponent eps (M pins EPS0)
SNAPSHOT_FUNCTIONALS = {
    "E0": lambda sn, rules, e, eps: E0(sn, rules, e),
    "E": lambda sn, rules, e, eps: E_and_F0(sn, rules, e)[0],
    "F0": lambda sn, rules, e, eps: F0(sn, rules, e),
    "J0": lambda sn, rules, e, eps: J0(sn, rules, e),
    "E_eps": lambda sn, rules, e, eps: E_eps(sn, rules, e, eps),
    "J_eps": lambda sn, rules, e, eps: J_eps(sn, rules, e, eps),
    "G_eps": lambda sn, rules, e, eps: G_eps(sn, rules, e, eps),
    "N_eps": lambda sn, rules, e, eps: N_eps(sn, rules, e, eps),
    "I_eps": lambda sn, rules, e, eps: I_eps(sn, rules, e, eps),
    "L_eps": lambda sn, rules, e, eps: L_eps(sn, rules, e, eps),
    "M": lambda sn, rules, e, eps: M_func(sn, rules, e),
    "singularLp1": lambda sn, rules, e, eps: singular_Lp1(sn, rules, e, eps),
}

# the per-snapshot values a ladder is assembled from: the registry and the
# U-ladder integrand
_PER_SNAPSHOT = {**SNAPSHOT_FUNCTIONALS,
                 "U_integrand": lambda sn, rules, e, eps: u_integrand(sn, rules, e)}


def _u(s, uint, e, k, sigma) -> FunctionalSeries:
    return u_series(FunctionalSeries("U_integrand", s, uint), k, e)


# ladder family -> (the per-snapshot values it reads, its series at index k
# from s and those values)
LADDERS = {
    "F": (("F0",), lambda s, f0, e, k, sigma: f_ladder(
        FunctionalSeries("F0", s, f0), k, e)),
    "U": (("U_integrand",), _u),
    "scriptF": (("M", "U_integrand"), lambda s, m, uint, e, k, sigma: script_f_series(
        FunctionalSeries("M", s, m), _u(s, uint, e, k, sigma), k, sigma, e)),
}

# a ladder name is its family plus "1" (k = 1) or "k" (the evaluation's k)
FUNCTIONAL_NAMES = tuple(SNAPSHOT_FUNCTIONALS) + tuple(
    family + index for family in LADDERS for index in "1k")


def _inputs(name: str) -> tuple:
    """The per-snapshot values the series of name reads."""
    return (name,) if name in SNAPSHOT_FUNCTIONALS else LADDERS[name[:-1]][0]


def evaluate_series(names, snaps, rules, e: Exponents, eps: float, k: int,
                    sigma: float) -> list:
    """The series of each functional in names over a snapshot series, at the
    weight exponent eps, the ladder index k and the scriptF weight sigma.

    The singular first component of L_eps always runs at exponent 1/2+eps,
    and M and the U/scriptF ladders pin EPS0 = 3/5.  Each per-snapshot value
    the names read (a registered functional, or the F0, M and U integrand a
    ladder is assembled from) is evaluated once, ROW_BLOCK snapshots at a
    time (snaps.blockwise): each rule is sampled on one block and dropped
    with it, so the series itself holds no sample.  The ladders are
    assembled from the whole series of their values.
    """
    for name in names:
        if name not in FUNCTIONAL_NAMES:
            raise ValueError(f"unknown functional '{name}', "
                             f"expected one of {FUNCTIONAL_NAMES}")
    if eps <= 0:
        raise ValueError("the weight exponent eps must be positive")
    if k < 1:
        raise ValueError("ladder index k must be >= 1")
    keys = list(dict.fromkeys(key for name in names for key in _inputs(name)))
    parts = snaps.blockwise(lambda block: [_PER_SNAPSHOT[key](block, rules, e, eps)
                                           for key in keys])
    values = dict(zip(keys, map(np.concatenate, zip(*parts))))
    out = []
    for name in names:
        args = [values[key] for key in _inputs(name)]
        if name in SNAPSHOT_FUNCTIONALS:
            out.append(FunctionalSeries(name, snaps.s, args[0]))
            continue
        family, index = name[:-1], name[-1]
        out.append(LADDERS[family][1](snaps.s, *args, e, 1 if index == "1" else k, sigma))
    return out


def f_family(snaps, rules, e: Exponents, k: int) -> dict:
    """F0 and M, and the ladders F_k, U_k and scriptF_k (sigma = 1)."""
    names = ["F0", "M"] + [family + "k" for family in LADDERS]
    return {ser.name: ser for ser in evaluate_series(names, snaps, rules, e, EPS0, k, 1.0)}


# ---------------------------------------------------------------------------
# physical-space quantities near the blow-up surface

def _radial_integral(vals: np.ndarray, grid, R: float, N: int) -> np.ndarray:
    """int_0^R vals(r) r^(N-1) dr on the grid along vals' last axis, one
    value per leading index; trapezoid + partial last cell.

    The partial cell keeps the r^(N-1) factor exact (sub-sampled) and only
    linearises vals, so small R << dr is not overestimated.
    """
    r = grid.nodes
    R = min(R, r[-1])
    f = vals * r ** (N - 1.0)
    i = int(np.searchsorted(r, R))
    total = np.trapezoid(f[..., :i], r[:i], axis=-1)
    if i < r.size and R > r[i - 1]:
        r0, r1 = r[i - 1], r[i]
        rs = np.linspace(r0, R, 5)
        v0 = vals[..., i - 1, None]
        vi = v0 + (vals[..., i, None] - v0) * (rs - r0) / (r1 - r0)
        total = total + np.trapezoid(vi * rs ** (N - 1.0), rs, axis=-1)
    return total


@dataclass
class TheoremReport:
    series: dict
    sup: dict
    meta: dict
    tau: np.ndarray       # T0 - t at the samples of every series
    pure_l2: np.ndarray   # scaled_l2 with its log weight divided out


def theorem_quantities(traj, e: Exponents, T0: float, q: float) -> TheoremReport:
    """Log-weighted cone quantities monitored near the blow-up surface.

    Returns series (indexed by s = -log(T0 - t)) of
      cone_gradient: |log tau|^q int_t^((t+T0)/2) int_{B(0,T0-x)} (|grad u|^2+u_t^2)
      boundary_energy: |log tau|^q (tau/2) int_{B(0,tau)} (weighted energy terms)
      scaled_l2: |log tau|^q tau^(-(p-1)N/(p+3)) int_{B(0,tau)} u^2
      lower_bound: the scaling-invariant norm combination with its empirical floor
    plus suprema and the power of scaled_l2 in tau by ode.power_fit over all
    samples, log weight removed (that pure part is returned too, with the taus).
    40 sample times run geometrically in tau from 0.45 of the first frame's
    tau to a few grid cells.  Radial center x0 = 0 (the solver is radial).
    """
    if traj.status != "blowup":
        raise ValueError("theorem quantities need a blow-up trajectory")
    if q < 0:
        raise ValueError("q must be >= 0")
    N, p = e.N, e.p
    sa = surface_area(N)
    grid, ft = traj.grid, traj.frames_t
    if np.any(np.diff(ft) < 0):
        raise ValueError("frame times must not decrease")
    # the frames before T0 are a prefix of the archive
    taus = T0 - ft
    n = int(np.count_nonzero(taus > 0))
    if n < 3:
        raise ValueError(f"{n} frames precede T0 = {T0}; the sample times need 3")
    ft, taus = ft[:n], taus[:n]

    # stay a few cells above the grid scale: the cone integral is meaningless
    # once the ball radius drops below the mesh
    tau_lo = max(taus[-1] * 4.0, 10.0 * grid.dr)
    tau_hi = taus[0] * 0.45 if taus[0] * 0.45 > tau_lo else taus[2]
    if tau_hi > grid.r_max:
        raise ValueError(f"cone of radius {tau_hi} exits the grid "
                         f"(r_max={grid.r_max})")
    targets = np.geomspace(tau_hi, tau_lo, 40)
    idx = np.unique(np.searchsorted(-taus, -targets))
    idx = idx[idx < n - 1]
    if idx.size == 0:
        raise ValueError("no sample time before the last frame")
    tau_s = taus[idx]
    log_tau = np.log(tau_s)
    logw = np.abs(log_tau) ** q

    # sample j's window [t, (t+T0)/2] holds the frames lo[j]:hi[j]; only the
    # frames from the first window's start to the last one's end are read,
    # TIME_BLOCK at a time: each block's radial gradients (np.gradient works
    # row by row) give its cone energies G(t) = int_{B(0,T0-t)}(...), the
    # sample times' rows of u, u_t and u_r are kept, and a mapped archive's
    # pages are dropped before the next block; each block is read as a plain
    # ndarray view, as np.memmap indexes through Python
    lo = np.searchsorted(ft, ft[idx], side="left")
    hi = np.searchsorted(ft, 0.5 * (ft[idx] + T0), side="right")
    start, stop = lo[0], hi[-1]
    Gt = np.empty(stop - start)
    kept = {}
    for b in range(start, stop, TIME_BLOCK):
        rows = slice(b, min(b + TIME_BLOCK, stop))
        fu, fut = np.asarray(traj.frames_u[rows]), np.asarray(traj.frames_ut[rows])
        fur = np.gradient(fu, grid.dr, axis=1)
        for k, tau in enumerate(taus[rows]):
            Gt[b - start + k] = sa * _radial_integral(fur[k] ** 2 + fut[k] ** 2,
                                                      grid, tau, N)
        for i in idx[(b <= idx) & (idx < rows.stop)]:
            kept[i] = fu[i - b].copy(), fut[i - b].copy(), fur[i - b].copy()
        traj.drop_pages()
    ft, lo, hi = ft[start:stop], lo - start, hi - start

    exps_l2 = -(p - 1.0) * N / (p + 3.0)
    cone, bound_e, sl2, lower = [], [], [], []
    for j, (i, tau_i) in enumerate(zip(idx, tau_s)):
        # (i) time integral over [t, (t+T0)/2] of the cone gradient energy;
        # a window of fewer than two frames measures nothing: NaN, not 0
        cone.append(logw[j] * float(np.trapezoid(Gt[lo[j]:hi[j]], ft[lo[j]:hi[j]]))
                    if hi[j] - lo[j] >= 2 else math.nan)
        # (ii)-(iv) on B(0, tau): the boundary-energy expression and the
        # squared norms of u, u_t and u_r
        u, ut, ur = kept[i]
        bound, u2, ut2, ur2 = _radial_integral(np.stack([
            ur ** 2 * (1.0 - np.minimum(grid.nodes / tau_i, 1.0) ** 2)
            + ut ** 2 - np.abs(u) ** (p + 1.0) / (p + 1.0),
            u ** 2, ut ** 2, ur ** 2]), grid, tau_i, N)
        bound_e.append(logw[j] * 0.5 * tau_i * sa * bound)
        l2 = sa * u2
        sl2.append(logw[j] * tau_i ** exps_l2 * l2)
        # the lower-bound combination of the three norms
        nu, nut, nur = math.sqrt(l2), math.sqrt(sa * ut2), math.sqrt(sa * ur2)
        lower.append(tau_i ** (e.two_over_pm1 - 0.5 * N) * nu
                     + tau_i ** (e.two_over_pm1 + 1.0 - 0.5 * N) * (nut + nur))

    s = -log_tau
    series = {name: FunctionalSeries(name, s, np.array(vals)) for name, vals in (
        ("cone_gradient", cone), ("boundary_energy", bound_e),
        ("scaled_l2", sl2), ("lower_bound", lower))}
    sup = {k: float(np.max(np.abs(v.values))) for k, v in series.items()}

    # slope of the pure power part of (iii): remove the known log weight
    pure = np.array(sl2) / np.where(logw > 0, logw, 1.0)
    slope = power_fit(log_tau, np.log(pure)).slope if np.all(pure > 0) else 0.0
    meta = {"q": q, "power_fit_slope": slope, "expected_power": -e.l2_rate,
            "lower_bound_floor": float(np.min(lower))}
    return TheoremReport(series=series, sup=sup, meta=meta, tau=tau_s, pure_l2=pure)
