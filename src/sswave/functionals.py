"""Scalar functionals of a similarity profile, and the Lyapunov ladders.

Per-snapshot functionals (all integrals over the unit ball, g1 denoting
(p+1)/(p-1)^2 and rho_eps = (1-|y|^2)^eps):

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

Every per-snapshot integral goes through _int; every selectable name is a
key of SNAPSHOT_FUNCTIONALS or a ladder family of LADDERS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Exponents, FunctionalSeries
from .quadrature import RuleTable, surface_area
from .similarity import SimilaritySnapshot

EPS0 = 0.6   # the weight exponent 3/5 that M and the U ladder pin


def _g1(e: Exponents) -> float:
    return (e.p + 1.0) / (e.p - 1.0) ** 2


def _int(snap: SimilaritySnapshot, rules: RuleTable, beta: float, weighted) -> float:
    """Sum of weighted(node weights, node samples) over the beta rule's nodes.

    The integrand applies the weights itself, so each product keeps the
    association it is written with."""
    rule = rules.rule(beta)
    return float(np.sum(weighted(rule.weights, snap.on(rule))))


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
    return E, math.exp(2.0 * e.alpha * snap.s) * E


def F0(snap: SimilaritySnapshot, rules: RuleTable, e: Exponents) -> float:
    return E_and_F0(snap, rules, e)[1]


def J0(snap: SimilaritySnapshot, rules: RuleTable, e: Exponents) -> float:
    """alpha int w ws - (alpha N / 2) int w^2 (plain measure)."""
    ww, w2 = _j0_terms(snap, rules, e)
    return ww - w2


def E_eps(snap, rules, e: Exponents, eps: float) -> float:
    return _int(snap, rules, eps, lambda wt, n: wt * (
        0.5 * n.ws ** 2 + 0.5 * (n.g2 - n.ydg ** 2)
        + _g1(e) * n.w ** 2 - _lp1(n, e) / (e.p + 1.0)))


def J_eps(snap, rules, e: Exponents, eps: float) -> float:
    return _int(snap, rules, eps, lambda wt, n: wt * (
        -n.w * n.ws - (0.5 * e.N + e.alpha) * n.w ** 2))


def G_eps(snap, rules, e: Exponents, eps: float) -> float:
    return _int(snap, rules, eps, lambda wt, n: wt * (
        n.g2 - _lp1(n, e) - (n.ws + n.ydg) ** 2 + 2.0 * _g1(e) * n.w ** 2))


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

def series_of(snaps, fn, name: str) -> FunctionalSeries:
    s = np.array([sn.s for sn in snaps])
    vals = np.array([fn(sn) for sn in snaps])
    return FunctionalSeries(name=name, s=s, values=vals)


def f0_series(snaps, rules, e: Exponents) -> FunctionalSeries:
    return series_of(snaps, lambda sn: F0(sn, rules, e), "F0")


def m_series(snaps, rules, e: Exponents) -> FunctionalSeries:
    return series_of(snaps, lambda sn: M_func(sn, rules, e), "M")


def u_integrand_series(snaps, rules, e: Exponents) -> FunctionalSeries:
    """int |w|^(p+1) rho/(1-|y|^2) + int w^2 rho, the U-ladder integrand."""
    return series_of(snaps, lambda sn: (
        _int(sn, rules, EPS0 - 1.0, lambda wt, n: wt * _lp1(n, e))
        + _int(sn, rules, EPS0, _w2)), "U_integrand")


def tail_trapezoid(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """int_s^smax g dtau at every sample: the trapezoid rule accumulated
    from the right, 0 at smax."""
    out = np.zeros_like(s)
    for i in range(s.size - 2, -1, -1):
        out[i] = out[i + 1] + 0.5 * (g[i] + g[i + 1]) * (s[i + 1] - s[i])
    return out


def _integral_to_inf(f) -> float:
    """int_0^inf f(x) dx by scipy's quad, imported only where a tail needs it."""
    from scipy.integrate import quad

    return quad(f, 0.0, np.inf)[0]


def exp_tail_factor(gamma: float, alpha: float, s_max: float) -> float:
    """int_smax^inf tau^gamma e^(2 alpha (tau - smax)) dtau by quadrature."""
    return _integral_to_inf(lambda x: (s_max + x) ** gamma * math.exp(2.0 * alpha * x))


def required_span(e: Exponents) -> float:
    return 2.5 / abs(e.alpha)


def f_ladder(f0: FunctionalSeries, k: int, e: Exponents,
             enforce_span: bool = True) -> FunctionalSeries:
    """F_k = s^(k/18) F0 + (k/18) int_s^inf tau^((k-18)/18) F0 dtau.

    The integral is truncated at the sampled horizon; the remainder is
    estimated from F0(s_max) e^(2 alpha (tau - s_max)) decay and both added
    to the value and recorded in tail metadata.
    """
    if k < 1:
        raise ValueError("ladder index k must be >= 1")
    s, vals = f0.s, f0.values
    span = s[-1] - s[0]
    if enforce_span and span < required_span(e):
        raise ValueError(
            f"series spans {span:.3f} in s but the tail needs s_max >= "
            f"{s[0] + required_span(e):.3f} (e^(2 alpha s) domination)")
    gamma = (k - 18.0) / 18.0
    inner = tail_trapezoid(s, s ** gamma * vals)
    fac = exp_tail_factor(gamma, e.alpha, s[-1])
    F = s ** (k / 18.0) * vals + (k / 18.0) * (inner + vals[-1] * fac)
    return FunctionalSeries(
        name=f"F{k}", s=s, values=F,
        tail_bound=np.full_like(s, (k / 18.0) * (abs(vals[-1]) * fac)),
        meta={"k": k, "s_max": float(s[-1])})


def u_series(uint: FunctionalSeries, k: int, e: Exponents) -> FunctionalSeries:
    """U_k = int_s^inf tau^((k-18)/18) e^(2 alpha tau) (U integrand) dtau.

    Beyond the sampled horizon the slowly varying integrand is frozen at its
    last value and the full kernel tau^gamma e^(2 alpha tau) is integrated out.
    """
    gamma = (k - 18.0) / 18.0
    s = uint.s
    inner = tail_trapezoid(s, s ** gamma * np.exp(2.0 * e.alpha * s) * uint.values)
    kern = _integral_to_inf(lambda x: (s[-1] + x) ** gamma
                            * math.exp(2.0 * e.alpha * (s[-1] + x)))
    return FunctionalSeries(
        name=f"U{k}", s=s, values=inner + uint.values[-1] * kern,
        tail_bound=np.full_like(s, abs(uint.values[-1]) * kern),
        meta={"k": k, "s_max": float(s[-1])})


def script_f_series(mser: FunctionalSeries, user: FunctionalSeries, k: int,
                    sigma: float, e: Exponents) -> FunctionalSeries:
    if not np.array_equal(mser.s, user.s):
        raise ValueError("M and U series must share the s grid")
    gamma = (k - 18.0) / 18.0
    P = mser.s ** gamma * np.exp(2.0 * e.alpha * mser.s) * mser.values
    vals = P + sigma * user.values
    return FunctionalSeries(name=f"scriptF{k}", s=mser.s, values=vals,
                            tail_bound=None if user.tail_bound is None
                            else sigma * user.tail_bound,
                            meta={"k": k, "sigma": sigma})


def f_family(snaps, rules, e: Exponents, k: int) -> dict:
    """F0 and M, and for k >= 1 the ladder F_k with U_k and scriptF_k (sigma = 1)."""
    out = {"F0": f0_series(snaps, rules, e), "M": m_series(snaps, rules, e)}
    if k >= 1:
        out[f"F{k}"] = f_ladder(out["F0"], k, e)
        out[f"U{k}"] = u_series(u_integrand_series(snaps, rules, e), k, e)
        out[f"scriptF{k}"] = script_f_series(out["M"], out[f"U{k}"], k, 1.0, e)
    return out


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

# ladder family -> its series at index k; each builds only what it needs
# (F_k records its tail estimate in tail_bound instead of enforcing a span)
LADDERS = {
    "F": lambda snaps, rules, e, k, sigma: f_ladder(
        f0_series(snaps, rules, e), k, e, enforce_span=False),
    "U": lambda snaps, rules, e, k, sigma: u_series(
        u_integrand_series(snaps, rules, e), k, e),
    "scriptF": lambda snaps, rules, e, k, sigma: script_f_series(
        m_series(snaps, rules, e), LADDERS["U"](snaps, rules, e, k, sigma),
        k, sigma, e),
}

# a ladder name is its family plus "1" (k = 1) or "k" (the spec's k)
FUNCTIONAL_NAMES = tuple(SNAPSHOT_FUNCTIONALS) + tuple(
    family + index for family in LADDERS for index in "1k")


@dataclass(frozen=True)
class FunctionalSpec:
    """Named functional selector: which functional, at which eps and k.

    The singular first component of L_eps always runs at exponent 1/2+eps,
    and M and the U/scriptF ladders pin EPS0 = 3/5.
    """

    name: str
    eps: float = 0.6
    k: int = 1
    sigma: float = 1.0

    def __post_init__(self):
        if self.name not in FUNCTIONAL_NAMES:
            raise ValueError(f"unknown functional '{self.name}', "
                             f"expected one of {FUNCTIONAL_NAMES}")
        if self.eps <= 0:
            raise ValueError("the weight exponent eps must be positive")
        if self.k < 0:
            raise ValueError("ladder index must be >= 0")


def evaluate_series(spec: FunctionalSpec, snaps, rules, e: Exponents) -> FunctionalSeries:
    """Evaluate one named functional over a snapshot series."""
    if spec.name in SNAPSHOT_FUNCTIONALS:
        fn = SNAPSHOT_FUNCTIONALS[spec.name]
        return series_of(snaps, lambda sn: fn(sn, rules, e, spec.eps), spec.name)
    family, index = spec.name[:-1], spec.name[-1]
    k = 1 if index == "1" else max(spec.k, 1)
    return LADDERS[family](snaps, rules, e, k, spec.sigma)


# ---------------------------------------------------------------------------
# physical-space quantities near the blow-up surface

def _radial_integral(vals: np.ndarray, grid, R: float, N: int) -> float:
    """int_0^R vals(r) r^(N-1) dr on the grid, trapezoid + partial last cell.

    The partial cell keeps the r^(N-1) factor exact (sub-sampled) and only
    linearises vals, so small R << dr is not overestimated.
    """
    r = grid.nodes
    R = min(R, r[-1])
    f = vals * r ** (N - 1.0)
    i = int(np.searchsorted(r, R))
    if i == 0:
        return 0.0
    total = float(np.trapezoid(f[:i], r[:i]))
    if i < r.size and R > r[i - 1]:
        r0, r1 = r[i - 1], r[i]
        rs = np.linspace(r0, R, 5)
        vi = vals[i - 1] + (vals[i] - vals[i - 1]) * (rs - r0) / (r1 - r0)
        total += float(np.trapezoid(vi * rs ** (N - 1.0), rs))
    return total


@dataclass
class TheoremReport:
    series: dict
    sup: dict
    meta: dict


def theorem_quantities(traj, e: Exponents, T0: float, q: float) -> TheoremReport:
    """Log-weighted cone quantities monitored near the blow-up surface.

    Returns series (indexed by s = -log(T0 - t)) of
      cone_gradient: |log tau|^q int_t^((t+T0)/2) int_{B(0,T0-x)} (|grad u|^2+u_t^2)
      boundary_energy: |log tau|^q (tau/2) int_{B(0,tau)} (weighted energy terms)
      scaled_l2: |log tau|^q tau^(-(p-1)N/(p+3)) int_{B(0,tau)} u^2
      lower_bound: the scaling-invariant norm combination with its empirical floor
    plus suprema and a power fit of scaled_l2 after removing the log weight.
    40 sample times run geometrically in tau from 0.45 of the first frame's
    tau to a few grid cells.  Radial center x0 = 0 (the solver is radial).
    """
    if traj.status != "blowup":
        raise ValueError("theorem quantities need a blow-up trajectory")
    if q < 0:
        raise ValueError("q must be >= 0")
    N, p = e.N, e.p
    sa = surface_area(N)
    ft = traj.frames_t
    taus = T0 - ft
    good = taus > 0
    ft, taus = ft[good], taus[good]
    fu = traj.frames_u[good]
    fut = traj.frames_ut[good]
    dr = traj.grid.dr

    # per-frame gradient cache and the cone energy G(t) = int_{B(0,T0-t)}(...)
    fur = np.gradient(fu, dr, axis=1)
    Gt = np.array([sa * _radial_integral(fur[i] ** 2 + fut[i] ** 2, traj.grid,
                                         taus[i], N)
                   for i in range(ft.size)])

    # stay a few cells above the grid scale: the cone integral is meaningless
    # once the ball radius drops below the mesh
    tau_lo = max(taus[-1] * 4.0, 10.0 * dr)
    tau_hi = taus[0] * 0.45 if taus[0] * 0.45 > tau_lo else taus[2]
    if tau_hi > traj.grid.r_max:
        raise ValueError(f"cone of radius {tau_hi} exits the grid "
                         f"(r_max={traj.grid.r_max})")
    targets = np.geomspace(tau_hi, tau_lo, 40)
    idx = np.unique(np.searchsorted(-taus, -targets))
    idx = idx[idx < ft.size - 1]

    logw = np.abs(np.log(taus[idx])) ** q
    exps_l2 = -(p - 1.0) * N / (p + 3.0)

    cone, bound_e, sl2, lower = [], [], [], []
    for j, i in enumerate(idx):
        t_i, tau_i = ft[i], taus[i]
        # (i) time integral over [t, (t+T0)/2] of the cone gradient energy
        t_half = 0.5 * (t_i + T0)
        sel = (ft >= t_i) & (ft <= t_half)
        cone.append(logw[j] * float(np.trapezoid(Gt[sel], ft[sel])))
        # (ii) boundary-energy expression on B(0, tau)
        vals = (fur[i] ** 2 * (1.0 - np.minimum(traj.grid.nodes / tau_i, 1.0) ** 2)
                + fut[i] ** 2 - np.abs(fu[i]) ** (p + 1.0) / (p + 1.0))
        bound_e.append(logw[j] * 0.5 * tau_i * sa
                       * _radial_integral(vals, traj.grid, tau_i, N))
        # (iii) scaled L2 norm
        l2 = sa * _radial_integral(fu[i] ** 2, traj.grid, tau_i, N)
        sl2.append(logw[j] * tau_i ** exps_l2 * l2)
        # (iv) lower-bound combination
        nu = math.sqrt(l2)
        nut = math.sqrt(sa * _radial_integral(fut[i] ** 2, traj.grid, tau_i, N))
        nur = math.sqrt(sa * _radial_integral(fur[i] ** 2, traj.grid, tau_i, N))
        lower.append(tau_i ** (e.two_over_pm1 - 0.5 * N) * nu
                     + tau_i ** (e.two_over_pm1 + 1.0 - 0.5 * N) * (nut + nur))

    s = -np.log(taus[idx])
    series = {
        "cone_gradient": FunctionalSeries("cone_gradient", s, np.array(cone)),
        "boundary_energy": FunctionalSeries("boundary_energy", s, np.array(bound_e)),
        "scaled_l2": FunctionalSeries("scaled_l2", s, np.array(sl2)),
        "lower_bound": FunctionalSeries("lower_bound", s, np.array(lower)),
    }
    sup = {k: float(np.max(np.abs(v.values))) for k, v in series.items()}

    # slope of the pure power part of (iii): remove the known log weight
    tau_sel = taus[idx]
    pure = np.array(sl2) / np.where(logw > 0, logw, 1.0)
    if np.all(pure > 0):
        slope = float(np.polyfit(np.log(tau_sel), np.log(pure), 1)[0])
    else:
        slope = 0.0
    expected = 4.0 * (N / (p + 3.0) - 1.0 / (p - 1.0))
    meta = {"q": q, "power_fit_slope": slope, "expected_power": expected,
            "lower_bound_floor": float(np.min(lower))}
    return TheoremReport(series=series, sup=sup, meta=meta)
