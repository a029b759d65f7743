"""Numerical certification of the identities, dissipation laws and trends.

Static identities (Pohozaev) are checked on closed-form test fields; the
d/ds lemmas on snapshot series from solver trajectories, with the left side
a difference of the functional and the right side an independent
quadrature/trapezoid assembly of the stated integrands.  The two sides are
deliberately disjoint code paths: everything on the right comes from the
raw node integrals of _raw below, never from functionals.py (except where a
lemma's right side literally contains the functional itself, e.g. the
-2 alpha int F dtau terms).

Every implemented d/ds law is re-derived from the profile equation by
parts and certified in the test suite by the frozen-flow Gateaux oracle,
one integrand table (_FLOW_TABLE) on one Gateaux sample of a closed-form
field (differentiate under the integral with d2s w eliminated via the
equation), so each identity stands on its own rather than on transcription.
"""

from __future__ import annotations

import functools
import json
import math
from importlib import resources
from types import SimpleNamespace

import numpy as np

from .core import Exponents, FunctionalSeries, fan_out, pointwise, sum_last
from .ode import power_fit
from .quadrature import RuleTable, beta_key
from .similarity import PolyField, StaticSnapshot, TestField
from . import functionals as fu

FLOOR = 1e-14
POHOZAEV_TOL = 1e-8   # polynomial integrands: both sides agree to rounding
MIN_SAMPLES = 3       # fewer samples show no trend, no monotonicity, no residual
LEMMA_SPAN = 1.0      # the lemma suite checks the first unit of s of a series

LEMMA_NAMES = ("dE_eps", "dJ_eps", "dN_eps", "dI_eps", "dL_eps",
               "dM", "dF0", "dF1", "dJ0")

RATE_VERDICTS = ("slope_within_10pct", "scaled_l2_decreasing_last_decade",
                 "cone_gradient_bounded")


class Report(dict):
    """One check's record, the dict cmd_verify writes; perfbench reads r.passed."""
    passed = property(lambda self: self["passed"])


def report(name, lhs, rhs, tol, context="", scale=None) -> Report:
    absr = abs(lhs - rhs)
    sc = max(abs(lhs), abs(rhs), FLOOR if scale is None else scale, FLOOR)
    rel = absr / sc
    return Report(name=name, lhs=float(lhs), rhs=float(rhs), abs_residual=float(absr),
                  rel_residual=float(rel), tolerance=float(tol), passed=bool(rel <= tol),
                  context=context)


# ---------------------------------------------------------------------------
# raw node integrals (the verifier's own quadrature path)

EPS0 = 0.6   # the weight exponent 3/5 that M's d/ds law and Sigma pin


# the raw path's integrands, as functions of the node samples n and exponents e
_INTEGRANDS = {
    "ws2": lambda n, e: n.ws ** 2,
    "ws2_r2": lambda n, e: n.ws ** 2 * n.r2,
    "ws_ydg": lambda n, e: n.ws * n.ydg,
    "g2": lambda n, e: n.g2,
    "g2_tangential": lambda n, e: n.g2 - n.ydg ** 2,
    "gr2": lambda n, e: n.gr2,
    "gth2": lambda n, e: n.gth2,
    "gth2_r2": lambda n, e: n.gth2 * n.r2,
    "ydg2": lambda n, e: n.ydg ** 2,
    "w2": lambda n, e: n.w ** 2,
    "w2_r2": lambda n, e: n.w ** 2 * n.r2,
    "w2_1mr2": lambda n, e: n.w ** 2 * (1.0 - n.r2),
    "w_ws": lambda n, e: n.w * n.ws,
    "w_ws_r2": lambda n, e: n.w * n.ws * n.r2,
    "w_ydg": lambda n, e: n.w * n.ydg,
    "lp1": lambda n, e: np.abs(n.w) ** (e.p + 1.0),
    "lp32": lambda n, e: np.abs(n.w) ** ((e.p + 3.0) / 2.0),
}

# raw integral name -> (integrand, weight exponent beta as an offset from
# eps; None is the plain measure beta = 0)
_RAW_TABLE = {
    # rho_eps/(1-|y|^2), smooth |y|^2 integrands on the eps-1 rule
    "P1": ("ws2_r2", -1.0), "Q1": ("gth2_r2", -1.0), "R1": ("lp1", -1.0),
    "W4": ("w_ws_r2", -1.0), "A": ("w2_r2", -1.0),
    # rho_eps
    "P2": ("ws2", 0.0), "P3": ("ws_ydg", 0.0), "R2": ("lp1", 0.0),
    "S1": ("g2_tangential", 0.0), "S2": ("g2", 0.0), "S3": ("ydg2", 0.0),
    "W1": ("w_ydg", 0.0), "W2": ("w_ws", 0.0), "W3": ("w2", 0.0),
    # rho_eps / sqrt(1-|y|^2) (the eps-1/2 rule)
    "Ph": ("ws2", -0.5), "P3h": ("ws_ydg", -0.5), "Thh": ("gth2", -0.5),
    "Rh": ("lp1", -0.5), "W1h": ("w_ydg", -0.5), "Bh": ("w2", -0.5),
    "W2h": ("w_ws", -0.5),
    # rho_eps sqrt(1-|y|^2)
    "Hr": ("gr2", 0.5),
    # plain measure
    "P2p": ("ws2", None), "S1p": ("g2_tangential", None), "R2p": ("lp1", None),
    "W2p": ("w_ws", None), "W3p": ("w2", None), "P3p": ("ws_ydg", None),
}


def _raw_int(snap, rules: RuleTable, e: Exponents | None, integrand: str, beta: float):
    """The integrand against the beta rule, one row sum per snapshot; e may be
    None for an integrand that reads no exponent."""
    rule = rules.rule(beta)
    return np.sum(rule.weights * _INTEGRANDS[integrand](snap.on(rule), e), axis=-1)


def _raw(snap, rules: RuleTable, e: Exponents | None, eps: float, name: str):
    """The raw integral name of _RAW_TABLE for a snapshot or series at eps,
    summed from the node samples the snapshot caches."""
    integrand, shift = _RAW_TABLE[name]
    return _raw_int(snap, rules, e, integrand, 0.0 if shift is None else eps + shift)


def _Ifun(snap, rules: RuleTable, e: Exponents, eps: float):
    """I_eps rebuilt on the raw path."""
    raw = functools.partial(_raw, snap, rules, e, eps)
    return -raw("W2h") - 2.0 * raw("W1h") - 0.5 * e.N * raw("Bh")


def _Gfun(snap, rules: RuleTable, e: Exponents, eps: float):
    """G_eps rebuilt on the raw path."""
    raw = functools.partial(_raw, snap, rules, e, eps)
    return (raw("S2") - raw("R2")
            - (raw("P2") + 2.0 * raw("P3") + raw("S3"))
            + 2.0 * e.g1 * raw("W3"))


def _boundary(snap, rules: RuleTable):
    """(sphere weights, w, ds w) on |y| = 1."""
    sph = rules.sphere()
    bw, bws = snap.boundary(sph)
    return sph.weights, bw, bws


# ---------------------------------------------------------------------------
# instantaneous d/ds right-hand sides

def lemma_rhs(name: str, snap, rules, e: Exponents, eps: float) -> float:
    """Instantaneous d/ds of the named functional per its dissipation law."""
    al, N, p = e.alpha, e.N, e.p
    raw = functools.partial(_raw, snap, rules, e, eps)

    if name == "dE_eps":
        return (-2.0 * eps * raw("P1") - 2.0 * al * raw("P2")
                + (2.0 * eps - 2.0 * al) * raw("P3"))

    if name == "dJ_eps":
        return (_Gfun(snap, rules, e, eps) + 4.0 * eps * raw("W4")
                + (2.0 * al - 2.0 * eps) * raw("W1")
                - 2.0 * N * raw("W2"))

    if name == "dN_eps":
        return (-2.0 * al * (raw("P3") + raw("S3"))
                - eps * raw("Q1") + (2.0 * eps / (p + 1.0)) * raw("R1")
                - 0.5 * N * raw("P2") + eps * raw("P1")
                + 0.5 * N * raw("S1") - raw("S2")
                - 2.0 * e.g1 * raw("W1")
                - (N + 2.0 * eps) / (p + 1.0) * raw("R2")
                - N * raw("P3") + eps * raw("S3"))

    if name == "dI_eps":
        return (-2.0 * al * _Ifun(snap, rules, e, eps) - raw("Ph") + raw("Thh")
                + raw("Hr") - raw("Rh")
                + (1.0 - 2.0 * eps - 2.0 * al) * raw("W1h")
                + (2.0 * e.g1 - al * N) * raw("Bh")
                - 2.0 * raw("P3h"))

    if name == "dL_eps":
        return (lemma_rhs("dN_eps", snap, rules, e, 0.5 + eps)
                + (0.5 + eps) * lemma_rhs("dI_eps", snap, rules, e, eps))

    if name == "dM":
        # composite route: M = E + N - c J + (6/5) c A + c alpha B at EPS0
        c = e.two_over_pm1 + 0.4
        raw0 = functools.partial(_raw, snap, rules, e, EPS0)
        return (lemma_rhs("dE_eps", snap, rules, e, EPS0)
                + lemma_rhs("dN_eps", snap, rules, e, EPS0)
                - c * lemma_rhs("dJ_eps", snap, rules, e, EPS0)
                + 2.4 * c * raw0("W4") + 2.0 * c * al * raw0("W2"))

    if name == "dF0":
        wts, bw, bws = _boundary(snap, rules)
        surf = np.sum(wts * (bws + al * bw) ** 2, axis=-1)
        fac = pointwise(math.exp, 2.0 * al * snap.s)
        return fac * (-surf + al * (p - 1.0) / (p + 1.0) * raw("R2p"))

    if name == "dF1":
        return (pointwise(lambda s: s ** (1.0 / 18.0), snap.s)
                * lemma_rhs("dF0", snap, rules, e, eps))

    if name == "dJ0":
        wts, bw, bws = _boundary(snap, rules)
        return (al * raw("P2p") - al * raw("S1p") + al * raw("R2p")
                - al ** 2 * np.sum(wts * bw ** 2, axis=-1)
                + (al ** 2 * N - 2.0 * al * e.g1) * raw("W3p")
                - 2.0 * al * np.sum(wts * bw * bws, axis=-1)
                + 2.0 * al * raw("P3p")
                - 2.0 * al ** 2 * raw("W2p"))

    raise ValueError(f"unknown lemma '{name}', expected one of {LEMMA_NAMES}")


def dm_collected_rhs(snap, rules, e: Exponents) -> float:
    """Single-expression form of dM, for a coefficient-level cross-check
    of the composite assembly in lemma_rhs:

    dM = -2 alpha M - (3/5) Q1 - (9/10) S2 + 6/(5(p+1)) R1
         + (2p+1)/(5(p+1)) R2 + Sigma,  all at EPS0 = 3/5.
    """
    al, p = e.alpha, e.p
    raw = functools.partial(_raw, snap, rules, e, EPS0)
    M = fu.M_func(snap, rules, e)
    sig = sum(sigma_parts(snap, rules, e).values())
    return (-2.0 * al * M - 0.6 * raw("Q1") - 0.9 * raw("S2")
            + 6.0 / (5.0 * (p + 1.0)) * raw("R1")
            + (2.0 * p + 1.0) / (5.0 * (p + 1.0)) * raw("R2") + sig)


def sigma_parts(snap, rules, e: Exponents) -> dict:
    """The junk terms of dM's dissipation budget, grouped as in
    dm_collected_rhs; each piece is absorbable by the gradient/L2 terms."""
    al, N = e.alpha, e.N
    c = e.two_over_pm1 + 0.4
    raw = functools.partial(_raw, snap, rules, e, EPS0)
    return {
        "Sigma1": (-0.6 * raw("P1") + 0.6 * raw("S3") + 1.2 * raw("P3")),
        "Sigma2": (-0.1 * raw("P2") - 0.1 * raw("S3") - 0.2 * raw("P3")),
        "Sigma3": ((-2.0 * e.g1 - c * (2.0 * al - 1.2)) * raw("W1")
                   + (-2.0 * c * e.g1 + 2.0 * al * e.g1 + al * c * N
                      + 4.0 * c * al ** 2) * raw("W3")),
        "Sigma4": 2.4 * al * c * raw("A"),
        "Sigma5": 2.0 * c * (N + 2.0 * al) * raw("W2"),
    }


# ---------------------------------------------------------------------------
# lemma functional values (left sides)

def in_window(snaps, window):
    """The rows of a series with s in window = (lo, hi)."""
    lo, hi = window
    return snaps[(snaps.s >= lo - 1e-12) & (snaps.s <= hi + 1e-12)]


def check_derivative_lemma(name: str, snaps, rules, e: Exponents,
                           eps: float = 0.6, tol: float = math.inf) -> Report:
    """Functional difference across the series vs trapezoid of the stated RHS;
    the functional reads its values from the node samples the RHS made.

    `snaps` must sample [s, s'] densely (trapezoid-in-s); tolerances are
    resolution-indexed, so by default the report only records the residual
    and the convergence study in the tests asserts the order.  A series
    with fewer than MIN_SAMPLES snapshots has no residual (NaN) and fails.
    """
    if name not in LEMMA_NAMES:
        raise ValueError(f"unknown lemma '{name}'")
    s = snaps.s
    if s.size < MIN_SAMPLES:
        return report(name, math.nan, math.nan, tol, context=f"n={s.size}")

    rhs_vals = lemma_rhs(name, snaps, rules, e, eps)
    rhs = float(np.trapezoid(rhs_vals, s))

    # the functional X whose d/ds law is dX on the series (dF1: F1's ladder)
    vals = (fu.f_ladder(fu.f0_series(snaps, rules, e), 1, e).values if name == "dF1"
            else fu.SNAPSHOT_FUNCTIONALS[name[1:]](snaps, rules, e, eps))
    lhs = vals[-1] - vals[0]
    scale = float(np.max(np.abs(rhs_vals))) * max(s[-1] - s[0], 1.0)
    return report(name, lhs, rhs, tol,
                  context=f"window=[{s[0]:.3f},{s[-1]:.3f}] eps={eps} n={s.size}",
                  scale=scale)


def lemma_suite(snaps, rules, e: Exponents, eps: float, ds: float,
                dr: float) -> list[dict]:
    """Every d/ds lemma over the series' first unit [s0, min(s0 + LEMMA_SPAN,
    s_end)], to a tolerance indexed by the snapshot spacing ds and the
    radial step dr, relative to the RHS scale."""
    s = snaps.s
    tol = 200.0 * (ds ** 2 + (dr / math.exp(-s[0])) ** 2)
    window = in_window(snaps, (s[0], min(s[0] + LEMMA_SPAN, s[-1])))
    return [check_derivative_lemma(name, window, rules, e, eps=eps, tol=tol)
            for name in LEMMA_NAMES]


# ---------------------------------------------------------------------------
# static Pohozaev identities (appendix lemmas)

# Pohozaev left side -> (sign, node-sample row, beta as in _RAW_TABLE) of its
# integral sign * int row div(rho_eps gw - rho_eps (y.gw) y) / rho_eps, with
# the field's analytic divergence, which reads the Hessian
_POHOZAEV_LHS = {"A": (1.0, "ydg", 0.0), "E": (-1.0, "w", -0.5)}

# every integral the two checks read at one eps, the left sides first, so
# that a rule's jets are made with the Hessian once
_POHOZAEV_READS = ("A", "E", "Q1", "S1", "S2", "S3", "Thh", "Hr", "W1h")


class PohozaevSums(dict):
    """The integrals of _POHOZAEV_READS for one test field, by (name, eps), as
    pohozaev_sums fills them in rule by rule."""

    def __init__(self, tf: TestField):
        super().__init__()
        self.field_spec = tf


def _pohozaev(field, rules: RuleTable, eps: float, name: str):
    """Integral name of _POHOZAEV_READS at eps: read from PohozaevSums, or
    summed on a StaticSnapshot's rule (a left side or a _RAW_TABLE entry)."""
    if isinstance(field, PohozaevSums):
        return field[name, eps]
    if name not in _POHOZAEV_LHS:
        return _raw(field, rules, None, eps, name)
    sign, row, shift = _POHOZAEV_LHS[name]
    rule = rules.rule(eps + shift)
    dv = field.pohozaev_div_over_rho(rule.points, eps)   # the Hessian first
    return sign * float(np.sum(rule.weights * getattr(field.on(rule), row) * dv))


def _context(field, eps: float) -> str:
    tf = field.field_spec
    return f"N={tf.N} eps={eps} a={tf.a} m={tf.m}"


def check_pohozaev_A(field, eps: float, rules: RuleTable) -> Report:
    """int y.gw div(rho_eps gw - rho_eps (y.gw) y) dy against its four-term
    expansion, on a StaticSnapshot or the PohozaevSums of its field."""
    val = functools.partial(_pohozaev, field, rules, eps)
    lhs = val("A")
    rhs = (-eps * val("Q1") - eps * val("S3")
           + 0.5 * field.field_spec.N * val("S1") - val("S2"))
    return report("pohozaev_A", lhs, rhs, POHOZAEV_TOL, context=_context(field, eps))


def check_pohozaev_E(field, eps: float, rules: RuleTable) -> Report:
    """-int div(rho_eps gw - rho_eps (y.gw) y) w / sqrt(1-|y|^2) dy against
    the angular/radial split with the singular weights, on a StaticSnapshot
    or the PohozaevSums of its field."""
    val = functools.partial(_pohozaev, field, rules, eps)
    lhs = val("E")
    rhs = val("Thh") + val("Hr") + val("W1h")
    return report("pohozaev_E", lhs, rhs, POHOZAEV_TOL, context=_context(field, eps))


def random_test_field(N: int, rng: np.random.Generator,
                      with_ws: bool = False) -> TestField:
    """Seeded random field with integer boundary exponent, so that every
    identity integrand is polynomial and the rules integrate it exactly."""
    a = float(rng.integers(0, 4))
    deg = int(rng.integers(1, 4))
    coeffs = {}
    for _ in range(rng.integers(2, 6)):
        k = tuple(int(v) for v in rng.integers(0, deg + 1, size=N))
        if sum(k) > 6:
            continue
        coeffs[k] = float(rng.uniform(-1.0, 1.0))
    coeffs.setdefault((0,) * N, float(rng.uniform(0.2, 1.0)))
    m = int(rng.integers(0, 4)) if N == 2 else 0
    ws_poly = None
    ws_a = 0.0
    if with_ws:
        ws_coeffs = {}
        for _ in range(rng.integers(1, 4)):
            k = tuple(int(v) for v in rng.integers(0, 3, size=N))
            ws_coeffs[k] = float(rng.uniform(-1.0, 1.0))
        ws_poly = PolyField(N, ws_coeffs)
        ws_a = float(rng.integers(0, 3))
    return TestField(N=N, a=a, poly=PolyField(N, coeffs), m=m,
                     ws_a=ws_a, ws_poly=ws_poly)


def identity_rules(N: int) -> RuleTable:
    """The battery's rules for dimension N, seeded from the RuleTable.stored()
    data per N in identity_rules.json, so that the battery loads no scipy."""
    rules = RuleTable(N, n_radial=48, n_angular=64 if N == 2 else 20)
    store = resources.files(__package__).joinpath("identity_rules.json").read_text()
    for doc in filter(lambda doc: doc["N"] == N, json.loads(store)):
        rules.seed(doc)
    return rules


IDENTITY_EPS = (0.6, 1.0, 1.1)   # the weight exponents of identity_suite


def pohozaev_sums(fields: list, epss, rules: RuleTable) -> list[PohozaevSums]:
    """The PohozaevSums of each test field at every eps of epss, summed rule
    by rule: each rule is assembled once, carries every (name, eps) that
    reads it and is released before the next; each field gets one
    StaticSnapshot per rule, which is dropped with its jets and node samples
    before the next field's is made."""
    reads: dict = {}   # beta key -> the (name, eps) summed on its rule
    for name in _POHOZAEV_READS:
        shift = {**_RAW_TABLE, **_POHOZAEV_LHS}[name][-1]
        for eps in epss:
            reads.setdefault(beta_key(eps + shift), []).append((name, eps))
    sums = [PohozaevSums(tf) for tf in fields]
    for beta, named in reads.items():
        for out in sums:
            snap = StaticSnapshot(out.field_spec)
            out.update({(name, eps): _pohozaev(snap, rules, eps, name) for name, eps in named})
        rules.release(beta)
    return sums


def identity_group(task: tuple) -> list[list[Report]]:
    """Both appendix identities at each eps of a task (N, epss, n_fields,
    seed, first), on a seeded random suite of n_fields test fields from
    field first on (groups split at first give the whole's): one list of
    reports per eps, field-major and A before E.  Every integral is summed
    first, rule by rule (pohozaev_sums), so a field is evaluated once on a
    rule that several eps read, and then each report is made by its check."""
    N, epss, n_fields, seed, first = task
    rules, rng = identity_rules(N), np.random.default_rng(seed)
    fields = [random_test_field(N, rng) for _ in range(n_fields)][first:]
    sums = pohozaev_sums(fields, epss, rules)
    return [[check(field, eps, rules) for field in sums
             for check in (check_pohozaev_A, check_pohozaev_E)] for eps in epss]


def run_identity_battery(N: int, eps: float, n_fields: int = 50,
                         seed: int = 0, first: int = 0) -> list[Report]:
    """Both appendix identities at one eps on n_fields seeded test fields,
    from field first on: identity_group's reports at eps alone."""
    return identity_group((N, (eps,), n_fields, seed, first))[0]


def identity_suite(seed: int) -> list[dict]:
    """Both Pohozaev identities on 10 seeded fields for each N in (2, 3) and
    eps in IDENTITY_EPS, N outer, then eps, then field, on one worker
    process per usable CPU.  Each task spans the three eps of a slice of
    fields, so the 9 rules they read are each evaluated once per field: an
    N = 3 field costs about ten N = 2 ones, so N = 3 is two tasks of 5
    fields, submitted first, and N = 2 one task of 10."""
    tasks = [(2, IDENTITY_EPS, 10, seed, 0), (3, IDENTITY_EPS, 5, seed, 0),
             (3, IDENTITY_EPS, 10, seed, 5)]
    done = fan_out(identity_group, tasks, cost=lambda task: task[0])
    reports = []
    for N in (2, 3):
        parts = [part for task, part in zip(tasks, done) if task[0] == N]
        reports += [r for i in range(len(IDENTITY_EPS)) for part in parts for r in part[i]]
    return reports


# ---------------------------------------------------------------------------
# frozen-flow (Gateaux) oracle: certifies the d/ds identities without a solve

# flow integral name -> (beta as in _RAW_TABLE, integrand of the Gateaux sample g)
_FLOW_TABLE = {
    "dE_eps": (0.0, lambda g, e: g.ws * g.v + g.gdot - g.ydg * g.ydgs
               + g.w * g.ws * (2.0 * e.g1 - np.abs(g.w) ** (e.p - 1.0))),
    "dJ_eps": (0.0, lambda g, e: -(g.ws ** 2) - g.w * g.v
               - (e.N + 2.0 * e.alpha) * g.w * g.ws),
    "dN_eps": (0.0, lambda g, e: g.ydgs * g.ws + g.ydg * g.v + 2.0 * g.ydg * g.ydgs),
    "dI_eps": (-0.5, lambda g, e: -(g.ws ** 2) - g.w * g.v - 2.0 * g.ws * g.ydg
               - 2.0 * g.w * g.ydgs - e.N * g.w * g.ws),
    "dJ0": (None, lambda g, e: e.alpha * (g.ws ** 2 + g.w * g.v - e.N * g.w * g.ws)),
    # the flows of dM's A = int |y|^2 w^2 rho_eps/(1-|y|^2) and B = int w^2 rho_eps
    "dA": (-1.0, lambda g, e: 2.0 * g.w * g.ws * g.r2),
    "dB": (0.0, lambda g, e: 2.0 * g.w * g.ws),
}


def _flow(name: str, field, rules: RuleTable, e: Exponents, eps: float) -> float:
    """The flow integral name of _FLOW_TABLE at eps over one Gateaux sample
    of the field's closed forms at its rule's nodes: w, ws, v = d2s w from the
    profile equation, y.grad w, y.grad ws, grad w.grad ws and |y|^2."""
    shift, integrand = _FLOW_TABLE[name]
    rule = rules.rule(0.0 if shift is None else eps + shift)
    pts = rule.points
    v, (w, ws, grad) = field.eq_rhs(pts, e), field.fields(pts)   # the Hessian first
    gws = field.jet(field.ws_part, pts, 1)[1]
    g = SimpleNamespace(w=w, ws=ws, v=v, ydg=sum_last(pts * grad),
                        ydgs=sum_last(pts * gws), gdot=sum_last(grad * gws),
                        r2=sum_last(pts ** 2))
    return float(np.sum(rule.weights * integrand(g, e)))


def flow_derivative(name: str, field: StaticSnapshot, rules: RuleTable,
                    e: Exponents, eps: float) -> float:
    """d/ds of the named functional along the flow (w, ws) -> (ws, v) with
    v given by the profile equation, computed by differentiating under the
    integral sign only (no integration by parts, no equation substitution).

    This is the independent oracle for lemma_rhs: the two agree exactly for
    any smooth (w, ws) pair, which certifies the identity's algebra.
    """
    if name not in LEMMA_NAMES:
        raise ValueError(f"unknown lemma '{name}', expected one of {LEMMA_NAMES}")

    if name == "dL_eps":
        return (flow_derivative("dN_eps", field, rules, e, 0.5 + eps)
                + (0.5 + eps) * flow_derivative("dI_eps", field, rules, e, eps))

    if name == "dM":
        c = e.two_over_pm1 + 0.4
        return (flow_derivative("dE_eps", field, rules, e, EPS0)
                + flow_derivative("dN_eps", field, rules, e, EPS0)
                - c * flow_derivative("dJ_eps", field, rules, e, EPS0)
                + 1.2 * c * _flow("dA", field, rules, e, EPS0)
                + c * e.alpha * _flow("dB", field, rules, e, EPS0))

    if name == "dF0":
        # F0 = e^(2 alpha s) (E0 + J0); the flows first, as they read the Hessian
        dE0, dJ0 = _flow("dE_eps", field, rules, e, 0.0), _flow("dJ0", field, rules, e, eps)
        return math.exp(2.0 * e.alpha * field.s) * (
            2.0 * e.alpha * (fu.E0(field, rules, e) + fu.J0(field, rules, e)) + dE0 + dJ0)

    if name == "dF1":
        return field.s ** (1.0 / 18.0) * flow_derivative("dF0", field, rules, e, eps)

    return _flow(name, field, rules, e, eps)


# ---------------------------------------------------------------------------
# inequality constants, calibrated on the data: each is the smallest constant
# with which the inequality holds, so it measures and cannot fail

def calibrate_sigma_bound(snaps, rules, e: Exponents) -> float:
    """Smallest C1 with int Sigma dtau + 1/20 int int ws^2 rho
    <= 4/5 int int |gw|^2 rho + C1 int int w^2 rho over the series (0 when
    int int w^2 rho vanishes)."""
    s = snaps.s
    sig = sum(sigma_parts(snaps, rules, e).values())
    raw = functools.partial(_raw, snaps, rules, e, EPS0)
    lhs = float(np.trapezoid(sig, s)) + 0.05 * float(np.trapezoid(raw("P2"), s))
    grad_part = 0.8 * float(np.trapezoid(raw("S2"), s))
    iw3 = float(np.trapezoid(raw("W3"), s))
    return (lhs - grad_part) / iw3 if iw3 > 0 else 0.0


def calibrate_singular_average(snaps, rules, e: Exponents, eps: float,
                               s_lo: float) -> float:
    """Smallest C with int_s^(s+1) of the singular L^(p+1) norm
    <= C int_(s-2)^(s+3) of the rho_eps energy sum at s = s_lo (0 when the
    energy integral vanishes); needs coverage [s_lo-2, s_lo+3]."""
    s = snaps.s
    if s[0] > s_lo - 2.0 + 1e-9 or s[-1] < s_lo + 3.0 - 1e-9:
        raise ValueError(f"need coverage [{s_lo - 2}, {s_lo + 3}], have "
                         f"[{s[0]}, {s[-1]}]")
    sing = fu.singular_Lp1(snaps, rules, e, eps)
    raw = functools.partial(_raw, snaps, rules, e, eps)
    ener = raw("S2") + raw("P2") + raw("W3") + raw("R2")
    in_win = (s >= s_lo) & (s <= s_lo + 1.0)
    big_win = (s >= s_lo - 2.0) & (s <= s_lo + 3.0)
    lhs = float(np.trapezoid(sing[in_win], s[in_win]))
    ref = float(np.trapezoid(ener[big_win], s[big_win]))
    return lhs / ref if ref > 0 else 0.0


def calibrate_m_bound(snaps, rules, e: Exponents) -> float:
    """Smallest C3 with |M| <= C3 int (ws^2+|gw|^2+w^2+|w|^(p+1)) rho."""
    den = np.atleast_1d(fu.m_bound_denominator(snaps, rules, e))
    m = np.abs(np.atleast_1d(fu.M_func(snaps, rules, e)))
    return float(np.max(m[den > 0] / den[den > 0], initial=0.0))


def hardy_ratio(snap, eps: float, rules: RuleTable):
    """LHS/RHS of the Hardy inequality with C = 1.

    ratio = integral w^2 rho_eps/(1-|y|^2)
            / (integral |grad w|^2 (1-|y|^2) rho_eps + integral w^2 rho_eps).

    Two rules suffice: the beta = eps-1 rule carries both w^2 integrals
    (the plain-rho one picks up a smooth (1-|y|^2) factor) and the
    beta = eps+1 rule carries the gradient term.  Returns 0 for w == 0, and
    one ratio per snapshot of a series.
    """
    num = _raw_int(snap, rules, None, "w2", eps - 1.0)
    den = (_raw_int(snap, rules, None, "g2", eps + 1.0)
           + _raw_int(snap, rules, None, "w2_1mr2", eps - 1.0))
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den != 0.0)[()]


def calibrate_hardy(profiles, eps: float, rules: RuleTable) -> float:
    """Empirical Hardy constant: max ratio over the given snapshots and
    series."""
    return max(float(np.max(hardy_ratio(sn, eps, rules))) for sn in profiles)


# ---------------------------------------------------------------------------
# monotonicity, decay and rate-trend verdicts

def ladder_start(e: Exponents, k: int) -> float:
    """End of the transient window for s^(k/18) F0: the weight factor
    s^(k/18) e^(2 alpha s) only decreases once s > k/(36 |alpha|), and the
    window ends a quarter past that."""
    return 1.25 * k / (36.0 * abs(e.alpha))


def monitor_monotone(series: FunctionalSeries, slack: float = 1e-6,
                     require_nonneg: bool = False) -> dict:
    """Indices where the series increases by more than slack*local-scale, or
    where either side is not finite; optionally also checks the claimed
    nonnegativity (down to -1e-8 of the largest magnitude).  A series of
    fewer than MIN_SAMPLES samples cannot show monotonicity: it is not
    monotone, whatever its violations."""
    v = series.values
    scale = np.maximum(np.abs(v[1:]), np.abs(v[:-1]))
    scale = np.maximum(scale, FLOOR)
    finite = np.isfinite(v)
    bad = np.nonzero((v[1:] - v[:-1] > slack * scale) | ~(finite[1:] & finite[:-1]))[0]
    out = {"name": series.name, "violations": bad.tolist(),
           "n": int(v.size), "monotone": bad.size == 0 and v.size >= MIN_SAMPLES}
    if require_nonneg:
        gscale = max(float(np.max(np.abs(v))), FLOOR)
        out["min_value"] = float(np.min(v))
        out["nonnegative"] = bool(np.min(v) >= -1e-8 * gscale)
    return out


def check_f0_monotone(f0: FunctionalSeries) -> dict:
    """F0 nonincreasing and nonnegative over the snapshot window, which
    fails with fewer than MIN_SAMPLES samples (monitor_monotone)."""
    mon = monitor_monotone(f0, slack=1e-6, require_nonneg=True)
    return {"name": "F0_monotone", "passed": mon["monotone"] and mon["nonnegative"],
            **{k: v for k, v in mon.items() if k != "name"}}


def check_ladder(f0: FunctionalSeries, e: Exponents, k_max: int) -> list[dict]:
    """Monotonicity of s^(k/18) F0 past ladder_start, for k = 1..k_max; a
    window of fewer than MIN_SAMPLES samples fails (monitor_monotone)."""
    out = []
    for k in range(1, k_max + 1):
        sel = f0.s >= max(f0.s[0], ladder_start(e, k))
        mk = monitor_monotone(FunctionalSeries(
            f"ladder_k{k}", f0.s[sel], f0.s[sel] ** (k / 18.0) * f0.values[sel]))
        out.append({"name": f"ladder_k{k}_monotone", "passed": mk["monotone"],
                    "violations": mk["violations"]})
    return out


def monotone_suite(snaps, rules, e: Exponents, k_max: int) -> list[dict]:
    """F0's own monotonicity report, then one per ladder index 1..k_max."""
    f0, = fu.evaluate_series(["F0"], snaps, rules, e, EPS0, 1, 1.0)
    return [check_f0_monotone(f0)] + check_ladder(f0, e, k_max)


def smallest_sigma(mser: FunctionalSeries, user: FunctionalSeries, k: int,
                   e: Exponents) -> float:
    """Smallest sigma making s^((k-18)/18) e^(2 alpha s) M + sigma U_k
    nonincreasing on the sampled grid (inf if U's decrease cannot pay)."""
    gamma = (k - 18.0) / 18.0
    P = mser.s ** gamma * np.exp(2.0 * e.alpha * mser.s) * mser.values
    up = np.diff(P) > 0.0
    dP, dU = np.diff(P)[up], np.diff(user.values)[up]
    return math.inf if np.any(dU >= 0.0) else float(np.max(dP / -dU, initial=0.0))


def decay_report(series: FunctionalSeries) -> dict:
    """Trend over the last half of the window: passes if the final/initial
    ratio is at most 0.1 and the log-slope (ode.power_fit) is negative.  A
    series with fewer than MIN_SAMPLES samples cannot show a trend and fails."""
    s, v = series.s, np.abs(series.values)
    if s.size < MIN_SAMPLES:
        return {"name": series.name, "passed": False, "n": int(s.size)}
    sel = s >= 0.5 * (s[0] + s[-1])
    s, v = s[sel], np.maximum(v[sel], 1e-300)
    slope = power_fit(s, np.log(v)).slope
    ratio = float(v[-1] / v[0]) if v[0] > 0 else 0.0
    return {"name": series.name, "initial": float(v[0]), "final": float(v[-1]),
            "ratio": ratio, "log_slope": slope,
            "passed": bool(ratio <= 0.1 and slope < 0.0)}


def build_decay_bundle(snaps, rules, e: Exponents) -> dict:
    """Every quantity the decay suite monitors, from one snapshot series,
    with the s^(k/18)-type gains for k = 1, 2.

    Per-snapshot integrals are taken block by block (snaps.blockwise); the
    window series sit on the sub-grid that leaves room for their [s, s+1].
    """
    p, al = e.p, e.alpha
    s = snaps.s
    w2, wp1, wp32, grad2, ws2, f0 = map(np.concatenate, zip(*snaps.blockwise(lambda b: [
        _raw_int(b, rules, e, f, 0.0) for f in ("w2", "lp1", "lp32", "g2", "ws2")]
        + [fu.F0(b, rules, e)])))

    sh = s[s <= s[-1] - 1.0 + 1e-9]
    # the window [s, s+1] of head sample i holds the n[i] samples from lo[i] on
    lo = np.searchsorted(s, sh - 1e-12)
    n = np.searchsorted(s, sh + 1.0 + 1e-12, side="right") - lo

    def win_int(vals):
        """int_s^(s+1) vals dtau at each head sample; the windows of one
        length are the rows of one trapezoid, each keeping its own sum."""
        out = np.empty(sh.size)
        for k in np.unique(n):
            idx = lo[n == k, None] + np.arange(k)
            out[n == k] = np.trapezoid(vals[idx], s[idx], axis=-1)
        return out

    e2 = np.exp(2.0 * al * s)
    e2h = np.exp(2.0 * al * sh)
    e8 = np.exp(8.0 * al * s / (p + 3.0))
    energy = win_int(ws2 + grad2)
    f0_gain = {k: s ** (k / 18.0) * f0 for k in (1, 2)}

    series = {   # name -> (s, values)
        # e^(8 alpha s/(p+3)) int w^2, plain and with the s-power gain
        "l2_weighted": (s, e8 * w2),
        "l2_weighted_gain": (s, s ** (2.0 / (9.0 * (p + 3.0))) * e8 * w2),
        # s^(1/18) e^(2 alpha s) int |w|^((p+3)/2)
        "lp32_weighted": (s, s ** (1.0 / 18.0) * e2 * wp32),
        "f0_gain": (s, f0_gain[1]),
        # e^(2 alpha s) int_s^(s+1) int (ds w)^2 + |grad w|^2
        "window_energy": (sh, e2h * energy),
        "window_gradient": (sh, sh ** (1.0 / 18.0) * e2h * win_int(grad2)),
        # tail of the space-time L^(p+1) bound
        "lp1_spacetime_tail": (s[:-1], fu.tail_trapezoid(s, e2 * wp1)[:-1]),
    }
    for k in (1, 2):
        series[f"window_energy_k{k}"] = (sh, sh ** (k / 18.0) * e2h * energy)
        series[f"lp32_weighted_k{k}"] = (s, s ** ((k + 1.0) / 18.0) * e2 * wp32)
        series[f"l2_weighted_gain_k{k}"] = (
            s, s ** ((2.0 * k + 2.0) / (9.0 * (p + 3.0))) * e8 * w2)
        series[f"f0_gain_k{k}"] = (s, f0_gain[k])
    return {name: FunctionalSeries(name, *sv) for name, sv in series.items()}


def check_decay_suite(bundle: dict) -> list[dict]:
    """Decay verdict for every series in the bundle."""
    return [decay_report(ser) for ser in bundle.values()]


def rate_verdict(rep: fu.TheoremReport, q: float) -> dict:
    """The RATE_VERDICTS, which must all hold, and the numbers they rest on:
    scaled_l2 with its log weight divided out fits the expected power within
    10% over at least MIN_SAMPLES samples, and decreases over the last
    decade of tau, which holds at least MIN_SAMPLES samples; the cone sup is
    finite (NaN when a cone window was not measured)."""
    last_decade = rep.pure_l2[rep.tau <= rep.tau[-1] * 10.0]
    decreasing = bool(last_decade.size >= MIN_SAMPLES
                      and np.all(np.diff(last_decade) < 0.0))
    slope = rep.meta["power_fit_slope"]
    expected = rep.meta["expected_power"]
    return {
        "q": q,
        "power_fit_slope": slope,
        "expected_power": expected,
        "slope_within_10pct": bool(rep.tau.size >= MIN_SAMPLES
                                   and abs(slope - expected) <= 0.1 * abs(expected)),
        "scaled_l2_decreasing_last_decade": decreasing,
        "cone_gradient_sup": rep.sup["cone_gradient"],
        "cone_gradient_bounded": bool(np.isfinite(rep.sup["cone_gradient"])),
        "lower_bound_floor": rep.meta["lower_bound_floor"],
        "sup": rep.sup,
    }
