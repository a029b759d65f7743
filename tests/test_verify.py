import gc
import json
import math
import os
import weakref
from importlib import resources

import numpy as np
import pytest

import sswave as sw
from sswave.core import FunctionalSeries, fan_out
from sswave.quadrature import RuleTable
from sswave.similarity import PolyField, StaticSnapshot, TestField, constant_field
from sswave import functionals as fu
from sswave import core, quadrature, runio, similarity, verify

from conftest import (boosted_snapshot, lemma_window_snaps, make_gaussian_run,
                      observed_order)


def radial_quadratic(N, c0, c2):
    d = {(0,) * N: c0}
    for i in range(N):
        k = [0] * N
        k[i] = 2
        d[tuple(k)] = c2
    return PolyField(N, d)


def positive_field(N, rng):
    """Strictly positive w (so |w|^(p-1) w is analytic) with a random ws."""
    if N >= 4:
        return TestField(N=N, a=0.0, poly=radial_quadratic(N, 2.0, 0.3),
                         ws_a=1.0, ws_poly=radial_quadratic(N, 0.4, -0.2))
    wc = {(0,) * N: 2.0}
    for _ in range(4):
        k = tuple(int(v) for v in rng.integers(0, 3, size=N))
        wc[k] = wc.get(k, 0.0) + float(rng.uniform(-0.2, 0.2))
    wsc = {tuple(int(v) for v in rng.integers(0, 3, size=N)):
           float(rng.uniform(-0.5, 0.5)) for _ in range(4)}
    return TestField(N=N, a=0.0, poly=PolyField(N, wc), ws_a=1.0,
                     ws_poly=PolyField(N, wsc))


FLOW_CASES = [(4.0, 3, 20), (6.0, 2, 64), (2.5, 4, 1)]


@pytest.mark.parametrize("p,N,n_ang", FLOW_CASES)
@pytest.mark.parametrize("name", verify.LEMMA_NAMES)
def test_lemma_rhs_certified_by_frozen_flow(p, N, n_ang, name):
    """Every d/ds identity's right side agrees with the independent Gateaux
    (differentiate-under-the-integral) oracle for arbitrary smooth (w, ws),
    certifying each law's coefficients to quadrature precision."""
    e = sw.make_exponents(p, N)
    rules = RuleTable(N, n_radial=40, n_angular=n_ang)
    rng = np.random.default_rng(hash((p, N)) % 2 ** 31)
    snap = StaticSnapshot(positive_field(N, rng), s=3.0)
    for eps in (0.6, 1.0):
        oracle = verify.flow_derivative(name, snap, rules, e, eps)
        rhs = verify.lemma_rhs(name, snap, rules, e, eps)
        scale = max(abs(oracle), abs(rhs), 1e-14)
        assert abs(oracle - rhs) / scale < 1e-9, (name, eps)
        if name in ("dF0", "dJ0", "dM", "dF1"):
            break  # eps-independent identities


def test_dm_composite_equals_collected_form():
    """Coefficient-level cross-check: composite dM vs its collected form."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=40, n_angular=16)
    rng = np.random.default_rng(31)
    for _ in range(5):
        snap = StaticSnapshot(positive_field(3, rng), s=2.0)
        a = verify.lemma_rhs("dM", snap, rules, e, 0.6)
        b = verify.dm_collected_rhs(snap, rules, e)
        assert a == pytest.approx(b, rel=1e-12)


def test_every_rhs_vanishes_on_stationary_profile():
    """The constant profile is a stationary solution, so every d/ds law's
    right side must vanish on it (a sharp sign/coefficient check: e.g. a
    sign slip in dJ's transport terms would leave an O(1) residue
    4 alpha (N/2 + alpha) kappa^2 Vol)."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=24)
    k = sw.kappa(e)
    snap = StaticSnapshot(constant_field(3, k), s=1.0)
    for name in verify.LEMMA_NAMES:
        if name in ("dF0", "dF1"):
            continue  # these decay like e^(2 alpha s) even on the constant
        val = verify.lemma_rhs(name, snap, rules, e, 0.6)
        assert abs(val) < 1e-10, name
    V = sw.ball_weight_volume(3, 0.6)
    assert abs(4.0 * e.alpha * (1.5 + e.alpha) * k ** 2 * V) > 1e-2


@pytest.mark.parametrize("p,d", [(4.0, (0.2, 0.1, 0.0)), (7.0, (0.2, 0.1))])
def test_every_law_holds_on_a_boosted_profile(p, d):
    """The boosted profile is stationary and non-radial, so every functional
    is constant in s but F0 = e^(2 alpha s) E: each lemma_rhs and
    flow_derivative vanishes to 1e-13 of the largest raw integral (2.4e-15
    at most measured), dF0 is 2 alpha F0 to 1e-13 and dF1 is s^(1/18) dF0.
    Unlike a radial run it reads the angular gradient: doubling gth2 in
    SimilaritySnapshot._node_fields moves dN_eps, dI_eps, dL_eps and dM by
    1.4e-3 to 6.3e-3 of that scale."""
    N = len(d)
    e = sw.make_exponents(p, N)
    rules = RuleTable(N, n_radial=48, n_angular=16)
    snap = boosted_snapshot(p, d, s=1.0)
    scale = max(abs(verify._raw(snap, rules, e, 0.6, name)) for name in verify._RAW_TABLE)
    df0 = 2.0 * e.alpha * fu.F0(snap, rules, e)
    for law in (verify.lemma_rhs, verify.flow_derivative):
        got = {name: law(name, snap, rules, e, 0.6) for name in verify.LEMMA_NAMES}
        assert abs(got["dF0"] - df0) <= 1e-13 * abs(df0), law.__name__
        assert got.pop("dF1") == snap.s ** (1.0 / 18.0) * got.pop("dF0"), law.__name__
        for name, val in got.items():
            assert abs(val) <= 1e-13 * scale, (law.__name__, name, val / scale)


# ---------------------------------------------------------------------------
# Pohozaev identities

@pytest.mark.parametrize("N,eps", [(2, 0.6), (2, 1.0), (2, 1.1),
                                   (3, 0.6), (3, 1.0), (3, 1.1)])
def test_identity_battery(N, eps):
    reports = verify.run_identity_battery(N, eps, n_fields=50, seed=1234 + N)
    assert len(reports) == 100
    worst = max(r["rel_residual"] for r in reports)
    assert all(r["passed"] for r in reports), worst
    assert worst < 1e-8
    # each report is the dict cmd_verify writes, whose passed the benchmark's
    # selfcheck reads as an attribute
    assert all(type(r) is verify.Report and r.passed is r["passed"] for r in reports)


# the betas the battery reads, eps - 1, eps - 1/2, eps and eps + 1/2 for
# eps in (0.6, 1.0, 1.1), and the store they make for N = 2 and 3
IDENTITY_BETAS = (-0.4, 0.0, 0.1, 0.5, 0.6, 1.0, 1.1, 1.5, 1.6)
REGENERATE = ("PYTHONPATH=src python -c \"import sys; sys.path[:0] = ['src', 'tests']; "
              "import test_verify as t; open('src/sswave/identity_rules.json', 'w')"
              ".write(t.fresh_identity_rules())\"")


def fresh_identity_rules() -> str:
    tables = [RuleTable(N, n_radial=48, n_angular=64 if N == 2 else 20) for N in (2, 3)]
    for table in tables:
        for beta in IDENTITY_BETAS:
            table.rule(beta)
    return json.dumps([table.stored() for table in tables], sort_keys=True)


def test_shipped_identity_rules_are_the_built_ones():
    """The rule store the package ships is, character for character, the
    stored() data of the rules built afresh for the battery's betas, so
    every float in it reads back bit for bit."""
    shipped = resources.files("sswave").joinpath("identity_rules.json").read_text()
    assert shipped == fresh_identity_rules(), f"regenerate it with: {REGENERATE}"
    assert sorted({round(eps + shift, 12) for eps in (0.6, 1.0, 1.1)
                   for shift in (-1.0, -0.5, 0.0, 0.5)}) == list(IDENTITY_BETAS)


def test_identity_suite_builds_no_rule(monkeypatch):
    """identity_suite reads every rule from the shipped store: each table
    it seeds, one per task, ends with built False."""
    monkeypatch.setattr(core, "usable_cpus", lambda: 1)
    tables = []
    seeded = verify.identity_rules

    def spy(N):
        tables.append(seeded(N))
        return tables[-1]

    monkeypatch.setattr(verify, "identity_rules", spy)
    assert len(verify.identity_suite(0)) == 120
    assert len(tables) == 3 and not any(table.built for table in tables)


def test_each_field_is_evaluated_once_per_rule(monkeypatch):
    """The w part of a battery field is evaluated by one PolyField._partials
    call per rule the task reads: on each of the 9 rules of a task that
    spans the three eps, and on each of the 4 rules of one eps, eps and
    eps - 1 for pohozaev_A and eps -+ 1/2 for pohozaev_E.  The frozen-flow
    oracle, over every lemma, evaluates the w part and the ws part once
    per rule each."""
    calls = []   # (polynomial, fingerprint of the points) of each _partials call
    partials, init = PolyField._partials, StaticSnapshot.__init__
    w_polys = []   # (field, w-part polynomial) of each StaticSnapshot made

    def spy(self, pts, orders):
        calls.append((self, hash(pts.tobytes())))
        return partials(self, pts, orders)

    def record(self, *args, **kw):
        init(self, *args, **kw)
        w_polys.append((self.field_spec, self.w_part.poly))

    monkeypatch.setattr(PolyField, "_partials", spy)
    monkeypatch.setattr(StaticSnapshot, "__init__", record)
    for N, epss in ((2, (1.1,)), (3, (0.6,)), (2, verify.IDENTITY_EPS), (3, verify.IDENTITY_EPS)):
        w_polys.clear()
        calls.clear()
        groups = verify.identity_group((N, epss, 4, 3, 0))
        assert [len(group) for group in groups] == [8] * len(epss)
        betas = sorted({round(eps + shift, 12) for eps in epss
                        for shift in (-1.0, -0.5, 0.0, 0.5)})
        rules = verify.identity_rules(N)
        want = sorted(hash(rules.rule(beta).points.tobytes()) for beta in betas)
        fields = {id(tf): tf for tf, _ in w_polys}.values()
        assert len(fields) == 4 and len(w_polys) == 4 * len(betas)
        for field in fields:
            polys = [poly for tf, poly in w_polys if tf is field]
            got = [pts for poly, pts in calls if any(poly is q for q in polys)]
            assert sorted(got) == want, (N, epss)
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=24, n_angular=8)
    snap = StaticSnapshot(positive_field(3, np.random.default_rng(5)), s=1.5)
    calls.clear()
    for name in verify.LEMMA_NAMES:
        verify.flow_derivative(name, snap, rules, e, 0.6)
    for part in (snap.w_part, snap.ws_part):
        got = [pts for poly, pts in calls if poly is part.poly]
        assert len(got) == len(set(got)) == len(rules._rules)


def test_a_battery_task_assembles_only_the_rules_it_reads(monkeypatch):
    """Seeding a battery table assembles no ball rule: a task assembles
    each rule its checks read once, on first use, of the nine it is seeded
    with: all nine for the three eps, four for one."""
    assembled = []
    ball_rule = quadrature._ball_rule

    def spy(beta, *args):
        assembled.append(beta)
        return ball_rule(beta, *args)

    monkeypatch.setattr(quadrature, "_ball_rule", spy)
    assert len(verify.identity_rules(3).stored()["radial"]) == 9 and not assembled
    for epss, betas in ((verify.IDENTITY_EPS, IDENTITY_BETAS), ((0.6,), (-0.4, 0.1, 0.6, 1.1))):
        assembled.clear()
        groups = verify.identity_group((3, epss, 2, 0, 0))
        assert [len(group) for group in groups] == [4] * len(epss)
        assert sorted(assembled) == list(betas), epss


def test_a_battery_task_holds_one_rule_at_a_time(monkeypatch):
    """Inside a battery task no two assembled rules, and no two rules'
    coordinate power tables, are alive at once: a rule is released, with
    every snapshot that sampled it, before the next is assembled, and
    every polynomial evaluation finds at most one power table that the
    task made."""
    gc.collect()
    before = set(similarity._POWER_TABLES)
    rules, most = [], []   # a weak reference to each rule assembled; tables alive
    ball_rule, powers = quadrature._ball_rule, similarity._powers

    def assemble(*args):
        assert all(ref() is None for ref in rules), "a rule is alive at the next assembly"
        assert set(similarity._POWER_TABLES) <= before
        rule = ball_rule(*args)
        rules.append(weakref.ref(rule))
        return rule

    def tabulate(pts, top):
        table = powers(pts, top)
        most.append(len(set(similarity._POWER_TABLES) - before))
        return table

    monkeypatch.setattr(quadrature, "_ball_rule", assemble)
    monkeypatch.setattr(similarity, "_powers", tabulate)
    for N in (2, 3):
        rules.clear()
        groups = verify.identity_group((N, verify.IDENTITY_EPS, 2, 7, 0))
        assert [len(group) for group in groups] == [4, 4, 4]
        assert len(rules) == 9 and max(most) == 1, N


def test_the_heaviest_battery_task_stays_small():
    """The heaviest task of identity_suite, 5 N = 3 fields at the three
    eps, holds one rule, its power table and one field's jets and node
    samples at a time: its traced peak stays under 20 MB.  Measured: 16.2
    MB, where the check-major task of 5 N = 3 fields at one eps, which held
    its 4 rules and their power tables for its whole run, read 24.6 MB."""
    import tracemalloc

    tracemalloc.start()
    try:
        groups = verify.identity_group((3, verify.IDENTITY_EPS, 10, 0, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(group) for group in groups] == [10, 10, 10]
    assert peak < 20e6, peak


@pytest.fixture()
def pool_spy(monkeypatch):
    """The max_workers of every process pool started."""
    import concurrent.futures

    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return started


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_identity_suite_is_the_serial_battery(seed, pool_spy, monkeypatch):
    """The suite's six (N, eps) groups, run as three tasks that each span
    the three eps on two worker processes whatever the machine has, give
    exactly the reports of the battery run group by group in this process,
    in the same order: N outer, eps inner, and each N = 3 group split at
    field 5 as the suite splits it, since batteries split at first give
    the whole's."""
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    split = {2: [(10, 0)], 3: [(5, 0), (10, 5)]}   # (n_fields, first) of each slice
    serial = [r for N in (2, 3) for eps in (0.6, 1.0, 1.1) for n, first in split[N]
              for r in verify.run_identity_battery(N, eps, n, seed, first)]
    assert verify.identity_suite(seed) == serial
    assert pool_spy == [2]


def _check_by_check(task) -> list:
    """The reports of both Pohozaev checks at eps on the suite's 10 fields of
    (N, seed), each check on a StaticSnapshot of its own."""
    N, eps, seed = task
    rules, rng = verify.identity_rules(N), np.random.default_rng(seed)
    fields = [verify.random_test_field(N, rng) for _ in range(10)]
    return [check(StaticSnapshot(tf), eps, rules) for tf in fields
            for check in (verify.check_pohozaev_A, verify.check_pohozaev_E)]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_identity_suite_is_the_check_by_check_battery(seed, monkeypatch):
    """identity_suite's 120 reports, made from integrals summed rule by rule
    across the three eps, are value for value, as the JSON text cmd_verify
    writes, the reports of check_pohozaev_A and _E run check by check on
    the same fields and rules (the reference groups run on two workers)."""
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    tasks = [(N, eps, seed) for N in (2, 3) for eps in verify.IDENTITY_EPS]
    want = [r for group in fan_out(_check_by_check, tasks, cost=lambda task: task[0])
            for r in group]
    got = verify.identity_suite(seed)
    assert len(got) == 120 and json.dumps(got) == json.dumps(want)


def test_identity_suite_on_one_cpu_starts_no_pool(monkeypatch):
    """With one CPU available the three tasks (N = 3 in two slices of 5
    fields) run in this process, in order, and the suite puts their
    reports in its order: N outer, eps, then slice."""
    import concurrent.futures

    class NoPool:
        def __init__(self, *args, **kw):
            raise AssertionError("a process pool was started on one CPU")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(core, "usable_cpus", lambda: 1)
    monkeypatch.setattr(verify, "identity_group",
                        lambda task: [[verify.report(
                            "pohozaev_A", 1.0, 1.0, 1e-8,
                            context=f"{task[0]} {eps} {task[2]} {task[3]} {task[4]}")]
                            for eps in task[1]])
    assert [r["context"] for r in verify.identity_suite(5)] == \
        [f"{N} {eps} {n} 5 {first}" for N in (2, 3) for eps in (0.6, 1.0, 1.1)
         for n, first in ([(10, 0)] if N == 2 else [(5, 0), (10, 5)])]


def test_fan_out_submits_costliest_first(monkeypatch):
    """fan_out starts min(usable CPUs, tasks) workers, hands the pool its
    tasks costliest first, a tie in task order, and returns the results in
    task order; one CPU, or one task, maps in this process.  A stand-in
    executor records what it is given."""
    import concurrent.futures

    started, submitted = [], []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            submitted.extend(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)

    def cpus(n):
        monkeypatch.setattr(core, "usable_cpus", lambda: n)

    tasks = [-1, -5, -2, -5, -3]
    cpus(1)
    assert fan_out(abs, tasks, cost=abs) == [1, 5, 2, 5, 3]
    cpus(4)
    assert fan_out(abs, tasks[:1]) == [1]
    assert started == []
    cpus(8)
    assert fan_out(abs, tasks, cost=abs) == [1, 5, 2, 5, 3]
    assert started == [5] and submitted == [-5, -5, -3, -2, -1]
    submitted.clear()
    cpus(2)
    assert fan_out(abs, tasks) == [1, 5, 2, 5, 3] and submitted == tasks
    assert started == [5, 2]


def test_usable_cpus_without_sched_getaffinity(monkeypatch, pool_spy):
    """Where os has no sched_getaffinity (macOS, Windows) the usable CPUs
    are os.cpu_count(), and 1 when it cannot tell: identity_suite(0) runs
    on that many workers and passes every check."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert core.usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert core.usable_cpus() == 2
    reports = verify.identity_suite(0)
    assert pool_spy == [2]
    assert len(reports) == 120 and all(r["passed"] for r in reports)


def test_pohozaev_trivial_and_examples():
    rules3 = RuleTable(3, n_radial=40, n_angular=12)
    one = StaticSnapshot(constant_field(3, 1.0))
    rA = verify.check_pohozaev_A(one, 0.6, rules3)
    assert rA["lhs"] == pytest.approx(0.0, abs=1e-14)
    assert rA["passed"]
    rE = verify.check_pohozaev_E(one, 0.6, rules3)
    assert rE["lhs"] == pytest.approx(0.0, abs=1e-14)

    radial = StaticSnapshot(TestField(N=3, a=2.0, poly=PolyField(3, {(0, 0, 0): 1.0})))
    for eps in (0.6, 1.0):
        assert verify.check_pohozaev_A(radial, eps, rules3)["rel_residual"] < 1e-8
        assert verify.check_pohozaev_E(radial, eps, rules3)["rel_residual"] < 1e-8

    rules2 = RuleTable(2, n_radial=40, n_angular=48)
    ang = StaticSnapshot(TestField(N=2, a=1.0, poly=PolyField(2, {(0, 0): 1.0}), m=2))
    rA = verify.check_pohozaev_A(ang, 0.6, rules2)
    assert rA["rel_residual"] < 1e-8
    # the angular-gradient term really is exercised
    assert verify._raw(ang, rules2, None, 0.6, "Q1") > 1e-3
    ang1 = StaticSnapshot(TestField(N=2, a=1.0, poly=PolyField(2, {(0, 0): 1.0}), m=1))
    rE = verify.check_pohozaev_E(ang1, 0.6, rules2)
    assert rE["rel_residual"] < 1e-8
    assert (verify._raw(ang1, rules2, None, 0.6, "Thh") > 1e-3
            and verify._raw(ang1, rules2, None, 0.6, "Hr") > 1e-3)


def test_report_relative_residual_floor():
    rep = verify.report("x", 0.0, 0.0, 1e-8)
    assert rep["rel_residual"] == 0.0 and rep["passed"]


# ---------------------------------------------------------------------------
# dynamic lemma checks

@pytest.fixture(scope="module")
def small_gauss_pair():
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=40, n_angular=1)
    out = []
    for nr, ds in [(512, 0.04), (1024, 0.02)]:
        traj = make_gaussian_run(nr, u_cap=1e3, store_ds=ds / 2)
        snaps = lemma_window_snaps(traj, e, ds, length=0.8)
        out.append(snaps)
    return e, rules, out


@pytest.mark.parametrize("name", verify.LEMMA_NAMES)
def test_derivative_lemma_converges_on_trajectory(small_gauss_pair, name):
    e, rules, (coarse, fine) = small_gauss_pair
    r1 = verify.check_derivative_lemma(name, coarse, rules, e, eps=0.6)
    r2 = verify.check_derivative_lemma(name, fine, rules, e, eps=0.6)
    assert r2["abs_residual"] < r1["abs_residual"]
    order = observed_order(r1["abs_residual"], r2["abs_residual"])
    assert order >= 1.5, (name, r1["abs_residual"], r2["abs_residual"])


def test_zero_series_lemmas_read_zero():
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=16)
    snaps = StaticSnapshot(constant_field(3, 0.0), s=np.array([1.0, 1.1, 1.2]))
    for name in verify.LEMMA_NAMES:
        rep = verify.check_derivative_lemma(name, snaps, rules, e, eps=0.6)
        assert rep["lhs"] == 0.0 and rep["rhs"] == 0.0 and rep["passed"]


def test_constant_profile_dF0_closed_form():
    """On w = kappa the dF0 window check reduces to the algebraic identity
    2 alpha E(kappa) = -alpha^2 kappa^2 N |B| + alpha (p-1)/(p+1) kappa^(p+1)|B|."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=32)
    k = sw.kappa(e)
    snaps = StaticSnapshot(constant_field(3, k), s=np.arange(1.0, 2.0001, 0.005))
    rep = verify.check_derivative_lemma("dF0", snaps, rules, e)
    # trapezoid of a smooth exponential: residual ~ (ds^2/12) (2 alpha)^2
    assert rep["rel_residual"] < 1e-6
    inst = verify.lemma_rhs("dF0", snaps[0], rules, e, 0.6)
    B = sw.ball_volume(3)
    al = e.alpha
    expected = math.exp(2 * al * 1.0) * (-al ** 2 * k ** 2 * 3 * B
                                         + al * 0.6 * k ** 5 * B)
    assert inst == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# disjoint code paths: mutation tests

def test_mutation_in_functionals_path_is_detected(small_gauss_pair, monkeypatch):
    e, rules, (_, fine) = small_gauss_pair
    base = verify.check_derivative_lemma("dJ_eps", fine, rules, e, eps=0.6)
    orig = fu.J_eps
    monkeypatch.setattr(fu, "J_eps", lambda *a, **k: 1.01 * orig(*a, **k))
    broken = verify.check_derivative_lemma("dJ_eps", fine, rules, e, eps=0.6)
    # a 1% multiplicative break shifts the difference by 1% of the LHS,
    # well above the discretisation-level residual
    assert broken["abs_residual"] > 3.0 * base["abs_residual"]
    assert broken["abs_residual"] == pytest.approx(
        base["abs_residual"] + 0.01 * abs(base["lhs"]), rel=0.3)


def test_mutation_in_quadrature_path_is_detected(small_gauss_pair, monkeypatch):
    e, rules, (_, fine) = small_gauss_pair
    base = verify.check_derivative_lemma("dJ_eps", fine, rules, e, eps=0.6)
    orig = verify._Gfun
    monkeypatch.setattr(verify, "_Gfun",
                        lambda *args: 1.01 * orig(*args))
    broken = verify.check_derivative_lemma("dJ_eps", fine, rules, e, eps=0.6)
    assert broken["abs_residual"] > 50.0 * max(base["abs_residual"], 1e-15)


# rate's radial integrals are second order in dr: their relative gap to the
# raw quadrature path is c (dr/tau)^2.  c = 0.5 is the largest gap/(dr/tau)^2
# of both runs below at nr = 256 and nr = 512 (0.49995 on ode_plateau, 0.4785
# on gaussian), rounded up; the gap falls 3.9-4.3x from nr = 256 to 512.
CROSS_PATH_C = 0.5
CROSS_PATH_RUNS = {
    "ode_plateau": "",
    "gaussian": "family = gaussian\nT = 0.2\n",
}


def test_rate_meets_the_raw_quadrature_path(tmp_path):
    """At q = 0, rate's scaled_l2, tau^(4N/(p+3) - 4/(p-1)) int_{B(tau)} u^2 dx
    on the physical frames, is exactly e^(8 alpha s/(p+3)) int_B w^2 dy at
    s = -log tau, the decay suite's l2_weighted, which verify._raw_int sums
    on the snapshots' rule samples.  On an ode_plateau run and a gaussian
    run with T = 0.2, both read back through runio.load_run (mapped frames),
    the two agree at every rate sample within CROSS_PATH_C (dr/tau)^2 + 1e-12,
    relative; either side scaled by 1 + 1e-3 or 1 - 1e-3 at the samples with
    tau >= 0.1 (at every sample of the gaussian run, whose tau stay below
    0.1) breaks the agreement."""
    for family, solver in CROSS_PATH_RUNS.items():
        cfg = tmp_path / f"{family}.ini"
        cfg.write_text("[exponents]\np = 4.0\nN = 3\n[solver]\nnr = 512\nu_cap = 1e5\n"
                       "store_ds = 0.04\n" + solver)
        out = str(tmp_path / family)
        assert runio.cmd_simulate(str(cfg), out, False, False) == 0
        traj = runio.load_run(out)[1]
        e = traj.e
        rep = fu.theorem_quantities(traj, e, traj.T_est, q=0.0)
        s = -np.log(rep.tau)
        snaps = sw.trajectory_to_w(traj, e, 0.0, traj.T_est, s)
        raw = verify._raw_int(snaps, RuleTable(3, n_radial=48, n_angular=1), e, "w2", 0.0)
        sides = (rep.series["scaled_l2"].values, np.exp(8.0 * e.alpha * s / (e.p + 3.0)) * raw)
        tol = CROSS_PATH_C * (traj.grid.dr / rep.tau) ** 2 + 1e-12

        def agree(lhs, rhs):
            return bool(np.all(np.abs(lhs - rhs) <= tol * np.abs(rhs)))

        assert rep.tau.size == 40 and agree(*sides), family
        # the gaussian run's tau all lie below 0.1: its mutants scale every sample
        far = rep.tau >= (0.1 if family == "ode_plateau" else 0.0)
        assert np.count_nonzero(far) >= 10, family
        for side in range(2):
            for factor in (1.0 + 1e-3, 1.0 - 1e-3):
                mutant = list(sides)
                mutant[side] = np.where(far, factor, 1.0) * sides[side]
                assert not agree(*mutant), (family, side, factor)


# ---------------------------------------------------------------------------
# monotonicity / decay monitors

def test_monitor_monotone_constant_solution():
    e = sw.make_exponents(4.0, 3)
    s = np.arange(1.0, 6.0, 0.1)
    ser = FunctionalSeries("F0", s, np.exp(2 * e.alpha * s) * 3.7)
    mon = verify.monitor_monotone(ser, require_nonneg=True)
    assert mon["monotone"] and mon["nonnegative"] and mon["violations"] == []


def test_monitor_monotone_zero_series_vacuous():
    ser = FunctionalSeries("z", [0, 1, 2], [0.0, 0.0, 0.0])
    assert verify.monitor_monotone(ser)["monotone"]


def test_monitor_monotone_flags_violation():
    ser = FunctionalSeries("bad", [0, 1, 2, 3], [1.0, 0.5, 0.7, 0.1])
    mon = verify.monitor_monotone(ser, slack=1e-6)
    assert mon["violations"] == [1]


def test_monitor_monotone_flags_non_finite_steps():
    """NaN compares False, and a step to or from inf is no larger than slack
    times its infinite scale: without a finiteness check a series holding
    one NaN or inf would read as monotone."""
    for bad in (math.nan, math.inf, -math.inf):
        ser = FunctionalSeries("bad", [0, 1, 2, 3], [1.0, bad, 0.5, 0.1])
        mon = verify.monitor_monotone(ser)
        assert mon["violations"] == [0, 1] and not mon["monotone"], bad


def test_monitor_requires_three_samples():
    """Fewer than MIN_SAMPLES samples show no monotonicity: such a series,
    falling or empty, is reported not monotone, with no violation."""
    for s, v in (([0, 1], [1.0, 0.5]), ([], [])):
        mon = verify.monitor_monotone(FunctionalSeries("s", s, v))
        assert mon["violations"] == [] and not mon["monotone"], s


def test_ladder_check_fails_short_windows():
    """A ladder window with fewer than 3 samples is a failed check, not an
    error; the windows that are long enough are still checked."""
    e = sw.make_exponents(4.0, 3)   # ladder_start(e, k) = 1.25 k / 12
    s = np.arange(0.5, 0.95, 0.1)
    f0 = FunctionalSeries("F0", s, np.exp(2 * e.alpha * s))
    reps = verify.check_ladder(f0, e, 8)
    assert [r["name"] for r in reps] == [f"ladder_k{k}_monotone" for k in range(1, 9)]
    assert all(set(r) == {"name", "passed", "violations"} for r in reps)
    n_window = [int(np.count_nonzero(s >= max(s[0], verify.ladder_start(e, k))))
                for k in range(1, 9)]
    assert min(n_window) < 3 <= max(n_window)
    for rep, n in zip(reps, n_window):
        assert rep["passed"] is (n >= 3)
        assert rep["violations"] == []


def test_sigma_bound_constant_profile_closed_form():
    """On w = kappa only the w^2 pieces of Sigma survive, and the calibrated
    C1 is their sum over int w^2 rho in closed form."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=40)
    k = sw.kappa(e)
    snaps = StaticSnapshot(constant_field(3, k), s=np.arange(1.0, 2.0001, 0.05))
    c1 = verify.calibrate_sigma_bound(snaps, rules, e)
    parts = verify.sigma_parts(snaps[0], rules, e)
    assert parts["Sigma1"] == 0.0 and parts["Sigma2"] == 0.0
    assert parts["Sigma5"] == 0.0
    # closed forms of the surviving pieces
    al, p, N = e.alpha, e.p, e.N
    g1 = (p + 1.0) / (p - 1.0) ** 2
    c = e.two_over_pm1 + 0.4
    V = sw.ball_weight_volume(3, 0.6)
    A = k ** 2 * (sw.ball_weight_volume(3, -0.4) - V)
    s3 = (-2.0 * c * g1 + 2.0 * al * g1 + al * c * N + 4.0 * c * al ** 2) * k ** 2 * V
    s4 = 2.4 * al * c * A
    assert parts["Sigma3"] == pytest.approx(s3, rel=1e-10)
    assert parts["Sigma4"] == pytest.approx(s4, rel=1e-10)
    # ws = grad w = 0: int Sigma <= C1 int w^2 rho, with equality at the calibration
    assert c1 == pytest.approx((s3 + s4) / (k ** 2 * V), rel=1e-10)


def test_sigma_bound_zero_series():
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=16)
    snaps = StaticSnapshot(constant_field(3, 0.0), s=np.array([1.0, 1.5, 2.0]))
    assert all(np.all(part == 0.0) for part in verify.sigma_parts(snaps, rules, e).values())
    assert verify.calibrate_sigma_bound(snaps, rules, e) == 0.0


def test_singular_average_constant_profile_and_zero_series():
    """On w = kappa the singular norm is kappa^(p+1) times the volume of
    rho_eps/sqrt(1-|y|^2), and the energy sum (kappa^2 + kappa^(p+1)) times
    that of rho_eps: C is their ratio over the window lengths 1 and 5.  It
    is 0 on w = 0, and a series that does not cover [s_lo-2, s_lo+3] is an
    error."""
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=24)
    k, eps, s = sw.kappa(e), 0.6, np.arange(0.0, 5.0001, 0.25)
    const = StaticSnapshot(constant_field(3, k), s=s)
    C = verify.calibrate_singular_average(const, rules, e, eps, s_lo=2.0)
    lp1 = k ** (e.p + 1.0)
    want = (lp1 * sw.ball_weight_volume(3, eps - 0.5)
            / (5.0 * (k ** 2 + lp1) * sw.ball_weight_volume(3, eps)))
    assert C == pytest.approx(want, rel=1e-10)
    zero = StaticSnapshot(constant_field(3, 0.0), s=s)
    assert verify.calibrate_singular_average(zero, rules, e, eps, s_lo=2.0) == 0.0
    with pytest.raises(ValueError, match="need coverage"):
        verify.calibrate_singular_average(const, rules, e, eps, s_lo=2.5)


def test_decay_report():
    s = np.linspace(0.0, 10.0, 101)
    dec = verify.decay_report(FunctionalSeries("d", s, np.exp(-s)))
    assert dec["passed"] and dec["ratio"] < 0.1
    grow = verify.decay_report(FunctionalSeries("g", s, np.exp(0.1 * s)))
    assert not grow["passed"]


def _rate_report(slope=-0.5, pure_l2=None, cone_sup=2.0):
    """A hand-built TheoremReport whose three rate verdicts hold by default:
    slope on the expected power -0.5, tau^-0.5 falling toward the blow-up
    (tau from 1e-1 to 1e-4, so the last decade is tau <= 1e-3), a finite
    cone sup."""
    tau = np.geomspace(1e-1, 1e-4, 40)
    return fu.TheoremReport(
        series={}, sup={"cone_gradient": cone_sup, "scaled_l2": 1.0},
        meta={"power_fit_slope": slope, "expected_power": -0.5,
              "lower_bound_floor": 0.25},
        tau=tau, pure_l2=tau ** 0.5 if pure_l2 is None else pure_l2)


def test_rate_verdicts_fail_one_at_a_time():
    """Each rate verdict turns false on its own defect, and only that one."""
    good = verify.rate_verdict(_rate_report(), q=1.0)
    assert set(good) == {"q", "power_fit_slope", "expected_power", "slope_within_10pct",
                         "scaled_l2_decreasing_last_decade", "cone_gradient_sup",
                         "cone_gradient_bounded", "lower_bound_floor", "sup"}
    assert all(good[key] is True for key in verify.RATE_VERDICTS)
    rising, early = _rate_report().pure_l2.copy(), _rate_report().pure_l2.copy()
    rising[-1] = 1.01 * rising[-2]          # inside the last decade
    early[1] = 2.0 * early[0]               # before it: not a verdict
    for rep, failed in [(_rate_report(slope=-0.6), "slope_within_10pct"),
                        (_rate_report(slope=-0.4), "slope_within_10pct"),
                        (_rate_report(pure_l2=rising), "scaled_l2_decreasing_last_decade"),
                        (_rate_report(cone_sup=math.inf), "cone_gradient_bounded"),
                        (_rate_report(pure_l2=early), None)]:
        verdict = verify.rate_verdict(rep, q=1.0)
        assert {key for key in verify.RATE_VERDICTS if not verdict[key]} == (
            {failed} if failed else set()), failed
    # a last decade of two falling samples is fewer than MIN_SAMPLES: no trend
    few = _rate_report()
    few.tau, few.pure_l2 = np.array([1e-1, 1e-2, 5e-4, 1e-4]), np.array([4.0, 3.0, 2.0, 1.0])
    assert not verify.rate_verdict(few, q=1.0)["scaled_l2_decreasing_last_decade"]
    # two samples fit any power exactly: fewer than MIN_SAMPLES, no slope
    two = _rate_report()
    two.tau, two.pure_l2 = np.array([1e-1, 1e-4]), np.array([1e-1, 1e-4]) ** 0.5
    assert not verify.rate_verdict(two, q=1.0)["slope_within_10pct"]
    near = verify.rate_verdict(_rate_report(slope=-0.54), q=2.5)   # 8% off
    assert near["slope_within_10pct"] and near["q"] == 2.5


def test_decay_windows_are_per_window_trapezoids(exp43, plateau_1024):
    """The decay bundle's [s, s+1] window integrals equal one np.trapezoid
    per window, bit for bit, on an uneven s grid whose windows hold
    different numbers of samples."""
    traj, rules = plateau_1024, RuleTable(3, n_radial=12, n_angular=3)
    s_grid = 2.0 + np.cumsum(np.random.default_rng(8).uniform(0.02, 0.08, 50))
    snaps = sw.trajectory_to_w(traj, exp43, 0.0, traj.T_est, s_grid)
    s = snaps.s
    gradient = verify.build_decay_bundle(snaps, rules, exp43)["window_gradient"]
    g2 = verify._raw_int(snaps, rules, exp43, "g2", 0.0)
    sels = [(s >= si - 1e-12) & (s <= si + 1.0 + 1e-12) for si in gradient.s]
    assert len({np.count_nonzero(sel) for sel in sels}) > 2
    loop = np.array([float(np.trapezoid(g2[sel], s[sel])) for sel in sels])
    sh = gradient.s
    assert np.array_equal(gradient.values,
                          sh ** (1.0 / 18.0) * np.exp(2.0 * exp43.alpha * sh) * loop)


def _smallest_sigma_loop(P, U):
    """The loop smallest_sigma replaced: the reference for its array form."""
    need = 0.0
    for a, b in zip(np.diff(P), np.diff(U)):
        if a <= 0.0:
            continue
        if b >= 0:
            return math.inf
        need = max(need, a / (-b))
    return need


def test_smallest_sigma_matches_loop():
    e = sw.make_exponents(4.0, 3)
    s = np.arange(2.0, 4.0, 0.1)
    gamma = (1 - 18.0) / 18.0
    rng = np.random.default_rng(5)
    for trial in range(40):
        m = FunctionalSeries("M", s, rng.normal(size=s.size))
        # mostly decreasing U, sometimes with a step up that cannot pay
        u = FunctionalSeries("U", s, -np.cumsum(rng.uniform(-0.05 * (trial % 2), 1.0, s.size)))
        P = s ** gamma * np.exp(2 * e.alpha * s) * m.values
        assert verify.smallest_sigma(m, u, 1, e) == _smallest_sigma_loop(P, u.values)


def test_smallest_sigma_reporting():
    e = sw.make_exponents(4.0, 3)
    s = np.arange(2.0, 4.0, 0.1)
    # M-part engineered to increase somewhere, U decreasing
    m = FunctionalSeries("M", s, np.exp(-2 * e.alpha * s) * (1.0 + 0.6 * np.sin(3 * s)))
    gamma = (1 - 18.0) / 18.0
    u = FunctionalSeries("U", s, np.exp(-0.5 * (s - s[0])))
    sig = verify.smallest_sigma(m, u, 1, e)
    assert np.isfinite(sig) and sig > 0
    P = s ** gamma * np.exp(2 * e.alpha * s) * m.values
    f = FunctionalSeries("F", s, P + sig * u.values)
    assert verify.monitor_monotone(f, slack=1e-12)["monotone"]
