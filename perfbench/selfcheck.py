"""Tiny-size self-check of the benchmark harness, so that it cannot rot.

    python3 perfbench/selfcheck.py

Runs in about a minute from the root of a source checkout and exits
non-zero when the harness mis-measures or mis-counts:

- a tiny pipeline (nr=256, u_cap=1e5) through the real CLI twice: stage
  times, set-up marks and per-child peak RSS are taken, the CSV/NPY bytes
  agree across the two iterations, and the verdict counts exactly the FAIL
  entries and false verdicts the run directory holds;
- a reference written from one iteration matches the other, and a
  perturbed interior value or a resized series is caught;
- a suite that checks nothing (`verify` without `--out` prints 'OK: 0/0')
  and a stage that exits non-zero are both counted as failures;
- the tracer records spans of every layer on the tiny pipeline and on a
  2-field identity battery, and uninstalling restores the program;
- the percentile rule of the report;
- known bad inputs at full size are counted as failures: the radial
  pipeline's decay suite at p=4.1 T=0.9 (window_energy* checks fail), and
  p=6, N=2, nr=4096 (coincident frame times; a ValueError escapes
  `functionals`).
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True     # keep the benchmark's directory clean

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPPED, Tracer  # noqa: E402

FAILURES: list = []


def expect(cond: bool, what: str):
    print(f"{'ok  ' if cond else 'FAIL'}  {what}")
    if not cond:
        FAILURES.append(what)


def tiny_pipeline() -> workloads.Workload:
    return workloads.Workload(
        "tiny", 0, workloads.pipeline_config(4.0, 1.0, N=3, nr=256, n_angular=1,
                                             u_cap="1e5"),
        workloads.pipeline_stages(("lemmas", "monotone", "decay")))


def check_subprocess(scratch: str, env: dict):
    wl = tiny_pipeline()
    its = [harness.run_subprocess_iteration(wl, scratch, env) for _ in range(2)]
    st = its[0].stages
    expect([s.label for s in st] == [lbl for lbl, _k, _a in wl.stages], "every stage ran")
    expect(all(s.code in (0, 1) for s in st), "no stage crashed or hit a usage error")
    expect(all(s.setup_s is not None and 0 < s.setup_s < s.wall_s for s in st),
           "set-up mark of every child lies inside its wall time")
    expect(all(s.peak_rss_mb and s.peak_rss_mb > 20 for s in st),
           "per-child peak RSS from wait4")
    expect(its[0].collected["hashes"] == its[1].collected["hashes"]
           and len(its[0].collected["hashes"]) > 10, "CSV/NPY bytes repeat")
    verdict = run.judge(wl, its)
    listed = sum(not ok for it in its for _s, _n, ok in it.collected["checks"])
    stage_fail = sum(s.code != 0 for it in its for s in it.stages)
    expect(verdict["failed"] == listed + stage_fail,
           f"verdict counts the run directory's failures ({verdict['failed']})")
    expect(verdict["checks"] == 2 * (9 + 7 + 15 + 3), "checks counted: 9 lemmas, "
           "7 monotone, 15 decay, 3 rate verdicts per iteration")

    ref = checks.make_reference(its[0].collected)
    dev, bad = checks.reference_deviation(its[1].collected, ref)
    expect(dev == 0.0 and not bad, "reference from one iteration matches the other")
    for key in ("F0.csv:value", "frames_ut.npy:rowl2"):
        poisoned = copy.deepcopy(ref)
        series = poisoned["series"][key]
        k = len(series) // 2 + 1
        series[k] += 1e-12 * max(map(abs, series))
        dev, bad = checks.reference_deviation(its[1].collected, poisoned)
        expect(bad == [key] and dev > checks.REF_TOL,
               f"a 1e-12 deviation of {key}[{k}] is caught")
    del poisoned["series"][key][0]
    _dev, bad = checks.reference_deviation(its[1].collected, poisoned)
    expect(bad == [key], "a resized series is caught")


def check_failures_counted(scratch: str, env: dict):
    wl = workloads.Workload("broken", 0, tiny_pipeline().config_text, [
        ("simulate", "simulate", ["simulate", "--config", "{config}", "--out", "{run}"]),
        # no --out: the suite checks nothing and writes into the working directory
        ("verify_lemmas", "verify", ["verify", "--suite", "lemmas"]),
        ("rate", "rate", ["rate", "--out", "{run}/missing"]),
    ])
    it = harness.run_subprocess_iteration(wl, scratch, env)
    codes = [s.code for s in it.stages]
    verdict = run.judge(wl, [it])
    expect(codes[1] == 0, "verify without --out exits 0 on zero checks (known defect)")
    expect(("verify_lemmas.json", "<no checks>", False) in it.collected["checks"],
           "a suite with zero checks counts as failed")
    expect(codes[2] != 0 and verdict["failed"] >= 3 and not verdict["correct"],
           "a failing stage and its missing verdict count as failed")


def check_tracer(scratch: str):
    sys.path.insert(0, run.SRC)
    import sswave.runio
    import sswave.verify
    original = sswave.runio.load_run
    tracer = Tracer()
    tracer.install()
    try:
        it = harness.run_inprocess_iteration(tiny_pipeline(), scratch, tracer)
        n = len(tracer.spans)
        battery = sswave.verify.run_identity_battery(2, 0.6, n_fields=2)
    finally:
        tracer.uninstall()
    expect(sswave.runio.load_run is original and not hasattr(original, "__wrapped__"),
           "uninstall restores the program")
    names = {s[0] for s in tracer.spans[:n]}
    layers = {name for _m, _t, name in WRAPPED} - {
        "similarity.testfield", "verify.identity_battery"}
    expect(layers <= names, f"pipeline spans cover every layer ({sorted(layers - names)} missing)")
    expect(all(s[2] is not None for s in tracer.spans), "every span closed")
    later = {s[0] for s in tracer.spans[n:]}
    expect({"similarity.testfield", "verify.identity_battery"} <= later,
           "identity battery spans recorded")
    expect(tracer.counts["verify.pohozaev_checks"] == len(battery) == 4,
           "2 fields -> 4 Pohozaev checks counted")
    expect(all(r.passed for r in battery), "the 2-field battery passes")
    st = tracer.self_times(*it.span_range)
    total = sum(v[2] for v in st.values())
    expect(abs(total - it.wall_s) < 0.05 * it.wall_s,
           "self times add up to the iteration's wall time")


def check_summary():
    expect(run.summary([1.0] * 5)["pct"] is None, "5 samples: no percentile")
    expect(run.summary(list(range(20)))["pct"] == 50, "20 samples: p50")
    expect(run.summary(list(range(100)))["pct"] == 90, "100 samples: p90")


def check_known_bad(scratch: str, env: dict):
    radial = workloads.Workload(
        "known_bad_radial", 0, workloads.pipeline_config(4.1, 0.9, N=3, nr=1024, n_angular=1),
        [workloads.pipeline_stages(("decay",))[i] for i in (0, 2)])
    it = harness.run_subprocess_iteration(radial, scratch, env)
    bad = [n for _s, n, ok in it.collected["checks"] if not ok]
    expect(any(n.startswith("window_energy") for n in bad) and run.judge(radial, [it])["failed"],
           f"radial p=4.1 T=0.9: failing decay checks counted ({bad})")
    coincident = workloads.Workload(
        "known_bad_coincident", 0, workloads.pipeline_config(6.0, 1.0, N=2, nr=4096, n_angular=1),
        workloads.pipeline_stages(())[:2])
    it = harness.run_subprocess_iteration(coincident, scratch, env)
    st = it.stages[1]
    expect(st.code != 0 and "ValueError" in st.error and run.judge(coincident, [it])["failed"],
           f"p=6 N=2 nr=4096: functionals exit {st.code} counted")


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "sswave", "cli.py")):
        print(f"error: no sswave source under {run.SRC}", file=sys.stderr)
        return 2
    env = harness.child_env(run.SRC)
    os.makedirs(run.TMP_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selfcheck-", dir=run.TMP_DIR)
    try:
        check_summary()
        check_subprocess(scratch, env)
        check_failures_counted(scratch, env)
        check_tracer(scratch)
        check_known_bad(scratch, env)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(FAILURES)} self-check failures" if FAILURES else "self-check passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
