"""Benchmark of the sswave CLI: time to a verified result, per-layer costs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S      # every workload, untraced
    python3 perfbench/run.py --workload NAME --seed N --write-ref

Run from the root of a source checkout (the program is imported from
./src).  --trace 0 drives the real CLI, one child interpreter per stage,
and reports the end-to-end metrics; --trace 1 runs the same stages in this
process with spans around every layer's public functions and reports the
per-layer metrics.  Every iteration runs in a fresh run directory under
.perfbench_tmp/, and its outputs are checked (see checks.py).  The metrics,
their units and their order are those BENCHMARK.json declares.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics; with --workload all, one such object per workload name.  The exit
code is 0 only if every check passed; 2 on a usage error or a checkout
without src/sswave.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True     # keep the benchmark's directory clean

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
SETUP_PROBES = 3         # fresh-interpreter imports per run, besides the stages
MIN_ITERATIONS = 2       # byte-identity needs two iterations of one seed

# printed besides the end-to-end metrics of BENCHMARK.json, where the
# workload has them; they are 0 or absent on some workload
E2E_EXTRA = {"simulate_s": "s", "functionals_s": "s", "rate_s": "s",
             "failed_frac": "ratio", "ref_rel_dev": "ratio"}


def declared_metrics() -> tuple[dict, dict]:
    """name -> unit of the end_to_end and of the per_layer metrics that
    BENCHMARK.json declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[kind]}
                 for kind in ("end_to_end", "per_layer"))


# self time of these span names is reported as <name>_s
_SELF_METRICS = {
    "solver.run_s": "solver.run", "solver.sample_state_s": "solver.sample_state",
    "similarity.to_similarity_s": "similarity.to_similarity",
    "similarity.resample_s": "similarity.resample",
    "quadrature.build_rule_s": "quadrature.build_rule",
    "quadrature.grad_decompose_s": "quadrature.grad_decompose",
    "functionals.evaluate_series_s": "functionals.evaluate_series",
    "functionals.integral_s": "functionals.integral",
    "functionals.ladder_s": "functionals.ladder",
    "functionals.theorem_quantities_s": "functionals.theorem_quantities",
    "ode.fit_s": "ode.fit", "verify.lemma_rhs_s": "verify.lemma_rhs",
    "verify.decay_bundle_s": "verify.decay_bundle", "verify.monitor_s": "verify.monitor",
    "verify.identity_battery_s": "verify.identity_battery",
    "similarity.testfield_s": "similarity.testfield",
    "runio.load_run_s": "runio.load_run", "runio.manifest_s": "runio.manifest",
    "runio.stage_self_s": "runio.cmd",
}
_COUNT_METRICS = ("solver.steps", "solver.node_steps", "solver.frames",
                  "solver.sample_state_calls", "similarity.snapshots",
                  "runio.build_snapshots_calls", "similarity.resample_calls",
                  "similarity.resample_nodes", "quadrature.rules_built",
                  "functionals.series", "ode.fit_calls", "verify.lemma_rhs_calls",
                  "verify.pohozaev_checks", "similarity.testfield_nodes",
                  "runio.load_runs")


# ---------------------------------------------------------------------------
# statistics

def summary(samples: list) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, n."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs), "pct": None, "pct_value": None}
    for q in (99, 95, 90, 75, 50):
        if len(xs) * (100 - q) / 100.0 >= 10:
            out["pct"] = q
            out["pct_value"] = statistics.quantiles(xs, n=100, method="inclusive")[q - 1]
            break
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# environment record

def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(probe: dict) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), None)
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, kind = _read(f"{base}/{idx}/level"), _read(f"{base}/{idx}/type")
        if level and kind:
            caches[f"L{level}-{kind}"] = _read(f"{base}/{idx}/size")
    try:
        mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        mem = None
    blas_env = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ImportError):
        blas = None
    git = {"sha": None, "dirty": None}
    genv = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=genv,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode == 0:
            st = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"], env=genv,
                                capture_output=True, text=True, timeout=30)
            git = {"sha": sha.stdout.strip(), "dirty": bool(st.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches, "mem_bytes": mem,
            "python": probe.get("python"), "numpy": probe.get("numpy"),
            "scipy": probe.get("scipy"), "blas": blas, "blas_threads_env": blas_env,
            "git": git}


# ---------------------------------------------------------------------------
# correctness over iterations

def judge(workload, iterations: list) -> dict:
    """Failures and attempts over all iterations, per checks.py's rules.

    Attempts are the stages, the checks, each later iteration's byte-identity
    with the first, and each comparison with the reference.
    """
    ref = checks.load_reference(workload)
    first = iterations[0].collected["hashes"]
    attempted = n_checks = 0
    failed_stages, failed_checks, mismatched, ref_bad, same_bytes = [], [], [], [], []
    ref_dev = 0.0 if ref is not None else None
    for k, it in enumerate(iterations):
        col = it.collected
        attempted += len(it.stages) + len(col["checks"]) + (k > 0) + (ref is not None)
        n_checks += len(col["checks"])
        failed_stages += [{"iteration": k, "stage": st.label, "code": st.code,
                           "error": st.error} for st in it.stages if st.code != 0]
        failed_checks += [f"{k}:{src}:{name}" for src, name, ok in col["checks"] if not ok]
        if col["hashes"] != first:
            mismatched.append(k)
        if ref is not None:
            same_bytes.append(col["hashes"] == ref["sha256"])
            dev, bad = checks.reference_deviation(col, ref)
            ref_dev = max(ref_dev, dev)
            if bad:
                ref_bad.append({"iteration": k, "series": bad[:10]})
    failed = len(failed_stages) + len(failed_checks) + len(mismatched) + len(ref_bad)
    return {"attempted": attempted, "failed": failed, "checks": n_checks,
            "checks_failed": len(failed_checks),
            "failed_frac": failed / attempted,
            "ref_rel_dev": ref_dev, "has_reference": ref is not None,
            "ref_bytes_identical": all(same_bytes) if same_bytes else None,
            "failed_stages": failed_stages, "failed_checks": failed_checks,
            "nondeterministic_iterations": mismatched, "reference_failures": ref_bad,
            "correct": failed == 0}


# ---------------------------------------------------------------------------
# runs

def _loop(seconds: float, one, at_least: int) -> list:
    """Run `one()` at least `at_least` times, then until the next call would
    end past `seconds`."""
    out, t0 = [], time.perf_counter()
    while True:
        out.append(one())
        elapsed = time.perf_counter() - t0
        if len(out) >= at_least and elapsed * (len(out) + 1) / len(out) > seconds:
            return out


def untraced(workload, seconds: float, env: dict, scratch: str) -> tuple[dict, list, dict]:
    harness.import_probe(env, scratch)          # warm-up: bytecode, file cache
    probes = [harness.import_probe(env, scratch) for _ in range(SETUP_PROBES)]
    its = _loop(seconds, lambda: harness.run_subprocess_iteration(workload, scratch, env),
                MIN_ITERATIONS)
    setup = [p["setup_s"] for p in probes] + [s.setup_s for it in its for s in it.stages
                                              if s.setup_s is not None]
    samples = {"setup_s": setup, "wall_s": [it.wall_s for it in its]}
    for kind in ("simulate", "functionals", "verify", "rate"):
        per = [sum(s.wall_s for s in it.stages if s.kind == kind) for it in its
               if any(s.kind == kind for s in it.stages)]
        if per:
            samples[f"{kind}_s"] = per
    # one stage's high-water mark swings with allocator timing (the identity
    # battery: 353-541 MB on identical inputs), so the repeatable figure is
    # the smallest per-iteration peak
    samples["peak_rss_mb"] = [min(max(s.peak_rss_mb for s in it.stages) for it in its)]
    samples["run_dir_mb"] = [it.collected["run_dir_bytes"] / 1e6 for it in its]
    return samples, its, probes[0]


def _layer_metrics(tracer, it, delta: dict) -> dict:
    lo, hi = it.span_range
    st = tracer.self_times(lo, hi)

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    m = {k: self_s(v) for k, v in _SELF_METRICS.items()}
    m.update({k: delta.get(k, 0.0) for k in _COUNT_METRICS})
    m["functionals.integral_calls"] = st.get("functionals.integral", (0,))[0]
    m["solver.frame_mb"] = delta.get("solver.frame_bytes", 0.0) / 1e6
    m["runio.frame_mb_read"] = delta.get("runio.frame_bytes_read", 0.0) / 1e6
    m["runio.manifest_mb_hashed"] = delta.get("runio.bytes_hashed", 0.0) / 1e6
    m["solver.ns_per_node_step"] = _ratio(m["solver.run_s"], m["solver.node_steps"]) * 1e9
    m["similarity.us_per_snapshot"] = _ratio(m["similarity.to_similarity_s"],
                                             m["similarity.snapshots"]) * 1e6
    m["similarity.resample_hit_ratio"] = _ratio(delta.get("similarity.resample_hits", 0.0),
                                                m["similarity.resample_calls"])
    m["similarity.ns_per_resampled_node"] = _ratio(m["similarity.resample_s"],
                                                   m["similarity.resample_nodes"]) * 1e9
    vchecks = [c for c in it.collected["checks"] if c[0].startswith("verify_")]
    m["verify.checks"] = len(vchecks)
    m["verify.checks_failed"] = sum(not ok for _s, _n, ok in vchecks)
    return m


def traced(workload, seconds: float, env: dict, scratch: str):
    """Untraced and traced in-process iterations, alternating which goes first."""
    from tracer import Tracer
    probes = [harness.import_probe(env, scratch) for _ in range(3)]
    sys.path.insert(0, SRC)
    tracer = Tracer()
    plain, traced_its, layer = [], [], []

    def traced_iteration():
        before = dict(tracer.counts)
        tracer.install()
        try:
            it = harness.run_inprocess_iteration(workload, scratch, tracer)
        finally:
            tracer.uninstall()
        delta = {k: v - before.get(k, 0.0) for k, v in tracer.counts.items()}
        layer.append(_layer_metrics(tracer, it, delta))
        traced_its.append(it)
        return it

    def plain_iteration():
        plain.append(harness.run_inprocess_iteration(workload, scratch))
        return plain[-1]

    def one_pair():
        order = (plain_iteration, traced_iteration) if len(plain) % 2 == 0 \
            else (traced_iteration, plain_iteration)
        return [run() for run in order]

    its = [it for pair in _loop(seconds, one_pair, 1) for it in pair]
    samples = {k: [m[k] for m in layer] for k in layer[0]}
    for key, field in (("cli.import_numpy_s", "numpy_s"), ("cli.import_scipy_s", "scipy_s"),
                       ("cli.import_sswave_s", "sswave_s")):
        samples[key] = [p[field] for p in probes]
    plain_wall = statistics.median(it.wall_s for it in plain)
    traced_wall = statistics.median(it.wall_s for it in traced_its)
    samples["trace.overhead_s"] = [traced_wall - plain_wall]

    notes = [f"  in-process wall: untraced {_fmt(plain_wall)} s, traced {_fmt(traced_wall)} s",
             "  per stage (traced): wall, time not covered by a layer span "
             "(stage root + cli.main self), runio cmd self"]
    for it in traced_its:
        uncovered = 0.0
        for s, span in zip(it.stages, _stage_spans(tracer, it)):
            st = tracer.self_times(*span)
            u = st[f"stage:{s.label}"][2] + st.get("cli.main", (0, 0.0, 0.0))[2]
            uncovered += u
            notes.append(f"    {s.label:20s} {s.wall_s:9.4f} s  uncovered {u:.6f} s "
                         f"({100 * u / s.wall_s:.3f}%)  cmd self "
                         f"{st.get('runio.cmd', (0, 0.0, 0.0))[2]:.4f} s")
        samples.setdefault("trace.uncovered_s", []).append(uncovered)
    notes.append("  spans of the last traced iteration: name, calls, total_s, self_s")
    table = tracer.self_times(*traced_its[-1].span_range)
    for name, (calls, total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        notes.append(f"    {name:34s} {calls:8d} {total:10.4f} {self_s:10.4f}")
    return samples, its, probes[0], notes


def _stage_spans(tracer, it):
    """(lo, hi) span index range of each stage root inside an iteration."""
    lo, hi = it.span_range
    roots = [i for i in range(lo, hi) if tracer.spans[i][3] == -1]
    return [(r, roots[j + 1] if j + 1 < len(roots) else hi) for j, r in enumerate(roots)]


# ---------------------------------------------------------------------------
# reporting

def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float) and (v == 0 or 1e-3 <= abs(v) < 1e6):
        return f"{v:.6g}"
    return f"{v:.4g}" if isinstance(v, float) else str(v)


def print_table(title: str, samples: dict, units: dict):
    print(title)
    print(f"  {'metric':34s} {'median':>12s} {'unit':>6s}  {'pctl':>16s}  n")
    for name, unit in units.items():
        if name not in samples:
            continue
        s = summary(samples[name])
        pct = (f"p{s['pct']}={_fmt(s['pct_value'])}" if s["pct"] is not None else "-")
        print(f"  {name:34s} {_fmt(s['median']):>12s} {unit:>6s}  {pct:>16s}  {s['n']}")


def _ref_note(verdict: dict) -> str:
    if not verdict["has_reference"]:
        return "none for these inputs"
    same = "CSV/NPY bytes identical" if verdict["ref_bytes_identical"] else "bytes differ"
    return f"max relative deviation {verdict['ref_rel_dev']:.3g}, {same}"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    e2e, per_layer = declared_metrics()
    workload = workloads.make(name, seed)
    env = harness.child_env(SRC)
    os.makedirs(TMP_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_DIR)
    try:
        if trace:
            samples, its, probe, notes = traced(workload, seconds, env, scratch)
        else:
            samples, its, probe = untraced(workload, seconds, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    verdict = judge(workload, its)
    samples["checks"] = [len(it.collected["checks"]) for it in its]
    samples["failed_frac"] = [verdict["failed_frac"]]
    if verdict["ref_rel_dev"] is not None:
        samples["ref_rel_dev"] = [verdict["ref_rel_dev"]]

    mode = "traced, in-process" if trace else "untraced, one child per stage"
    print(f"== {name} seed={seed} ({mode}; {len(its)} iterations, "
          f"config sha256 {workload.config_sha256})")
    if trace:
        print_table("per-layer metrics (self time; median over traced iterations)",
                    samples, per_layer)
        print("\n".join(notes))
    else:
        print_table("end-to-end metrics", samples, {**e2e, **E2E_EXTRA})
    print(f"  correctness: {verdict['attempted']} attempted, {verdict['failed']} failed"
          f" ({verdict['checks']} checks, {verdict['checks_failed']} failed)"
          f"; reference: {_ref_note(verdict)}")
    for st in verdict["failed_stages"]:
        print(f"  FAILED stage {st['stage']} (iteration {st['iteration']}, exit {st['code']})"
              f": {st['error'].strip().splitlines()[-1] if st['error'].strip() else ''}")
    for c in verdict["failed_checks"][:20]:
        print(f"  FAILED check {c}")
    if verdict["nondeterministic_iterations"]:
        print(f"  FAILED byte-identity in iterations {verdict['nondeterministic_iterations']}")
    for r in verdict["reference_failures"]:
        print(f"  FAILED reference in iteration {r['iteration']}: {r['series']}")

    units = per_layer if trace else e2e
    metrics = {k: {"value": summary(samples[k])["median"], "unit": u}
               for k, u in units.items()}
    record = {"workload": workload.record(), "trace": trace, "seconds": seconds,
              "environment": environment(probe),
              "iterations": [{"wall_s": it.wall_s, "stages": [vars(s) for s in it.stages],
                              "hashes": it.collected["hashes"]} for it in its],
              "summary": {k: summary(v) for k, v in samples.items()},
              "verdict": verdict, "metrics": metrics}
    env_rec = record["environment"]
    print(f"  environment: {env_rec['nproc']} cpus ({env_rec['cpu_model']}), "
          f"python {env_rec['python']}, numpy {env_rec['numpy']}, scipy {env_rec['scipy']}, "
          f"git {env_rec['git']['sha'] or 'n/a'}{' (dirty)' if env_rec['git']['dirty'] else ''}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"  record: {os.path.relpath(path, ROOT)}")
    result = {"correct": verdict["correct"], "attempted": verdict["attempted"],
              "failed": verdict["failed"], "metrics": metrics}
    return result, (0 if verdict["correct"] else 1)


def write_ref(name: str, seed: int) -> int:
    workload = workloads.make(name, seed)
    os.makedirs(TMP_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="ref-", dir=TMP_DIR)
    try:
        it = harness.run_subprocess_iteration(workload, scratch, harness.child_env(SRC))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    bad = [s.label for s in it.stages if s.code != 0]
    if bad:
        print(f"not writing a reference: stages {bad} failed", file=sys.stderr)
        return 1
    path = checks.write_reference(workload, it.collected)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-ref", action="store_true",
                    help="run one iteration and store its outputs as the reference "
                         "for these inputs")
    ns = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sswave", "cli.py")):
        print(f"error: no sswave source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if ns.write_ref:
        if ns.workload == "all":
            ap.error("--write-ref needs one workload")
        return write_ref(ns.workload, ns.seed)
    if ns.workload == "all":
        code, results = 0, {}
        for name in workloads.NAMES:
            results[name], c = run_one(name, ns.seed, ns.seconds, bool(ns.trace))
            code = max(code, c)
        print(json.dumps(results))
        return code
    result, code = run_one(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
