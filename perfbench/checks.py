"""Correctness of one iteration's run directory.

Counted as failures: a stage that exits non-zero, a FAIL entry in any
verify_*.json, a false verdict in rate_verdict.json, a suite that yields
zero checks or no report at all, CSV/NPY bytes that differ between
iterations of one seed, and a numeric output more than REF_TOL (relative to
its series' largest magnitude) away from the reference shipped for the same
inputs.  A reference holds every value of every CSV column and JSON report,
and for each frame of frames_u.npy and frames_ut.npy its largest magnitude
and its L2 norm.  Its CSV/NPY hashes are only reported: another numpy or
BLAS build may move last bits, which REF_TOL allows.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
import os

import numpy as np

REF_TOL = 1e-13          # ROADMAP: every value within 1e-13 relative
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

_RATE_VERDICTS = ("slope_within_10pct", "scaled_l2_decreasing_last_decade",
                  "cone_gradient_bounded")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _numbers(obj, prefix: str, out: dict):
    """Flatten the numeric leaves of a JSON object into `out` (key -> value)."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return
    if isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            _numbers(obj[k], f"{prefix}.{k}", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _numbers(v, f"{prefix}[{i}]", out)


def _csv_series(path: str, name: str, series: dict):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    for j, col in enumerate(header):
        series[f"{name}:{col}"] = [float(r[j]) for r in body]


def collect(run_dir: str, stages) -> dict:
    """Everything the checks need from one finished run directory.

    `stages` is the workload's stage list; it says which reports must exist.
    """
    hashes, series, checks = {}, {}, []
    total_bytes = 0
    for root, _dirs, names in os.walk(run_dir):
        for name in names:
            path = os.path.join(root, name)
            total_bytes += os.path.getsize(path)
            rel = os.path.relpath(path, run_dir)
            if name.endswith((".csv", ".npy")):
                hashes[rel] = sha256_file(path)
    for rel in sorted(hashes):
        path = os.path.join(run_dir, rel)
        if rel.startswith("plots" + os.sep):
            continue          # column copies of the main CSVs
        if rel.endswith(".csv"):
            _csv_series(path, rel, series)
        elif rel in ("frames_u.npy", "frames_ut.npy"):
            frames = np.load(path)
            series[f"{rel}:rowmax"] = np.max(np.abs(frames), axis=1).tolist()
            series[f"{rel}:rowl2"] = np.linalg.norm(frames, axis=1).tolist()
        elif rel == "frames_t.npy":
            series[rel] = np.load(path).tolist()

    def load_json(name):
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    for label, kind, argv in stages:
        if kind == "verify":
            suite = argv[argv.index("--suite") + 1]
            fname = f"verify_{suite}.json"
            reports = load_json(fname)
            if not reports:
                # no report, or 'OK: 0/0': a suite that checked nothing failed
                checks.append((fname, "<no checks>", False))
                continue
            nums = {}
            for i, r in enumerate(reports):
                checks.append((fname, r.get("name", "?"), r.get("passed") is True))
                _numbers({k: v for k, v in r.items() if k != "passed"},
                         f"{fname}[{i}]", nums)
            _group(nums, series)
        elif kind == "rate":
            verdict = load_json("rate_verdict.json")
            if verdict is None:
                checks.append(("rate_verdict.json", "<no verdict>", False))
                continue
            for key in _RATE_VERDICTS:
                checks.append(("rate_verdict.json", key, verdict.get(key) is True))
            nums = {}
            _numbers(verdict, "rate_verdict.json", nums)
            series["rate_verdict.json"] = [nums[k] for k in sorted(nums)]
        elif kind == "simulate":
            status = load_json("t_est.json")
            if status is not None:
                nums = {}
                _numbers(status, "t_est.json", nums)
                series["t_est.json"] = [nums[k] for k in sorted(nums)]
    return {"hashes": hashes, "series": series, "checks": checks,
            "run_dir_bytes": total_bytes}


def _group(nums: dict, series: dict):
    """verify_x.json[3].lhs -> series 'verify_x.json:lhs', in report order."""
    for key, val in nums.items():
        head, _, field = key.rpartition(".")
        name = head.split("[")[0] + ":" + field
        series.setdefault(name, []).append(val)


# ---------------------------------------------------------------------------
# references

def ref_path(workload) -> str:
    return os.path.join(REF_DIR, workload.name, f"{workload.input_sha256[:16]}.json.gz")


def make_reference(collected: dict) -> dict:
    """Every value of every series, and the CSV/NPY hashes."""
    return {"series": {k: [float(x) for x in v] for k, v in sorted(collected["series"].items())},
            "sha256": dict(sorted(collected["hashes"].items()))}


def write_reference(workload, collected: dict) -> str:
    """Store `collected` as the reference for `workload`'s inputs; its path."""
    path = ref_path(workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    blob = json.dumps(make_reference(collected), separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(gzip.compress(blob, 9, mtime=0))
    return path


def load_reference(workload):
    """The reference made from exactly this workload's inputs, or None."""
    path = ref_path(workload)
    if not os.path.exists(path):
        return None
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def reference_deviation(collected: dict, ref: dict) -> tuple[float, list]:
    """Largest relative deviation from `ref` over every value, each series
    scaled by its largest magnitude; missing or resized series and NaNs
    count as infinite."""
    worst, bad = 0.0, []
    for key, r in ref["series"].items():
        vals = collected["series"].get(key)
        if vals is None or len(vals) != len(r):
            worst = math.inf
            bad.append(key)
            continue
        if not r:
            continue
        v, r = np.asarray(vals, dtype=float), np.asarray(r, dtype=float)
        scale = max(float(np.max(np.abs(r))), float(np.max(np.abs(v))), 1e-300)
        dev = float(np.max(np.abs(v - r))) / scale
        if not dev <= REF_TOL:
            bad.append(key)
        worst = max(worst, dev) if not math.isnan(dev) else math.inf
    return worst, bad
