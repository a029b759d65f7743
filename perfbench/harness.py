"""Iterations of a workload: one fresh run directory each.

`run_subprocess_iteration` drives the real CLI, one child interpreter per
stage and one stage at a time, and takes each child's peak RSS from
os.wait4 (RUSAGE_CHILDREN would report the maximum over all earlier
children).  `run_inprocess_iteration` calls sswave.cli.main in this
process, for the traced run and its untraced twin.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

from checks import collect

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")


@dataclass
class StageResult:
    label: str
    kind: str
    code: int
    wall_s: float
    setup_s: float | None = None
    peak_rss_mb: float | None = None
    error: str = ""


@dataclass
class Iteration:
    stages: list = field(default_factory=list)
    collected: dict = field(default_factory=dict)
    wall_s: float = 0.0
    span_range: tuple | None = None     # traced spans of this iteration


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
    env.pop("SSWAVE_OUT", None)
    return env


def _argv(stage_argv, config: str, run: str) -> list:
    return [a.replace("{config}", config).replace("{run}", run) for a in stage_argv]


def _prepare(workload, scratch_root: str):
    it_dir = tempfile.mkdtemp(prefix="it-", dir=scratch_root)
    run = os.path.join(it_dir, "run")
    os.makedirs(run)
    config = os.path.join(it_dir, "config.ini")
    if workload.config_text is not None:
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(workload.config_text)
    return it_dir, run, config


def _tail(path: str, n: int = 400) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-n:]


def run_stage(label: str, kind: str, argv: list, cwd: str, env: dict) -> StageResult:
    mark = os.path.join(cwd, "import.mark")
    log = os.path.join(cwd, "stage.log")
    if os.path.exists(mark):
        os.remove(mark)
    with open(log, "w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, "stage", mark, *argv],
                                cwd=cwd, env=env, stdout=fh, stderr=fh)
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    setup = None
    if os.path.exists(mark):
        with open(mark, encoding="utf-8") as fh:
            setup = float(fh.read()) - t0
    return StageResult(label=label, kind=kind, code=code, wall_s=wall, setup_s=setup,
                       peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,
                       error="" if code == 0 else _tail(log))


def run_subprocess_iteration(workload, scratch_root: str, env: dict) -> Iteration:
    it_dir, run, config = _prepare(workload, scratch_root)
    try:
        it = Iteration()
        for label, kind, argv in workload.stages:
            it.stages.append(run_stage(label, kind, _argv(argv, config, run), it_dir, env))
        it.wall_s = sum(s.wall_s for s in it.stages)
        it.collected = collect(run, workload.stages)
        return it
    finally:
        shutil.rmtree(it_dir, ignore_errors=True)


def run_inprocess_iteration(workload, scratch_root: str, tracer=None) -> Iteration:
    """All stages through sswave.cli.main in this process; spans if traced.

    An exception escaping main is what the CLI would print as a traceback
    and exit 1 on, so it is recorded as exit code 1.
    """
    import sswave.cli
    it_dir, run, config = _prepare(workload, scratch_root)
    try:
        it = Iteration()
        lo = len(tracer.spans) if tracer else 0
        for label, kind, argv in workload.stages:
            err = ""
            idx = tracer.open(f"stage:{label}") if tracer else None
            t0 = time.perf_counter()
            try:
                with redirect_stdout(io.StringIO()):
                    code = sswave.cli.main(_argv(argv, config, run))
            except Exception as exc:  # the CLI boundary: record, keep going
                code, err = 1, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if tracer:
                tracer.close(idx)
            it.stages.append(StageResult(label, kind, code, wall, error=err))
        it.wall_s = sum(s.wall_s for s in it.stages)
        if tracer:
            it.span_range = (lo, len(tracer.spans))
        it.collected = collect(run, workload.stages)
        return it
    finally:
        shutil.rmtree(it_dir, ignore_errors=True)


def import_probe(env: dict, cwd: str) -> dict:
    """Import-split probe in a fresh interpreter; adds setup_s (spawn to done)."""
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, CHILD, "imports"], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    rec = json.loads(out.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec.pop("done") - t0
    return rec
