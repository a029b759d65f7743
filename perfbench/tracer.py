"""Spans around calls into sswave's public functions, installed from outside.

The program is not changed: `Tracer.install()` replaces each function in
WRAPPED by a wrapper in every sswave module namespace (and class) that
holds it, and `uninstall()` puts the originals back.  A span records its
name, start, end and parent; a name's self time is the sum over its spans
of duration minus the time covered by child spans.  `core` is left out: it
holds only containers and bookkeeping.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  Several functions may share a span
# name; nested spans of one name never double count, because self time
# subtracts children.
WRAPPED = [
    ("cli", "main", "cli.main"),
    ("runio", "cmd_simulate", "runio.cmd"),
    ("runio", "cmd_functionals", "runio.cmd"),
    ("runio", "cmd_verify", "runio.cmd"),
    ("runio", "cmd_rate", "runio.cmd"),
    ("runio", "load_run", "runio.load_run"),
    ("runio", "build_snapshots", "runio.build_snapshots"),
    ("runio", "update_manifest", "runio.manifest"),
    ("runio", "sha256_file", "runio.manifest"),
    ("solver", "run_until_blowup", "solver.run"),
    ("solver", "Trajectory.sample_state", "solver.sample_state"),
    ("ode", "fit_blowup", "ode.fit"),
    ("quadrature", "build_rule", "quadrature.build_rule"),
    ("quadrature", "sphere_rule", "quadrature.build_rule"),
    ("quadrature", "grad_decompose", "quadrature.grad_decompose"),
    ("similarity", "to_similarity", "similarity.to_similarity"),
    ("similarity", "SimilaritySnapshot.on", "similarity.resample"),
    ("similarity", "WeightedPoly.value", "similarity.testfield"),
    ("similarity", "WeightedPoly.grad", "similarity.testfield"),
    ("similarity", "WeightedPoly.hess", "similarity.testfield"),
    ("functionals", "evaluate_series", "functionals.evaluate_series"),
    ("functionals", "theorem_quantities", "functionals.theorem_quantities"),
    ("functionals", "f_family", "functionals.ladder"),
    ("functionals", "f_ladder", "functionals.ladder"),
    ("functionals", "u_series", "functionals.ladder"),
    ("functionals", "script_f_series", "functionals.ladder"),
] + [("functionals", fn, "functionals.integral") for fn in (
    "E0", "E_and_F0", "F0", "J0", "E_eps", "J_eps", "G_eps", "N_eps", "I_eps",
    "L_eps", "singular_Lp1", "M_func", "m_bound_denominator", "h_norm")] + [
    ("verify", "lemma_rhs", "verify.lemma_rhs"),
    ("verify", "check_derivative_lemma", "verify.lemma"),
    ("verify", "build_decay_bundle", "verify.decay_bundle"),
    ("verify", "monitor_monotone", "verify.monitor"),
    ("verify", "check_decay_suite", "verify.monitor"),
    ("verify", "run_identity_battery", "verify.identity_battery"),
    ("verify", "check_pohozaev_A", "verify.identity_battery"),
    ("verify", "check_pohozaev_E", "verify.identity_battery"),
]


def _rows(pts) -> int:
    shape = getattr(pts, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _count(tracer, target: str, args, result):
    """Work counts taken at the boundary, from arguments and results."""
    c = tracer.counts
    if target == "Trajectory.sample_state":
        c["solver.sample_state_calls"] += 1
    elif target == "run_until_blowup":
        steps = result.center_t.size - 1
        c["solver.steps"] += steps
        c["solver.node_steps"] += steps * result.grid.nr
        c["solver.frames"] += result.frames_t.size
        c["solver.frame_bytes"] += (result.frames_t.nbytes + result.frames_u.nbytes
                                    + result.frames_ut.nbytes)
    elif target == "load_run":
        traj = result[1]
        c["runio.load_runs"] += 1
        c["runio.frame_bytes_read"] += (traj.frames_t.nbytes + traj.frames_u.nbytes
                                        + traj.frames_ut.nbytes)
    elif target == "sha256_file":
        c["runio.bytes_hashed"] += os.path.getsize(args[0])
    elif target == "build_snapshots":
        c["runio.build_snapshots_calls"] += 1
    elif target in ("build_rule", "sphere_rule"):
        c["quadrature.rules_built"] += 1
    elif target == "to_similarity":
        c["similarity.snapshots"] += 1
    elif target in ("WeightedPoly.value", "WeightedPoly.grad", "WeightedPoly.hess"):
        c["similarity.testfield_nodes"] += _rows(args[1])
    elif target == "evaluate_series":
        c["functionals.series"] += 1
    elif target == "fit_blowup":
        c["ode.fit_calls"] += 1
    elif target == "lemma_rhs":
        c["verify.lemma_rhs_calls"] += 1
    elif target in ("check_pohozaev_A", "check_pohozaev_E"):
        c["verify.pohozaev_checks"] += 1


class Tracer:
    """Spans kept in memory: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._stack: list = []
        self._saved: list = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, target: str):
        tracer = self
        if target == "SimilaritySnapshot.on":
            def wrapper(snap, rule, *args, **kw):
                c = tracer.counts
                c["similarity.resample_calls"] += 1
                if id(rule) in snap._samples:
                    c["similarity.resample_hits"] += 1
                else:
                    c["similarity.resample_nodes"] += rule.points.shape[0]
                idx = tracer.open(name)
                try:
                    return fn(snap, rule, *args, **kw)
                finally:
                    tracer.close(idx)
        else:
            def wrapper(*args, **kw):
                idx = tracer.open(name)
                try:
                    result = fn(*args, **kw)
                finally:
                    tracer.close(idx)
                _count(tracer, target, args, result)
                return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target)
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap every WRAPPED function wherever sswave binds it."""
        for modname in {m for m, _t, _n in WRAPPED}:
            importlib.import_module(f"sswave.{modname}")
        mods = {n: m for n, m in sys.modules.items()
                if n == "sswave" or n.startswith("sswave.")}
        for modname, target, name in WRAPPED:
            owner = mods[f"sswave.{modname}"]
            *path, attr = target.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr] if path else getattr(owner, attr)
            wrapped = self._wrap(orig, name, target)
            if path:
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self, lo: int = 0, hi: int | None = None) -> dict:
        """{name: (calls, total_s, self_s)} over spans[lo:hi]."""
        spans = self.spans[lo:hi]
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= lo:
                child[parent - lo] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _parent) in enumerate(spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += t1 - t0
            agg[2] += (t1 - t0) - child[i]
        return {k: tuple(v) for k, v in out.items()}
