"""Run directories, config parsing, manifests, and the CLI command bodies.

A run directory is the unit of provenance: `simulate` writes the trajectory
(frames as raw .npy arrays, center series as CSV), later commands read it
back and record functional series and the checks `verify` decides on it.
Identical config reproduces byte-identical CSV/npy output; the manifest
records the checksum and size of every file a stage wrote.

Config files are sectioned key=value text (INI); every field has a default
and the fully resolved config is echoed into the run directory.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .core import FunctionalSeries, RadialGrid, make_exponents
from .quadrature import RuleTable, check_rule
from .solver import FAMILIES, STATUSES, SolverConfig, Trajectory, run_until_blowup
from .similarity import trajectory_to_w
from . import functionals as fu
from . import verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_BLOWUP = 3


class ConfigError(ValueError):
    pass


class NoBlowupError(RuntimeError):
    """The run directory holds no blow-up trajectory to analyse."""


SUITES = ("identities", "lemmas", "monotone", "decay", "all")
FRAMES = ("frames_t", "frames_u", "frames_ut")


def _finite(val: str) -> float:
    x = float(val)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _auto_or_float(val: str):
    return val if val == "auto" else _finite(val)


def _family(val: str) -> str:
    if val not in FAMILIES:
        raise ValueError(f"expected one of {FAMILIES}")
    return val


# section -> key -> (default text, parser of the text)
SCHEMA = {
    "exponents": {"p": ("4.0", _finite), "N": ("3", int)},
    "solver": {
        "nr": ("1024", int), "r_max_factor": ("1.5", _finite),
        "cfl": ("0.45", _finite), "amp_safety": ("0.02", _finite),
        "u_cap": ("1e8", _finite), "max_steps": ("2000000", int),
        "store_ds": ("0.02", _finite), "family": ("ode_plateau", _family),
        "T": ("1.0", _finite), "core_frac": ("1.15", _finite),
        "taper_frac": ("1.4", _finite), "amplitude": ("5.0", _finite),
        "width": ("0.35", _finite), "fit_amp_min": ("1e3", _finite),
    },
    "similarity": {
        "x0": ("0.0", _finite), "T0": ("auto", _auto_or_float),
        "s_lo": ("auto", _auto_or_float), "s_hi": ("auto", _auto_or_float),
        "ds": ("0.05", _finite), "n_radial": ("48", int), "n_angular": ("1", int),
    },
    "functionals": {
        "names": ("E0,E,F0,E_eps,J_eps,G_eps,N_eps,I_eps,L_eps,M,U1,F1,singularLp1", str),
        "eps": ("0.6", _finite), "k": ("1", int), "k_max": ("6", int),
        "sigma": ("1.0", _finite),
    },
}


def parse_config(path: str | None) -> dict:
    """Resolve a config file over the defaults; None means pure defaults.

    Returns the text of every value; a value its parser rejects is a
    ConfigError here, before any stage runs.
    """
    cfg = {sec: {key: default for key, (default, _parse) in keys.items()}
           for sec, keys in SCHEMA.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error in {path}: {exc}") from exc
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for sec in parser.sections():
            if sec not in cfg:
                raise ConfigError(f"unknown config section [{sec}] in {path}")
            for key, val in parser.items(sec):
                if key not in cfg[sec]:
                    raise ConfigError(
                        f"unknown key '{key}' in section [{sec}] of {path}")
                cfg[sec][key] = val
    typed(cfg)
    return cfg


def typed(cfg: dict) -> dict:
    """{section: {key: value}}, every value parsed from its text."""
    out = {}
    for sec, keys in SCHEMA.items():
        out[sec] = {}
        for key, (_default, parse) in keys.items():
            val = cfg[sec][key]
            try:
                out[sec][key] = parse(val)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{sec}] {key} = {val!r}: {exc}") from exc
    return out


def config_text(cfg: dict) -> str:
    buf = io.StringIO()
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for sec, vals in cfg.items():
        parser[sec] = vals
    parser.write(buf)
    return buf.getvalue()


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()


def solver_config(cfg: dict) -> SolverConfig:
    """The solver section is SolverConfig's fields, plus the grid's size."""
    vals = typed(cfg)
    solver = dict(vals["solver"])
    r_max = solver.pop("r_max_factor") * solver["T"]
    try:
        return SolverConfig(e=make_exponents(**vals["exponents"]),
                            grid=RadialGrid(r_max=r_max, nr=solver.pop("nr")),
                            **solver)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


# ---------------------------------------------------------------------------
# file helpers

def write_csv(path: str, header: list[str], columns: list) -> str:
    """RFC-4180 CSV, UTF-8, '.' decimal, %.17g round-trip precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in zip(*columns):
            wr.writerow([f"{v:.17g}" if isinstance(v, float) or isinstance(v, np.floating)
                         else str(v) for v in row])
    return path


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True, default=float)
    return path


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read(path: str, load):
    """load(fh) of the file at path, opened in binary; a file that cannot be
    read or parsed is a ConfigError."""
    try:
        with open(path, "rb") as fh:
            return load(fh)
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigError(f"unreadable {path}: {exc}") from exc


def read_manifest(run_dir: str) -> dict | None:
    """The run directory's manifest.json, None if it has none; anything but
    an object with a "files" object is a ConfigError."""
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        return None
    doc = _read(path, json.load)
    if not (isinstance(doc, dict) and isinstance(doc.get("files"), dict)):
        raise ConfigError(f'manifest {path} is not an object with a "files" object')
    return doc


def update_manifest(run_dir: str, config_hash: str, written: list[str]):
    """Record the checksum and size of each file a stage wrote.

    Entries of other files keep the checksums their own stage recorded,
    unless the manifest belongs to another config: then it starts afresh.
    """
    path = os.path.join(run_dir, "manifest.json")
    old = read_manifest(run_dir)
    files = old["files"] if old and old.get("config_hash") == config_hash else {}
    for p in written:
        files[os.path.relpath(p, run_dir)] = {"sha256": sha256_file(p),
                                              "bytes": os.path.getsize(p)}
    write_json(path, {"config_hash": config_hash, "version": __version__,
                      "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                      "files": files})


def write_series(run_dir: str, ser: FunctionalSeries, provenance: dict) -> list[str]:
    """CSV (s,value,tail_bound) + JSON sidecar."""
    tail = (ser.tail_bound if ser.tail_bound is not None
            else np.zeros_like(ser.s))
    return [write_csv(os.path.join(run_dir, f"{ser.name}.csv"),
                      ["s", "value", "tail_bound"], [ser.s, ser.values, tail]),
            write_json(os.path.join(run_dir, f"{ser.name}.json"),
                       {"name": ser.name, "meta": ser.meta, "provenance": provenance})]


# ---------------------------------------------------------------------------
# commands

def functional_specs(names: str, vals: dict) -> list:
    """The FunctionalSpec of each name in the comma list, at the eps, k and
    sigma of the [functionals] values; a name or value that the spec
    rejects is a ConfigError."""
    try:
        return [fu.FunctionalSpec(n.strip(), vals["eps"], vals["k"], vals["sigma"])
                for n in names.split(",") if n.strip()]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_and_solve(cfg: dict, out_dir: str):
    """Check the config, its [similarity] rule and [functionals] specs
    included, and out_dir's manifest; run the solver on it, then echo the
    config into out_dir (a solve that fails leaves out_dir as it was)."""
    scfg = solver_config(cfg)
    vals = typed(cfg)
    sim, fun = vals["similarity"], vals["functionals"]
    try:
        check_rule(scfg.e.N, 0.0, sim["n_radial"], sim["n_angular"])
    except (ValueError, NotImplementedError) as exc:
        raise ConfigError(f"invalid [similarity] rule: {exc}") from exc
    if not sim["ds"] > 0.0:
        raise ConfigError(f"invalid [similarity] ds = {sim['ds']}: must be positive")
    functional_specs(fun["names"], fun)
    # whatever the names: the lemma and monotone suites read eps and k_max,
    # and `functionals --names` may select a ladder at k
    if not fun["eps"] > 0.0:
        raise ConfigError(f"invalid [functionals] eps = {fun['eps']}: must be positive")
    if fun["k"] < 1:
        raise ConfigError(f"invalid [functionals] k = {fun['k']}: must be >= 1")
    if fun["k_max"] < 0:
        raise ConfigError(f"invalid [functionals] k_max = {fun['k_max']}: must be >= 0")
    read_manifest(out_dir)
    traj = run_until_blowup(scfg)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved.ini"), "w",
              encoding="utf-8") as fh:
        fh.write(config_text(cfg))
    return scfg, traj


def cmd_simulate(config_path: str | None, out_dir: str, dump_raw: bool = False,
                 verbose: bool = False) -> int:
    cfg = parse_config(config_path)
    scfg, traj = _resolve_and_solve(cfg, out_dir)
    if verbose:
        print(f"simulate: status={traj.status} steps={traj.center_t.size} "
              f"frames={traj.frames_t.size} T_est={traj.T_est}")

    written = [os.path.join(out_dir, "config.resolved.ini")]
    for name in FRAMES:
        written.append(os.path.join(out_dir, f"{name}.npy"))
        np.save(written[-1], getattr(traj, name))
    written.append(write_csv(os.path.join(out_dir, "center.csv"),
                             ["t", "u_center", "u_max"],
                             [traj.center_t, traj.center_u, traj.max_u]))
    written.append(write_json(os.path.join(out_dir, "t_est.json"), {
        "status": traj.status,
        "T_est": traj.T_est,
        "exponent": traj.fit.exponent if traj.fit else None,
        "r2": traj.fit.r2 if traj.fit else None,
        "expected_exponent": -scfg.e.two_over_pm1,
        "n_frames": int(traj.frames_t.size)}))
    if dump_raw:
        idx = np.arange(0, traj.frames_t.size, max(1, traj.frames_t.size // 50))
        written.append(write_csv(os.path.join(out_dir, "raw.csv"), ["t", "r", "u", "ut"], [
            np.repeat(traj.frames_t[idx], traj.grid.nr), np.tile(traj.grid.nodes, idx.size),
            traj.frames_u[idx].ravel(), traj.frames_ut[idx].ravel()]))
    update_manifest(out_dir, config_hash(cfg), written)
    return EXIT_OK if traj.status == "blowup" else EXIT_NO_BLOWUP


def load_run(run_dir: str):
    """(cfg, Trajectory) of the blow-up a run directory holds, once its config
    has the manifest's hash, its frame files and t_est.json the manifest's
    byte sizes (a stat: the checksums wait for a full check) and its frames
    one row of nr values per time; NoBlowupError for a run without blow-up."""
    cfg = parse_config(os.path.join(run_dir, "config.resolved.ini"))
    manifest = read_manifest(run_dir)
    if manifest is None:
        raise ConfigError(f"missing manifest.json in {run_dir}")
    if manifest.get("config_hash") != config_hash(cfg):
        raise ConfigError(f"config.resolved.ini in {run_dir} does not have the "
                          f"config_hash its manifest records")
    for name in [f"{n}.npy" for n in FRAMES] + ["t_est.json"]:
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            raise ConfigError(f"missing trajectory artifact {name} in {run_dir}")
        entry = manifest["files"].get(name)
        recorded = entry.get("bytes") if isinstance(entry, dict) else None
        if recorded is None:
            raise ConfigError(f"manifest of {run_dir} has no entry for {name}")
        if os.path.getsize(path) != recorded:
            raise ConfigError(f"{name} in {run_dir} is {os.path.getsize(path)} bytes, "
                              f"but the manifest records {recorded}")
    status = _read(os.path.join(run_dir, "t_est.json"), json.load)
    if not (isinstance(status, dict) and status.get("status") in STATUSES):
        raise ConfigError(f"t_est.json in {run_dir} is not an object with a "
                          f'"status" in {STATUSES}')
    if status["status"] != "blowup":
        raise NoBlowupError(f"{run_dir} holds no blow-up trajectory "
                            f"(status {status['status']}); nothing to analyse")
    T_est = status.get("T_est")
    if not (isinstance(T_est, float) and 0.0 < T_est < math.inf):
        raise ConfigError(f"t_est.json in {run_dir} records the blow-up time "
                          f"{T_est!r}, not a finite positive number")
    scfg = solver_config(cfg)
    frames = {name: _read(os.path.join(run_dir, f"{name}.npy"), np.load) for name in FRAMES}
    n = frames["frames_t"].size
    want = [(n,), (n, scfg.grid.nr), (n, scfg.grid.nr)]
    got = [frames[name].shape for name in FRAMES]
    if got != want:
        raise ConfigError(f"the frames in {run_dir} have the shapes {got}, not {want}")
    traj = Trajectory(
        e=scfg.e, grid=scfg.grid, **frames,
        center_t=np.array([]), center_u=np.array([]), max_u=np.array([]),
        status=status["status"], T_est=T_est)
    return cfg, traj


def build_snapshots(cfg: dict, traj):
    """The [similarity] rules and the snapshots of its s-window, centred at
    x0.  A window that the run cannot supply is a ConfigError: one that is
    empty, reaches a time outside the stored frames, or whose largest ball
    x0 + (T0 - t) y leaves the radial grid."""
    sim = typed(cfg)["similarity"]
    rules = RuleTable(traj.e.N, n_radial=sim["n_radial"], n_angular=sim["n_angular"])
    s_lo = -math.log(traj.T_est) + 0.75 if sim["s_lo"] == "auto" else sim["s_lo"]
    s_hi = traj.s_max_covered - 0.5 if sim["s_hi"] == "auto" else sim["s_hi"]
    if s_hi <= s_lo:
        raise ConfigError(f"empty snapshot window [{s_lo}, {s_hi}]")
    s_grid = np.arange(s_lo, s_hi + 1e-9, sim["ds"])
    T0 = traj.T_est if sim["T0"] == "auto" else sim["T0"]
    # T0 - e^(-s) increases with s: the window's ends bound its times
    t_first, t_last = T0 - math.exp(-s_grid[0]), T0 - math.exp(-s_grid[-1])
    frames_t = traj.frames_t
    if not (frames_t[0] <= t_first and t_last <= frames_t[-1]):
        raise ConfigError(
            f"[similarity] s_lo, s_hi, T0: the window s in [{s_grid[0]}, {s_grid[-1]}] "
            f"needs t in [{t_first}, {t_last}], but the run stores t in "
            f"[{frames_t[0]}, {frames_t[-1]}]")
    reach = abs(sim["x0"]) + (T0 - t_first)
    if reach > traj.grid.r_max * (1.0 + 1e-12):
        raise ConfigError(
            f"[similarity] x0, s_lo: the ball of radius {T0 - t_first} at |x0| = "
            f"{abs(sim['x0'])} reaches r = {reach}, past r_max = {traj.grid.r_max}")
    snaps = trajectory_to_w(traj, traj.e, sim["x0"], T0, s_grid, rules.plain)
    return rules, snaps


def export_snapshots(run_dir: str, snaps) -> str:
    """Snapshot node data: s, node coordinates, w, ws, |gw|, |gw_r|, |gw_th|,
    one row per snapshot and node."""
    ns, pts = snaps.base, snaps.rule.points
    m, K = ns.w.shape
    cols = {"s": np.repeat(snaps.s, K)}
    cols.update({f"y{d}": np.tile(pts[:, d], m) for d in range(pts.shape[1])})
    cols.update(w=ns.w.ravel(), ws=ns.ws.ravel(), grad=np.sqrt(ns.g2).ravel(),
                grad_r=np.sqrt(ns.gr2).ravel(), grad_theta=np.sqrt(ns.gth2).ravel())
    return write_csv(os.path.join(run_dir, "snapshots.csv"), list(cols),
                     list(cols.values()))


def cmd_functionals(run_dir: str, selection: str | None = None,
                    dump_snapshots: bool = False, verbose: bool = False) -> int:
    cfg, traj = load_run(run_dir)
    vals = typed(cfg)["functionals"]
    specs = functional_specs(selection or vals["names"], vals)
    if not specs:
        raise ConfigError(f"no functional selected by {selection or vals['names']!r}")
    rules, snaps = build_snapshots(cfg, traj)
    provenance = {
        "run_dir": os.path.abspath(run_dir),
        "frames_sha256": sha256_file(os.path.join(run_dir, "frames_u.npy")),
        **{key: vals[key] for key in ("eps", "k", "sigma")},
    }
    written = []
    for spec in specs:
        ser = fu.evaluate_series(spec, snaps, rules, traj.e)
        written += write_series(run_dir, ser, provenance)
        if verbose:
            print(f"functionals: wrote {ser.name} ({len(ser)} samples)")
    if dump_snapshots:
        written.append(export_snapshots(run_dir, snaps))
    update_manifest(run_dir, config_hash(cfg), written)
    return EXIT_OK


def cmd_verify(run_dir: str | None, suite: str, seed: int = 0,
               verbose: bool = False) -> int:
    """Verification suites; exit 1 iff any check fails.

    'identities' runs on static fields (no run dir needed); 'lemmas',
    'monotone' and 'decay' need a simulated run; 'all' runs whatever its
    inputs allow.  The reports go to RUN_DIR/verify_<suite>.{json,txt}
    (the working directory without a run dir), and into the manifest when
    a run was checked.
    """
    if suite not in SUITES:
        raise ConfigError(f"unknown suite '{suite}', expected one of {SUITES}")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    reports: list[dict] = []

    if suite in ("identities", "all"):
        reports += verify.identity_suite(seed)

    cfg = None
    if suite != "identities" and run_dir is not None:
        cfg, traj = load_run(run_dir)
        rules, snaps = build_snapshots(cfg, traj)
        vals = typed(cfg)
        if suite in ("lemmas", "all"):
            reports += verify.lemma_suite(snaps, rules, traj.e, vals["functionals"]["eps"],
                                          vals["similarity"]["ds"], traj.grid.dr)
        if suite in ("monotone", "all"):
            reports += verify.monotone_suite(snaps, rules, traj.e,
                                             vals["functionals"]["k_max"])
        if suite in ("decay", "all"):
            reports += verify.check_decay_suite(
                verify.build_decay_bundle(snaps, rules, traj.e))

    ok = all(r.get("passed", False) for r in reports)
    lines = [f"{'PASS' if r.get('passed') else 'FAIL'}  {r['name']}" for r in reports]
    text = "\n".join(lines) + f"\n{'OK' if ok else 'FAILURES'}: " \
        f"{sum(bool(r.get('passed')) for r in reports)}/{len(reports)} checks passed\n"
    out_dir = run_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"verify_{suite}")
    written = [write_json(out_path + ".json", reports), out_path + ".txt"]
    with open(written[1], "w", encoding="utf-8") as fh:
        fh.write(text)
    if cfg is not None:
        update_manifest(run_dir, config_hash(cfg), written)
    if verbose:
        print(text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_rate(run_dir: str, q: float, verbose: bool = False) -> int:
    if not (math.isfinite(q) and q >= 0.0):
        raise ConfigError(f"--q must be finite and >= 0, got {q}")
    cfg, traj = load_run(run_dir)
    rep = fu.theorem_quantities(traj, traj.e, traj.T_est, q=q)
    written = []
    for ser in rep.series.values():
        written += write_series(run_dir, ser, {"q": q})
    verdict = verify.rate_verdict(rep, q)
    written.append(write_json(os.path.join(run_dir, "rate_verdict.json"), verdict))
    update_manifest(run_dir, config_hash(cfg), written)
    if verbose:
        print(json.dumps(verdict, indent=1, sort_keys=True, default=float))
    ok = all(verdict[key] for key in verify.RATE_VERDICTS)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _sweep_one(args):
    """One sweep point: its run and `verify --suite monotone` on it.  A window
    that cannot be built fails both verdicts, with a note on stderr."""
    cfg, out_dir = args
    scfg, traj = _resolve_and_solve(cfg, out_dir)
    row = {"p": scfg.e.p, "N": scfg.e.N, "status": traj.status,
           "T_est": traj.T_est if traj.T_est else math.nan,
           "exponent": traj.fit.exponent if traj.fit else math.nan,
           "F0_monotone": False, "ladder_monotone": False}
    if traj.status == "blowup":
        try:
            rules, snaps = build_snapshots(cfg, traj)
            f0_rep, *ladder = verify.monotone_suite(snaps, rules, traj.e,
                                                    typed(cfg)["functionals"]["k_max"])
        except ValueError as exc:
            # ConfigError included: one point's window is not the sweep's usage error
            print(f"sweep: p={scfg.e.p} N={scfg.e.N}: window not checked: "
                  f"ValueError: {exc}", file=sys.stderr)
        else:
            row["F0_monotone"] = f0_rep["passed"]
            row["ladder_monotone"] = all(r["passed"] for r in ladder)
    return row


def cmd_sweep(config_path: str | None, p_list, N_list, out_dir: str,
              jobs: int = 1, verbose: bool = False) -> int:
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    base = parse_config(config_path)
    pairs = [(p, N) for p in p_list for N in N_list]
    if not pairs:
        raise ConfigError(f"--p-list {p_list} and --N-list {N_list} "
                          f"select no (p, N) pair")
    for flag, vals in (("--p-list", p_list), ("--N-list", N_list)):
        repeated = sorted({v for v in vals if vals.count(v) > 1})
        if repeated:
            raise ConfigError(f"{flag} repeats {', '.join(map(repr, repeated))}: "
                              f"each (p, N) point is solved once, into its own directory")
    bad = []
    for p, N in pairs:
        try:
            make_exponents(p, N)
        except ValueError as exc:
            bad.append(f"(p={p}, N={N}): {exc}")
    if bad:
        raise ConfigError("invalid sweep pairs rejected before launch: "
                          + "; ".join(bad))
    read_manifest(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    tasks = [({**base, "exponents": {"p": repr(p), "N": repr(N)}},
              os.path.join(out_dir, f"p{p}_N{N}")) for p, N in pairs]
    # a pool forks all its workers on the first submit: no more than points
    workers = min(jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as ex:
            rows = list(ex.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]
    cols = ["p", "N", "status", "T_est", "exponent", "F0_monotone", "ladder_monotone"]
    written = [write_csv(os.path.join(out_dir, "aggregate.csv"), cols,
                         [[row[c] for row in rows] for c in cols])]
    if verbose:
        for row in rows:
            print(row)
    written += [os.path.join(d, "config.resolved.ini") for _cfg, d in tasks]
    update_manifest(out_dir, config_hash(base), written)
    return EXIT_OK
