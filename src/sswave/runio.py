"""Run directories, config parsing, manifests, and the CLI command bodies.

A run directory is the unit of provenance: `simulate` writes the trajectory
(frames as raw .npy arrays, center series as CSV), later commands read it
back and record functional series and the checks `verify` decides on it,
and store the quadrature rules they built (rules.json) for the next.
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
import mmap
import os
import sys
import time

import numpy as np

from . import __version__
from .core import FunctionalSeries, RadialGrid, make_exponents
from .quadrature import RuleTable, check_rule
from .solver import (FAMILIES, R_MAX_FACTOR, STATUSES, SolverConfig, Trajectory,
                     run_until_blowup)
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
RULES = "rules.json"   # the run's rule store: RuleTable.stored() data


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
        "nr": ("1024", int), "u_cap": ("1e8", _finite), "max_steps": ("2000000", int),
        "store_ds": ("0.02", _finite), "family": ("ode_plateau", _family),
        "T": ("1.0", _finite), "amplitude": ("5.0", _finite), "width": ("0.35", _finite),
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


def parse_config(path: str | None) -> tuple[dict, dict]:
    """Resolve a config file over the defaults; None means pure defaults.

    Returns the text of every value and the values typed: a value its
    parser rejects is a ConfigError here, before any stage runs.
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
    return cfg, typed(cfg)


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


def solver_config(vals: dict) -> SolverConfig:
    """The solver section is SolverConfig's fields, plus the grid's size."""
    solver = dict(vals["solver"])
    try:
        return SolverConfig(e=make_exponents(**vals["exponents"]),
                            grid=RadialGrid(r_max=R_MAX_FACTOR * solver["T"],
                                            nr=solver.pop("nr")),
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


def replace_file(path: str, write) -> str:
    """write(fh) into a temporary file beside path, opened in binary, then
    rename it over path: a reader that has opened or mapped the old file
    keeps reading it whole."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        write(fh)
    os.replace(tmp, path)
    return path


def _bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read(path: str, load):
    """load(path); a file it cannot read or parse is a ConfigError."""
    try:
        return load(path)
    except (OSError, ValueError, TypeError, EOFError) as exc:
        raise ConfigError(f"unreadable {path}: {exc}") from exc


def _map_npy(path: str) -> np.ndarray:
    """A .npy file's array over a read-only shared map of the file (its base)."""
    fmt = np.lib.format
    with open(path, "rb") as fh:
        version = fmt.read_magic(fh)
        if version not in ((1, 0), (2, 0)):
            raise ValueError(f"unsupported .npy format version {version}")
        read = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        shape, fortran, dtype = read(fh)
        if dtype.hasobject:
            raise ValueError("an array of Python objects cannot be mapped")
        return np.ndarray(shape, dtype, offset=fh.tell(), order="F" if fortran else "C",
                          buffer=mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ))


def read_manifest(run_dir: str) -> dict | None:
    """run_dir's manifest.json, None if it has none; anything but an
    object with a "files" object of {"sha256", "bytes"} entries is a
    ConfigError."""
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        return None
    doc = _read(path, lambda p: json.loads(_bytes(p)))
    files = doc.get("files") if isinstance(doc, dict) else None
    if not (isinstance(files, dict) and all(
            isinstance(e, dict) and {"sha256", "bytes"} <= e.keys()
            for e in files.values())):
        raise ConfigError(f'manifest {path} is not an object with a "files" '
                          f'object of sha256 and byte-size entries')
    return doc


def read_artifact(run_dir: str, manifest: dict, name: str):
    """The file `name` of run_dir once it matches its manifest
    entry, else a ConfigError.  A frame file (.npy) is checked by
    its byte size, then mapped read-only (_map_npy): a stage holds
    only the frames of the block sample_state reads.  A JSON file
    is checked by the sha256 of the bytes it is parsed from."""
    entry = manifest["files"].get(name)
    if entry is None:
        raise ConfigError(f"manifest of {run_dir} has no entry for {name}")
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        raise ConfigError(f"missing {name} in {run_dir}, which its "
                          f"manifest lists")
    if name.endswith(".npy"):
        size = os.path.getsize(path)
        if size != entry["bytes"]:
            raise ConfigError(f"{name} in {run_dir} is {size} bytes, "
                              f"but the manifest records {entry['bytes']}")
        return _read(path, _map_npy)
    # one read: the bytes hashed are the bytes parsed
    blob = _read(path, _bytes)
    if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
        raise ConfigError(f"{name} in {run_dir} does not have the sha256 "
                          f"its manifest records")
    return _read(path, lambda _path: json.loads(blob))


def update_manifest(run_dir: str, old: dict | None, config_hash: str,
                    written: list[str]):
    """Write the manifest: old, the one the stage read (or
    None), with the checksum and size of each file the stage wrote.
    Other entries keep what their stage recorded, unless old is
    another config's: then the manifest starts afresh."""
    path = os.path.join(run_dir, "manifest.json")
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

def functional_names(names: str) -> list:
    """The names in the comma list; one that is not in FUNCTIONAL_NAMES is
    a ConfigError."""
    out = [n.strip() for n in names.split(",") if n.strip()]
    unknown = [n for n in out if n not in fu.FUNCTIONAL_NAMES]
    if unknown:
        raise ConfigError(f"unknown functional '{unknown[0]}', "
                          f"expected one of {fu.FUNCTIONAL_NAMES}")
    return out


def check_centre(sim: dict):
    """ConfigError for x0 != 0 on the one-ray rule, exact for radial profiles only."""
    if sim["x0"] != 0.0 and sim["n_angular"] == 1:
        raise ConfigError(f"[similarity] x0 = {sim['x0']} needs n_angular >= 2: "
                          f"n_angular = 1 integrates along one ray, which is exact "
                          f"only for a ball centred at the origin")


def check_solve(vals: dict, out_dir: str):
    """(SolverConfig, out_dir's manifest or None) once the
    typed config and out_dir's manifest pass every check that a
    solve makes before it runs."""
    scfg = solver_config(vals)
    sim, fun = vals["similarity"], vals["functionals"]
    try:
        check_rule(scfg.e.N, 0.0, sim["n_radial"], sim["n_angular"])
    except (ValueError, NotImplementedError) as exc:
        raise ConfigError(f"invalid [similarity] rule: {exc}") from exc
    check_centre(sim)
    if not sim["ds"] > 0.0:
        raise ConfigError(f"invalid [similarity] ds = {sim['ds']}: must be positive")
    functional_names(fun["names"])
    # whatever the names: the lemma and monotone suites read eps and k_max,
    # and `functionals --names` may select a ladder at k
    if not fun["eps"] > 0.0:
        raise ConfigError(f"invalid [functionals] eps = {fun['eps']}: must be positive")
    if fun["k"] < 1:
        raise ConfigError(f"invalid [functionals] k = {fun['k']}: must be >= 1")
    if fun["k_max"] < 0:
        raise ConfigError(f"invalid [functionals] k_max = {fun['k_max']}: must be >= 0")
    return scfg, read_manifest(out_dir)


def _resolve_and_solve(cfg: dict, vals: dict, out_dir: str):
    """(SolverConfig, Trajectory, manifest): check_solve,
    the solve, then the config echoed into out_dir (a solve that
    fails leaves out_dir as it was)."""
    scfg, manifest = check_solve(vals, out_dir)
    traj = run_until_blowup(scfg)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved.ini"), "w",
              encoding="utf-8") as fh:
        fh.write(config_text(cfg))
    return scfg, traj, manifest


def cmd_simulate(config_path: str | None, out_dir: str, dump_raw: bool = False,
                 verbose: bool = False) -> int:
    cfg, vals = parse_config(config_path)
    scfg, traj, manifest = _resolve_and_solve(cfg, vals, out_dir)
    if verbose:
        print(f"simulate: status={traj.status} steps={traj.center_t.size} "
              f"frames={traj.frames_t.size} T_est={traj.T_est}")

    written = [os.path.join(out_dir, "config.resolved.ini")]
    for name in FRAMES:
        arr = getattr(traj, name)
        written.append(replace_file(os.path.join(out_dir, f"{name}.npy"),
                                    lambda fh: np.save(fh, arr)))
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
    update_manifest(out_dir, manifest, config_hash(cfg), written)
    return EXIT_OK if traj.status == "blowup" else EXIT_NO_BLOWUP


def load_run(run_dir: str):
    """(typed config, Trajectory, manifest) of the blow-up in
    run_dir, once the config has the manifest's hash, the frames
    and t_est.json pass read_artifact and the frames are one row of
    nr values per time; NoBlowupError for a run without blow-up."""
    cfg, vals = parse_config(os.path.join(run_dir, "config.resolved.ini"))
    manifest = read_manifest(run_dir)
    if manifest is None:
        raise ConfigError(f"missing manifest.json in {run_dir}")
    if manifest.get("config_hash") != config_hash(cfg):
        raise ConfigError(f"config.resolved.ini in {run_dir} does not have the "
                          f"config_hash its manifest records")
    frames = {n: read_artifact(run_dir, manifest, f"{n}.npy")
              for n in FRAMES}
    status = read_artifact(run_dir, manifest, "t_est.json")
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
    scfg = solver_config(vals)
    n = frames["frames_t"].size
    want = [(n,), (n, scfg.grid.nr), (n, scfg.grid.nr)]
    got = [frames[name].shape for name in FRAMES]
    if got != want:
        raise ConfigError(f"the frames in {run_dir} have the shapes {got}, not {want}")
    traj = Trajectory(
        e=scfg.e, grid=scfg.grid, **frames,
        center_t=np.array([]), center_u=np.array([]), max_u=np.array([]),
        status=status["status"], T_est=T_est)
    return vals, traj, manifest


def seed_rules(run_dir: str, manifest: dict, rules: RuleTable):
    """Seed the table from the run's rule store if its manifest
    lists one (an unlisted store is another config's, ignored and
    rebuilt); a store that read_artifact or the table rejects is a
    ConfigError."""
    if RULES not in manifest["files"]:
        return
    doc = read_artifact(run_dir, manifest, RULES)
    try:
        if not isinstance(doc, dict):
            raise ValueError("not an object")
        rules.seed(doc)
    except (ValueError, TypeError) as exc:
        path = os.path.join(run_dir, RULES)
        raise ConfigError(f"invalid rule store {path}: {exc}") from exc


def store_rules(run_dir: str, rules: RuleTable) -> list[str]:
    """[the rule store's path] after rewriting it, if the table built a rule
    it was not seeded with; [] otherwise."""
    if not rules.built:
        return []
    blob = json.dumps(rules.stored(), sort_keys=True).encode()
    return [replace_file(os.path.join(run_dir, RULES), lambda fh: fh.write(blob))]


def build_snapshots(vals: dict, traj, run_dir: str | None,
                    manifest: dict | None, span: float | None = None):
    """The [similarity] rules and the snapshots of its
    s-window, centred at x0: the rules seeded from run_dir's store
    when given, only the window's first span of s (and the next
    snapshot) transformed when a span is given.  A run of fewer
    than 4 frames, and a window that is empty, reaches a time
    outside the frames, or whose largest ball x0 + (T0 - t) y
    leaves the radial grid, is a ConfigError whatever the span, and so
    is an x0 off the origin with n_angular = 1 (check_centre)."""
    frames_t = traj.frames_t
    if frames_t.size < 4:
        raise ConfigError(f"the run stores {frames_t.size} frames, fewer than "
                          f"the 4 that interpolation in t needs: lower "
                          f"[solver] store_ds")
    sim = vals["similarity"]
    check_centre(sim)
    rules = RuleTable(traj.e.N, n_radial=sim["n_radial"], n_angular=sim["n_angular"])
    if run_dir is not None:
        seed_rules(run_dir, manifest, rules)
    s_lo = -math.log(traj.T_est) + 0.75 if sim["s_lo"] == "auto" else sim["s_lo"]
    s_hi = traj.s_max_covered - 0.5 if sim["s_hi"] == "auto" else sim["s_hi"]
    if s_hi <= s_lo:
        raise ConfigError(f"empty snapshot window [{s_lo}, {s_hi}]")
    s_grid = np.arange(s_lo, s_hi + 1e-9, sim["ds"])
    T0 = traj.T_est if sim["T0"] == "auto" else sim["T0"]
    # T0 - e^(-s) increases with s: the window's ends bound its times
    t_first, t_last = T0 - math.exp(-s_grid[0]), T0 - math.exp(-s_grid[-1])
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
    if span is not None:
        # the next snapshot too: a window [s0, s0 + span] taken from the
        # transformed s then selects the same rows as from the whole series
        s_grid = s_grid[:np.count_nonzero(s_grid <= s_grid[0] + span) + 1]
    snaps = trajectory_to_w(traj, traj.e, sim["x0"], T0, s_grid)
    return rules, snaps


def export_snapshots(run_dir: str, snaps, rule) -> str:
    """Snapshot node data on rule: s, node coordinates, w, ws, |gw|, |gw_r|,
    |gw_th|, one row per snapshot and node."""
    ns, pts = snaps.on(rule), rule.points
    m, K = ns.w.shape
    cols = {"s": np.repeat(snaps.s, K)}
    cols.update({f"y{d}": np.tile(pts[:, d], m) for d in range(pts.shape[1])})
    cols.update(w=ns.w.ravel(), ws=ns.ws.ravel(), grad=np.sqrt(ns.g2).ravel(),
                grad_r=np.sqrt(ns.gr2).ravel(), grad_theta=np.sqrt(ns.gth2).ravel())
    return write_csv(os.path.join(run_dir, "snapshots.csv"), list(cols),
                     list(cols.values()))


def cmd_functionals(run_dir: str, selection: str | None = None,
                    dump_snapshots: bool = False, verbose: bool = False) -> int:
    vals, traj, manifest = load_run(run_dir)
    fun = vals["functionals"]
    selection = fun["names"] if selection is None else selection
    names = functional_names(selection)
    if not names:
        raise ConfigError(f"no functional selected by {selection!r}")
    rules, snaps = build_snapshots(vals, traj, run_dir, manifest)
    provenance = {
        "run_dir": os.path.abspath(run_dir),
        # the checksum simulate recorded
        "frames_sha256": manifest["files"]["frames_u.npy"]["sha256"],
        **{key: fun[key] for key in ("eps", "k", "sigma")},
    }
    written = []
    for ser in fu.evaluate_series(names, snaps, rules, traj.e,
                                  fun["eps"], fun["k"], fun["sigma"]):
        written += write_series(run_dir, ser, provenance)
        if verbose:
            print(f"functionals: wrote {ser.name} ({len(ser)} samples)")
    if dump_snapshots:
        written.append(export_snapshots(run_dir, snaps, rules.plain))
    written += store_rules(run_dir, rules)
    update_manifest(run_dir, manifest, manifest["config_hash"], written)
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

    manifest = None
    if suite != "identities" and run_dir is not None:
        vals, traj, manifest = load_run(run_dir)
        # the lemma suite alone reads only the window's first LEMMA_SPAN
        span = verify.LEMMA_SPAN if suite == "lemmas" else None
        rules, snaps = build_snapshots(vals, traj, run_dir, manifest, span)
        fun = vals["functionals"]
        if suite in ("lemmas", "all"):
            reports += verify.lemma_suite(snaps, rules, traj.e, fun["eps"],
                                          vals["similarity"]["ds"], traj.grid.dr)
        if suite in ("monotone", "all"):
            reports += verify.monotone_suite(snaps, rules, traj.e,
                                             fun["k_max"])
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
    if manifest is not None:
        written += store_rules(run_dir, rules)
        update_manifest(run_dir, manifest, manifest["config_hash"], written)
    if verbose:
        print(text, end="")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_rate(run_dir: str, q: float, verbose: bool = False) -> int:
    if not (math.isfinite(q) and q >= 0.0):
        raise ConfigError(f"--q must be finite and >= 0, got {q}")
    _vals, traj, manifest = load_run(run_dir)
    try:
        rep = fu.theorem_quantities(traj, traj.e, traj.T_est, q=q)
    except ValueError as exc:
        raise ConfigError(f"cannot sample {run_dir}: "
                          f"{exc}") from exc
    written = []
    for ser in rep.series.values():
        written += write_series(run_dir, ser, {"q": q})
    verdict = verify.rate_verdict(rep, q)
    written.append(write_json(os.path.join(run_dir, "rate_verdict.json"), verdict))
    update_manifest(run_dir, manifest, manifest["config_hash"], written)
    if verbose:
        print(json.dumps(verdict, indent=1, sort_keys=True, default=float))
    ok = all(verdict[key] for key in verify.RATE_VERDICTS)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _sweep_one(args):
    """One sweep point: its run and `verify --suite monotone` on it.  A window
    that cannot be built fails both verdicts, with a note on stderr."""
    cfg, vals, out_dir = args
    scfg, traj, _ = _resolve_and_solve(cfg, vals, out_dir)
    row = {"p": scfg.e.p, "N": scfg.e.N, "status": traj.status,
           "T_est": traj.T_est if traj.T_est else math.nan,
           "exponent": traj.fit.exponent if traj.fit else math.nan,
           "F0_monotone": False, "ladder_monotone": False}
    if traj.status == "blowup":
        try:
            rules, snaps = build_snapshots(vals, traj, None, None)
            k_max = vals["functionals"]["k_max"]
            f0_rep, *ladder = verify.monotone_suite(snaps, rules, traj.e, k_max)
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
    base, _vals = parse_config(config_path)
    pairs = [(p, N) for p in p_list for N in N_list]
    if not pairs:
        raise ConfigError(f"--p-list {p_list} and --N-list {N_list} "
                          f"select no (p, N) pair")
    for flag, listed in (("--p-list", p_list), ("--N-list", N_list)):
        repeated = sorted({v for v in listed if listed.count(v) > 1})
        if repeated:
            raise ConfigError(f"{flag} repeats {', '.join(map(repr, repeated))}: "
                              f"each (p, N) point is solved once, into its own directory")
    # every point's checks before OUT is made
    tasks, bad = [], []
    for p, N in pairs:
        cfg = {**base, "exponents": {"p": repr(p), "N": repr(N)}}
        point = os.path.join(out_dir, f"p{p}_N{N}")
        try:
            vals = typed(cfg)
            check_solve(vals, point)
        except ConfigError as exc:
            bad.append(f"(p={p}, N={N}): {exc}")
        else:
            tasks.append((cfg, vals, point))
    if bad:
        raise ConfigError("invalid sweep pairs rejected before launch: "
                          + "; ".join(bad))
    manifest = read_manifest(out_dir)
    os.makedirs(out_dir, exist_ok=True)
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
    written += [os.path.join(d, "config.resolved.ini") for *_, d in tasks]
    update_manifest(out_dir, manifest, config_hash(base), written)
    return EXIT_OK
