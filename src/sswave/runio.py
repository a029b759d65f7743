"""Run directories, config parsing, manifests, and the CLI command bodies.

A run directory is the unit of provenance: `simulate` writes the trajectory
(frames as raw .npy arrays, center series as CSV), later commands read it
back and add functional series, verification reports and rate diagnostics.
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
from .quadrature import RuleTable, build_rule
from .solver import FAMILIES, SolverConfig, Trajectory, run_until_blowup
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


def _auto_or_float(val: str):
    return val if val == "auto" else float(val)


def _family(val: str) -> str:
    if val not in FAMILIES:
        raise ValueError(f"expected one of {FAMILIES}")
    return val


# section -> key -> (default text, parser of the text)
SCHEMA = {
    "exponents": {"p": ("4.0", float), "N": ("3", int)},
    "solver": {
        "nr": ("1024", int), "r_max_factor": ("1.5", float), "cfl": ("0.45", float),
        "amp_safety": ("0.02", float), "u_cap": ("1e8", float),
        "max_steps": ("2000000", int), "store_ds": ("0.02", float),
        "family": ("ode_plateau", _family), "T": ("1.0", float),
        "core_frac": ("1.15", float), "taper_frac": ("1.4", float),
        "amplitude": ("5.0", float), "width": ("0.35", float),
        "fit_amp_min": ("1e3", float),
    },
    "similarity": {
        "x0": ("0.0", float), "T0": ("auto", _auto_or_float),
        "s_lo": ("auto", _auto_or_float), "s_hi": ("auto", _auto_or_float),
        "ds": ("0.05", float), "n_radial": ("48", int), "n_angular": ("1", int),
    },
    "functionals": {
        "names": ("E0,E,F0,E_eps,J_eps,G_eps,N_eps,I_eps,L_eps,M,U1,F1,singularLp1", str),
        "eps": ("0.6", float), "k": ("1", int), "k_max": ("6", int),
        "sigma": ("1.0", float),
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


def update_manifest(run_dir: str, config_hash: str, written: list[str]):
    """Record the checksum and size of each file a stage wrote.

    Entries of other files keep the checksums their own stage recorded,
    unless the manifest belongs to another config: then it starts afresh.
    """
    path = os.path.join(run_dir, "manifest.json")
    files = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                old = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"unreadable manifest {path}: {exc}") from exc
        if old.get("config_hash") == config_hash:
            files = old["files"]
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

def _resolve_and_solve(cfg: dict, out_dir: str):
    """Check the config, its [similarity] rule included, echo it into out_dir,
    then run the solver on it."""
    scfg = solver_config(cfg)
    sim = typed(cfg)["similarity"]
    try:
        build_rule(scfg.e.N, 0.0, sim["n_radial"], sim["n_angular"])
    except (ValueError, NotImplementedError) as exc:
        raise ConfigError(f"invalid [similarity] rule: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved.ini"), "w",
              encoding="utf-8") as fh:
        fh.write(config_text(cfg))
    return scfg, run_until_blowup(scfg)


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


def _check_sizes(run_dir: str, names: list[str]):
    """Each named file has the byte size that manifest.json records for it.

    A stat only: a rewrite of the same size passes here, and the checksums
    stay in the manifest for a full check.
    """
    path = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(path):
        raise ConfigError(f"missing manifest.json in {run_dir}")
    try:
        with open(path, encoding="utf-8") as fh:
            files = json.load(fh)["files"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"unreadable manifest {path}: {exc!r}") from exc
    for name in names:
        recorded = files.get(name, {}).get("bytes")
        if recorded is None:
            raise ConfigError(f"manifest of {run_dir} has no entry for {name}")
        size = os.path.getsize(os.path.join(run_dir, name))
        if size != recorded:
            raise ConfigError(f"{name} in {run_dir} is {size} bytes, but the "
                              f"manifest records {recorded}")


def load_run(run_dir: str):
    """Rebuild (cfg, Trajectory) from a run directory whose frame files and
    t_est.json have the sizes its manifest records."""
    cpath = os.path.join(run_dir, "config.resolved.ini")
    if not os.path.exists(cpath):
        raise ConfigError(f"{run_dir} does not look like a run directory "
                          "(missing config.resolved.ini)")
    cfg = parse_config(cpath)
    names = [f"{n}.npy" for n in FRAMES] + ["t_est.json"]
    for name in names:
        if not os.path.exists(os.path.join(run_dir, name)):
            raise ConfigError(f"missing trajectory artifact {name} in {run_dir}")
    _check_sizes(run_dir, names)
    with open(os.path.join(run_dir, "t_est.json"), encoding="utf-8") as fh:
        status = json.load(fh)
    scfg = solver_config(cfg)
    traj = Trajectory(
        e=scfg.e, grid=scfg.grid,
        **{n: np.load(os.path.join(run_dir, f"{n}.npy")) for n in FRAMES},
        center_t=np.array([]), center_u=np.array([]), max_u=np.array([]),
        status=status["status"], T_est=status["T_est"])
    return cfg, traj


def load_blowup_run(run_dir: str):
    """load_run for the stages that analyse a blow-up; NoBlowupError otherwise."""
    cfg, traj = load_run(run_dir)
    if traj.status != "blowup":
        raise NoBlowupError(f"{run_dir} holds no blow-up trajectory "
                            f"(status {traj.status}); nothing to analyse")
    return cfg, traj


def build_snapshots(cfg: dict, traj):
    """The [similarity] rules and the snapshots of its s-window, centred at x0."""
    sim = typed(cfg)["similarity"]
    rules = RuleTable(traj.e.N, n_radial=sim["n_radial"], n_angular=sim["n_angular"])
    s_lo = -math.log(traj.T_est) + 0.75 if sim["s_lo"] == "auto" else sim["s_lo"]
    s_hi = traj.s_max_covered - 0.5 if sim["s_hi"] == "auto" else sim["s_hi"]
    if s_hi <= s_lo:
        raise ConfigError(f"empty snapshot window [{s_lo}, {s_hi}]")
    s_grid = np.arange(s_lo, s_hi + 1e-9, sim["ds"])
    T0 = traj.T_est if sim["T0"] == "auto" else sim["T0"]
    snaps = trajectory_to_w(traj, traj.e, sim["x0"], T0, s_grid, rules.plain)
    return rules, snaps


def export_snapshots(run_dir: str, snaps) -> str:
    """Snapshot node data: s, node coordinates, w, ws, |gw|, |gw_r|, |gw_th|."""
    N = snaps[0].rule.N
    cols = {k: [] for k in ["s"] + [f"y{d}" for d in range(N)]
            + ["w", "ws", "grad", "grad_r", "grad_theta"]}
    for sn in snaps:
        ns = sn.base
        n = ns.w.size
        cols["s"].append(np.full(n, sn.s))
        for d in range(N):
            cols[f"y{d}"].append(ns.points[:, d])
        cols["w"].append(ns.w)
        cols["ws"].append(ns.ws)
        cols["grad"].append(np.sqrt(ns.g2))
        cols["grad_r"].append(np.sqrt(ns.gr2))
        cols["grad_theta"].append(np.sqrt(ns.gth2))
    return write_csv(os.path.join(run_dir, "snapshots.csv"), list(cols),
                     [np.concatenate(v) for v in cols.values()])


def cmd_functionals(run_dir: str, selection: str | None = None,
                    dump_snapshots: bool = False, verbose: bool = False) -> int:
    cfg, traj = load_blowup_run(run_dir)
    rules, snaps = build_snapshots(cfg, traj)
    vals = typed(cfg)["functionals"]
    params = {key: vals[key] for key in ("eps", "k", "sigma")}
    names = [n.strip() for n in (selection or vals["names"]).split(",") if n.strip()]
    provenance = {
        "run_dir": os.path.abspath(run_dir),
        "frames_sha256": sha256_file(os.path.join(run_dir, "frames_u.npy")),
        **params,
    }
    written = []
    for name in names:
        try:
            spec = fu.FunctionalSpec(name=name, **params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        ser = fu.evaluate_series(spec, snaps, rules, traj.e)
        written += write_series(run_dir, ser, provenance)
        if verbose:
            print(f"functionals: wrote {name} ({len(ser)} samples)")
    if dump_snapshots:
        written.append(export_snapshots(run_dir, snaps))
    update_manifest(run_dir, config_hash(cfg), written)
    return EXIT_OK


def _monotone_suite(snaps, rules, e, k_max: int) -> list[dict]:
    """F0's own monotonicity report, then one per ladder index 1..k_max."""
    f0 = fu.f0_series(snaps, rules, e)
    return [verify.check_f0_monotone(f0)] + verify.check_ladder(f0, e, k_max)


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
    reports: list[dict] = []

    if suite in ("identities", "all"):
        for N in (2, 3):
            for eps in (0.6, 1.0, 1.1):
                reports += [r.as_dict() for r in verify.run_identity_battery(
                    N, eps, n_fields=10, seed=seed)]

    cfg = None
    if suite != "identities" and run_dir is not None:
        cfg, traj = load_blowup_run(run_dir)
        e = traj.e
        rules, snaps = build_snapshots(cfg, traj)
        s = np.array([sn.s for sn in snaps])
        vals = typed(cfg)

        if suite in ("lemmas", "all"):
            dr = traj.grid.dr
            # resolution-indexed tolerance (relative to the RHS scale)
            tol = 200.0 * (vals["similarity"]["ds"] ** 2 + (dr / math.exp(-s[0])) ** 2)
            hi = min(s[0] + 1.0, s[-1])
            for name in verify.LEMMA_NAMES:
                rep = verify.check_derivative_lemma(
                    name, snaps, rules, e, eps=vals["functionals"]["eps"],
                    window=(s[0], hi), tol=tol)
                reports.append(rep.as_dict())

        if suite in ("monotone", "all"):
            reports += _monotone_suite(snaps, rules, e, vals["functionals"]["k_max"])

        if suite in ("decay", "all"):
            bundle = verify.build_decay_bundle(snaps, rules, e)
            reports += verify.check_decay_suite(bundle)

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
    cfg, traj = load_blowup_run(run_dir)
    rep = fu.theorem_quantities(traj, traj.e, traj.T_est, q=q)
    written = []
    for ser in rep.series.values():
        written += write_series(run_dir, ser, {"q": q})
    # trend verdicts: the log weight is divided out before the slope test
    sl2 = rep.series["scaled_l2"]
    tau = np.exp(-sl2.s)
    logw = np.abs(np.log(tau)) ** q
    pure = sl2.values / np.where(logw > 0, logw, 1.0)
    last_decade = tau <= tau[-1] * 10.0
    decreasing = bool(np.all(np.diff(pure[last_decade]) < 0.0))
    slope = rep.meta["power_fit_slope"]
    expected = rep.meta["expected_power"]
    verdict = {
        "q": q,
        "power_fit_slope": slope,
        "expected_power": expected,
        "slope_within_10pct": bool(abs(slope - expected) <= 0.1 * abs(expected)),
        "scaled_l2_decreasing_last_decade": decreasing,
        "cone_gradient_sup": rep.sup["cone_gradient"],
        "cone_gradient_bounded": bool(np.isfinite(rep.sup["cone_gradient"])),
        "lower_bound_floor": rep.meta["lower_bound_floor"],
        "sup": rep.sup,
    }
    written.append(write_json(os.path.join(run_dir, "rate_verdict.json"), verdict))
    update_manifest(run_dir, config_hash(cfg), written)
    if verbose:
        print(json.dumps(verdict, indent=1, sort_keys=True, default=float))
    ok = (verdict["slope_within_10pct"]
          and verdict["scaled_l2_decreasing_last_decade"]
          and verdict["cone_gradient_bounded"])
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
            f0_rep, *ladder = _monotone_suite(snaps, rules, traj.e,
                                              typed(cfg)["functionals"]["k_max"])
        except ValueError as exc:  # ConfigError included
            print(f"sweep: p={scfg.e.p} N={scfg.e.N}: window not checked: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            row["F0_monotone"] = f0_rep["passed"]
            row["ladder_monotone"] = all(r["passed"] for r in ladder)
    return row


def cmd_sweep(config_path: str | None, p_list, N_list, out_dir: str,
              jobs: int = 1, verbose: bool = False) -> int:
    base = parse_config(config_path)
    pairs = [(p, N) for p in p_list for N in N_list]
    bad = []
    for p, N in pairs:
        try:
            make_exponents(p, N)
        except ValueError as exc:
            bad.append(f"(p={p}, N={N}): {exc}")
    if bad:
        raise ConfigError("invalid sweep pairs rejected before launch: "
                          + "; ".join(bad))
    os.makedirs(out_dir, exist_ok=True)
    tasks = [({**base, "exponents": {"p": repr(p), "N": repr(N)}},
              os.path.join(out_dir, f"p{p}_N{N}")) for p, N in pairs]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
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
