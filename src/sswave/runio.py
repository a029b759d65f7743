"""Run directories, config parsing, manifests, and the CLI command bodies.

A run directory is the unit of provenance: `simulate` writes the trajectory
(frames as raw .npy arrays, center series as CSV), later commands read it
back and add functional series, verification reports and rate diagnostics.
Identical config + seed reproduces byte-identical CSV/np output; the
manifest records a checksum for every file.

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
import time

import numpy as np

from . import __version__
from .core import FunctionalSeries, RadialGrid, make_exponents
from .quadrature import RuleTable
from .solver import SolverConfig, Trajectory, run_until_blowup
from .similarity import trajectory_to_w
from . import functionals as fu
from . import verify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_BLOWUP = 3


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "exponents": {"p": "4.0", "N": "3"},
    "solver": {
        "nr": "1024", "r_max_factor": "1.5", "cfl": "0.45",
        "amp_safety": "0.02", "u_cap": "1e8", "max_steps": "2000000",
        "store_ds": "0.02", "family": "ode_plateau", "T": "1.0",
        "core_frac": "1.15", "taper_frac": "1.4", "amplitude": "5.0",
        "width": "0.35", "fit_amp_min": "1e3",
    },
    "similarity": {
        "x0": "0.0", "T0": "auto", "s_lo": "auto", "s_hi": "auto",
        "ds": "0.05", "n_radial": "48", "n_angular": "1",
    },
    "functionals": {
        "names": "E0,E,F0,E_eps,J_eps,G_eps,N_eps,I_eps,L_eps,M,U1,F1,singularLp1",
        "eps": "0.6", "k": "1", "k_max": "6", "sigma": "1.0", "q": "1.0",
    },
    "output": {"dir": "runs", "seed": "0"},
}

_FLOAT_KEYS = {"p", "r_max_factor", "cfl", "amp_safety", "u_cap", "store_ds",
               "T", "core_frac", "taper_frac", "amplitude", "width",
               "fit_amp_min", "x0", "ds", "eps", "sigma", "q"}
_INT_KEYS = {"N", "nr", "max_steps", "n_radial", "n_angular", "k", "k_max", "seed"}


def parse_config(path: str | None) -> dict:
    """Resolve a config file over the defaults; None means pure defaults."""
    cfg = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
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
    # type validation with diagnostics
    for sec, vals in cfg.items():
        for key, val in vals.items():
            try:
                if key in _FLOAT_KEYS:
                    float(val)
                elif key in _INT_KEYS:
                    int(val)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{sec}] {key} = {val!r}: {exc}") from exc
    return cfg


def config_text(cfg: dict) -> str:
    buf = io.StringIO()
    parser = configparser.ConfigParser()
    parser.optionxform = str
    for sec, vals in cfg.items():
        parser[sec] = vals
    parser.write(buf)
    return buf.getvalue()


def fval(cfg, sec, key) -> float:
    return float(cfg[sec][key])


def ival(cfg, sec, key) -> int:
    return int(cfg[sec][key])


def solver_config(cfg: dict) -> SolverConfig:
    e = make_exponents(fval(cfg, "exponents", "p"), ival(cfg, "exponents", "N"))
    T = fval(cfg, "solver", "T")
    grid = RadialGrid(r_max=fval(cfg, "solver", "r_max_factor") * T,
                      nr=ival(cfg, "solver", "nr"))
    return SolverConfig(
        e=e, grid=grid, cfl=fval(cfg, "solver", "cfl"),
        u_cap=fval(cfg, "solver", "u_cap"),
        amp_safety=fval(cfg, "solver", "amp_safety"),
        max_steps=ival(cfg, "solver", "max_steps"),
        store_ds=fval(cfg, "solver", "store_ds"),
        family=cfg["solver"]["family"], T=T,
        core_frac=fval(cfg, "solver", "core_frac"),
        taper_frac=fval(cfg, "solver", "taper_frac"),
        amplitude=fval(cfg, "solver", "amplitude"),
        width=fval(cfg, "solver", "width"),
        fit_amp_min=fval(cfg, "solver", "fit_amp_min"))


# ---------------------------------------------------------------------------
# file helpers

def write_csv(path: str, header: list[str], columns: list[np.ndarray]):
    """RFC-4180 CSV, UTF-8, '.' decimal, %.17g round-trip precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in zip(*columns):
            wr.writerow([f"{v:.17g}" if isinstance(v, float) or isinstance(v, np.floating)
                         else str(v) for v in row])


def read_csv(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        rows = [[float(v) for v in row] for row in rd]
    cols = list(map(np.array, zip(*rows))) if rows else [np.array([]) for _ in header]
    return header, cols


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def update_manifest(run_dir: str, config_hash: str):
    files = {}
    for root, _dirs, names in os.walk(run_dir):
        for name in sorted(names):
            if name == "manifest.json":
                continue
            p = os.path.join(root, name)
            rel = os.path.relpath(p, run_dir)
            files[rel] = {"sha256": sha256_file(p), "bytes": os.path.getsize(p)}
    manifest = {"config_hash": config_hash, "version": __version__,
                "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "files": files}
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def write_series(run_dir: str, ser: FunctionalSeries, provenance: dict):
    """CSV (s,value,tail_bound) + JSON sidecar."""
    tail = (ser.tail_bound if ser.tail_bound is not None
            else np.zeros_like(ser.s))
    write_csv(os.path.join(run_dir, f"{ser.name}.csv"),
              ["s", "value", "tail_bound"], [ser.s, ser.values, tail])
    side = {"name": ser.name, "meta": ser.meta, "provenance": provenance}
    with open(os.path.join(run_dir, f"{ser.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(side, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(config_path: str | None, out_dir: str, dump_raw: bool = False,
                 verbose: bool = False) -> int:
    cfg = parse_config(config_path)
    os.makedirs(out_dir, exist_ok=True)
    text = config_text(cfg)
    with open(os.path.join(out_dir, "config.resolved.ini"), "w",
              encoding="utf-8") as fh:
        fh.write(text)
    chash = hashlib.sha256(text.encode()).hexdigest()

    scfg = solver_config(cfg)
    traj = run_until_blowup(scfg)
    if verbose:
        print(f"simulate: status={traj.status} steps={traj.center_t.size} "
              f"frames={traj.frames_t.size} T_est={traj.T_est}")

    np.save(os.path.join(out_dir, "frames_t.npy"), traj.frames_t)
    np.save(os.path.join(out_dir, "frames_u.npy"), traj.frames_u)
    np.save(os.path.join(out_dir, "frames_ut.npy"), traj.frames_ut)
    write_csv(os.path.join(out_dir, "center.csv"),
              ["t", "u_center", "u_max"],
              [traj.center_t, traj.center_u, traj.max_u])
    status = {"status": traj.status,
              "T_est": traj.T_est,
              "exponent": traj.fit.exponent if traj.fit else None,
              "r2": traj.fit.r2 if traj.fit else None,
              "expected_exponent": -scfg.e.two_over_pm1,
              "n_frames": int(traj.frames_t.size)}
    with open(os.path.join(out_dir, "t_est.json"), "w", encoding="utf-8") as fh:
        json.dump(status, fh, indent=1, sort_keys=True)
    if dump_raw:
        stride = max(1, traj.frames_t.size // 50)
        idx = np.arange(0, traj.frames_t.size, stride)
        rows_t, rows_r, rows_u, rows_ut = [], [], [], []
        for i in idx:
            rows_t.append(np.full(traj.grid.nr, traj.frames_t[i]))
            rows_r.append(traj.grid.nodes)
            rows_u.append(traj.frames_u[i])
            rows_ut.append(traj.frames_ut[i])
        write_csv(os.path.join(out_dir, "raw.csv"), ["t", "r", "u", "ut"],
                  [np.concatenate(rows_t), np.concatenate(rows_r),
                   np.concatenate(rows_u), np.concatenate(rows_ut)])
    update_manifest(out_dir, chash)
    return EXIT_OK if traj.status == "blowup" else EXIT_NO_BLOWUP


def load_run(run_dir: str):
    """Rebuild (cfg, Trajectory) from a run directory."""
    cpath = os.path.join(run_dir, "config.resolved.ini")
    if not os.path.exists(cpath):
        raise ConfigError(f"{run_dir} does not look like a run directory "
                          "(missing config.resolved.ini)")
    cfg = parse_config(cpath)
    for name in ("frames_t.npy", "frames_u.npy", "frames_ut.npy", "t_est.json"):
        if not os.path.exists(os.path.join(run_dir, name)):
            raise ConfigError(f"missing trajectory artifact {name} in {run_dir}")
    with open(os.path.join(run_dir, "t_est.json"), encoding="utf-8") as fh:
        status = json.load(fh)
    scfg = solver_config(cfg)
    traj = Trajectory(
        e=scfg.e, grid=scfg.grid,
        frames_t=np.load(os.path.join(run_dir, "frames_t.npy")),
        frames_u=np.load(os.path.join(run_dir, "frames_u.npy")),
        frames_ut=np.load(os.path.join(run_dir, "frames_ut.npy")),
        center_t=np.array([]), center_u=np.array([]), max_u=np.array([]),
        status=status["status"], T_est=status["T_est"])
    return cfg, traj


def snapshot_grid(cfg: dict, traj) -> np.ndarray:
    T0 = traj.T_est
    s0 = -math.log(T0)
    raw_lo, raw_hi = cfg["similarity"]["s_lo"], cfg["similarity"]["s_hi"]
    s_lo = s0 + 0.75 if raw_lo == "auto" else float(raw_lo)
    s_hi = traj.s_max_covered - 0.5 if raw_hi == "auto" else float(raw_hi)
    ds = fval(cfg, "similarity", "ds")
    if s_hi <= s_lo:
        raise ConfigError(f"empty snapshot window [{s_lo}, {s_hi}]")
    return np.arange(s_lo, s_hi + 1e-9, ds)


def build_snapshots(cfg: dict, traj):
    e = traj.e
    rules = RuleTable(e.N, n_radial=ival(cfg, "similarity", "n_radial"),
                      n_angular=ival(cfg, "similarity", "n_angular"))
    s_grid = snapshot_grid(cfg, traj)
    x0 = fval(cfg, "similarity", "x0")
    T0 = traj.T_est if cfg["similarity"]["T0"] == "auto" \
        else fval(cfg, "similarity", "T0")
    snaps = trajectory_to_w(traj, e, x0, T0, s_grid, rules.plain)
    return rules, snaps


def export_snapshots(run_dir: str, snaps):
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
    write_csv(os.path.join(run_dir, "snapshots.csv"), list(cols),
              [np.concatenate(v) for v in cols.values()])


def cmd_functionals(run_dir: str, selection: str | None = None,
                    dump_snapshots: bool = False, verbose: bool = False) -> int:
    cfg, traj = load_run(run_dir)
    if traj.status != "blowup":
        raise ConfigError("run has no blow-up trajectory")
    e = traj.e
    rules, snaps = build_snapshots(cfg, traj)
    eps = fval(cfg, "functionals", "eps")
    k = ival(cfg, "functionals", "k")
    sigma = fval(cfg, "functionals", "sigma")
    names = [n.strip() for n in (selection or cfg["functionals"]["names"]).split(",")
             if n.strip()]
    provenance = {
        "run_dir": os.path.abspath(run_dir),
        "frames_sha256": sha256_file(os.path.join(run_dir, "frames_u.npy")),
        "eps": eps, "k": k, "sigma": sigma,
    }
    for name in names:
        try:
            spec = fu.FunctionalSpec(name=name, eps=eps, k=k, sigma=sigma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        ser = fu.evaluate_series(spec, snaps, rules, e)
        write_series(run_dir, ser, provenance)
        if verbose:
            print(f"functionals: wrote {name} ({len(ser)} samples)")
    if dump_snapshots:
        export_snapshots(run_dir, snaps)
    cpath = os.path.join(run_dir, "config.resolved.ini")
    with open(cpath, encoding="utf-8") as fh:
        chash = hashlib.sha256(fh.read().encode()).hexdigest()
    update_manifest(run_dir, chash)
    return EXIT_OK


def _report_rows(reports) -> list[dict]:
    return [r.as_dict() if hasattr(r, "as_dict") else dict(r) for r in reports]


def cmd_verify(run_dir: str | None, suite: str, seed: int = 0,
               out_path: str | None = None, verbose: bool = False) -> int:
    """Verification suites; exit 1 iff any check fails.

    'identities' runs on static fields (no run dir needed); 'lemmas',
    'monotone' and 'decay' need a simulated run; 'all' runs whatever its
    inputs allow.
    """
    suites = ("identities", "lemmas", "monotone", "decay", "all")
    if suite not in suites:
        raise ConfigError(f"unknown suite '{suite}', expected one of {suites}")
    reports: list[dict] = []

    if suite in ("identities", "all"):
        for N in (2, 3):
            for eps in (0.6, 1.0, 1.1):
                reps = verify.run_identity_battery(N, eps, n_fields=10, seed=seed)
                reports += _report_rows(reps)

    if suite in ("lemmas", "monotone", "decay", "all") and run_dir is not None:
        cfg, traj = load_run(run_dir)
        if traj.status != "blowup":
            raise ConfigError("verification suites need a blow-up run")
        e = traj.e
        rules, snaps = build_snapshots(cfg, traj)
        s = np.array([sn.s for sn in snaps])
        eps = fval(cfg, "functionals", "eps")

        if suite in ("lemmas", "all"):
            ds = fval(cfg, "similarity", "ds")
            dr = traj.grid.dr
            # resolution-indexed tolerance (relative to the RHS scale)
            tol = 200.0 * (ds ** 2 + (dr / math.exp(-s[0])) ** 2)
            hi = min(s[0] + 1.0, s[-1])
            for name in verify.LEMMA_NAMES:
                rep = verify.check_derivative_lemma(
                    name, snaps, rules, e, eps=eps, window=(s[0], hi), tol=tol)
                reports.append(rep.as_dict())

        if suite in ("monotone", "all"):
            f0 = fu.f0_series(snaps, rules, e)
            reports.append(verify.check_f0_monotone(f0))
            reports += verify.check_ladder(f0, e, ival(cfg, "functionals", "k_max"))

        if suite in ("decay", "all"):
            bundle = verify.build_decay_bundle(snaps, rules, e, k_max=2)
            for rep in verify.check_decay_suite(bundle):
                reports.append(rep)

    ok = all(r.get("passed", False) for r in reports)
    lines = [f"{'PASS' if r.get('passed') else 'FAIL'}  {r['name']}" for r in reports]
    text = "\n".join(lines) + f"\n{'OK' if ok else 'FAILURES'}: " \
        f"{sum(bool(r.get('passed')) for r in reports)}/{len(reports)} checks passed\n"
    if out_path is None:
        out_path = os.path.join(run_dir or ".", f"verify_{suite}")
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path + ".json", "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True, default=float)
    with open(out_path + ".txt", "w", encoding="utf-8") as fh:
        fh.write(text)
    if verbose:
        print(text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_rate(run_dir: str, q: float, verbose: bool = False) -> int:
    cfg, traj = load_run(run_dir)
    if traj.status != "blowup":
        print("rate: run has no blow-up; nothing to analyse")
        return EXIT_NO_BLOWUP
    e = traj.e
    rep = fu.theorem_quantities(traj, e, traj.T_est, q=q)
    for name, ser in rep.series.items():
        write_series(run_dir, ser, {"q": q})
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
    with open(os.path.join(run_dir, "rate_verdict.json"), "w",
              encoding="utf-8") as fh:
        json.dump(verdict, fh, indent=1, sort_keys=True, default=float)
    if verbose:
        print(json.dumps(verdict, indent=1, sort_keys=True, default=float))
    ok = (verdict["slope_within_10pct"]
          and verdict["scaled_l2_decreasing_last_decade"]
          and verdict["cone_gradient_bounded"])
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _sweep_one(args):
    cfg, out_dir = args
    text = config_text(cfg)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.resolved.ini"), "w",
              encoding="utf-8") as fh:
        fh.write(text)
    scfg = solver_config(cfg)
    traj = run_until_blowup(scfg)
    row = {"p": scfg.e.p, "N": scfg.e.N, "status": traj.status,
           "T_est": traj.T_est if traj.T_est else math.nan,
           "exponent": traj.fit.exponent if traj.fit else math.nan}
    if traj.status == "blowup":
        rules = RuleTable(scfg.e.N, n_radial=32, n_angular=1)
        s0 = -math.log(traj.T_est)
        s_grid = np.arange(s0 + 0.75, min(traj.s_max_covered - 0.5, s0 + 6.0), 0.1)
        snaps = trajectory_to_w(traj, scfg.e, 0.0, traj.T_est, s_grid, rules.plain)
        f0 = fu.f0_series(snaps, rules, scfg.e)
        row["F0_monotone"] = verify.check_f0_monotone(f0)["passed"]
        row["ladder_monotone"] = all(
            r["passed"] for r in verify.check_ladder(f0, scfg.e, 6))
    else:
        row["F0_monotone"] = False
        row["ladder_monotone"] = False
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
        raise ConfigError("invalid sweep pairs rejected before launch:\n  "
                          + "\n  ".join(bad))
    os.makedirs(out_dir, exist_ok=True)
    tasks = []
    for p, N in pairs:
        cfg = {sec: dict(vals) for sec, vals in base.items()}
        cfg["exponents"]["p"] = repr(p)
        cfg["exponents"]["N"] = repr(N)
        tasks.append((cfg, os.path.join(out_dir, f"p{p}_N{N}")))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = list(ex.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]
    cols = ["p", "N", "status", "T_est", "exponent", "F0_monotone", "ladder_monotone"]
    with open(os.path.join(out_dir, "aggregate.csv"), "w", newline="",
              encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(cols)
        for row in rows:
            wr.writerow([f"{row[c]:.17g}" if isinstance(row[c], float)
                         else str(row[c]) for c in cols])
    if verbose:
        for row in rows:
            print(row)
    text = config_text(base)
    update_manifest(out_dir, hashlib.sha256(text.encode()).hexdigest())
    return EXIT_OK
