import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import read_csv
from sswave import runio
from sswave.cli import main as cli_main
from sswave.functionals import FUNCTIONAL_NAMES


CFG_SMALL = """\
[exponents]
p = 4.0
N = 3

[solver]
nr = 256
u_cap = 1e5
store_ds = 0.04

[similarity]
ds = 0.1
n_radial = 24
"""

CFG_ZERO = CFG_SMALL + """
"""


@pytest.fixture()
def small_cfg(tmp_path):
    p = tmp_path / "small.ini"
    p.write_text(CFG_SMALL)
    return str(p)


def run_cli(*args):
    return cli_main(list(args))


def file_hashes(run_dir, suffixes=(".csv", ".npy")):
    out = {}
    for root, _dirs, names in os.walk(run_dir):
        for n in sorted(names):
            if n.endswith(suffixes):
                p = os.path.join(root, n)
                out[os.path.relpath(p, run_dir)] = hashlib.sha256(
                    open(p, "rb").read()).hexdigest()
    return out


def test_simulate_smoke_and_manifest(small_cfg, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    for name in ("config.resolved.ini", "center.csv", "t_est.json",
                 "frames_u.npy", "manifest.json"):
        assert os.path.exists(os.path.join(out, name)), name
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert "center.csv" in manifest["files"]
    h = manifest["files"]["center.csv"]["sha256"]
    assert h == runio.sha256_file(os.path.join(out, "center.csv"))
    status = json.load(open(os.path.join(out, "t_est.json")))
    assert status["status"] == "blowup"
    assert abs(status["T_est"] - 1.0) < 0.01


def test_simulate_zero_data_exit_code(small_cfg, tmp_path):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(CFG_SMALL.replace("[similarity]",
                                     "family = zero\nmax_steps = 300\n\n[similarity]"))
    out = str(tmp_path / "zrun")
    assert run_cli("simulate", "--config", str(cfg), "--out", out) == 3
    status = json.load(open(os.path.join(out, "t_est.json")))
    assert status["status"] == "no-blowup"


def test_simulate_bad_config_diagnostics(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    for text in ("[solver]\nnr = many\n", "[solvr]\nnr = 128\n",
                 "[similarity]\ns_lo = early\n", "[similarity]\nT0 = 1.0.0\n",
                 "[solver]\nfamily = gausian\n", "[exponents]\np = 3.0\n",
                 "[functionals]\nq = 2.0\n", "[output]\nseed = 0\n",
                 # values that parse but that the solver grid or a rule rejects
                 "[solver]\nr_max_factor = 1.3\n", "[similarity]\nn_radial = 0\n",
                 "[exponents]\np = 2.5\nN = 4\n[similarity]\nn_angular = 2\n"):
        cfg.write_text(text)
        rc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "r"))
        assert rc == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1, err
    # rejected before the solver ran
    assert not os.path.exists(tmp_path / "r" / "frames_u.npy")


def test_solver_error_exits_2_with_one_line(small_cfg, tmp_path, capsys):
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(open(small_cfg).read().replace("u_cap = 1e5", "u_cap = 1e60"))
    assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "r")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SolverError: amplitude overflow") and err.count("\n") == 1


def test_fit_error_exits_3_with_one_line(small_cfg, tmp_path, capsys, monkeypatch):
    from sswave import solver
    from sswave.ode import FitError

    def no_fit(*args, **kwargs):
        raise FitError("fit-failed: stub")

    monkeypatch.setattr(solver, "fit_blowup", no_fit)
    assert run_cli("simulate", "--config", small_cfg, "--out", str(tmp_path / "r")) == 3
    assert capsys.readouterr().err == "error: FitError: fit-failed: stub\n"


def test_determinism_byte_identical(small_cfg, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
        assert run_cli("functionals", "--out", out, "--names", "F0,E0,M") == 0
    ha, hb = file_hashes(a), file_hashes(b)
    assert ha and ha == hb


def test_functionals_outputs(small_cfg, tmp_path):
    out = str(tmp_path / "run")
    run_cli("simulate", "--config", small_cfg, "--out", out)
    assert run_cli("functionals", "--out", out, "--names", "F0,F1,M,singularLp1") == 0
    for name in ("F0", "F1", "M", "singularLp1"):
        assert os.path.exists(os.path.join(out, f"{name}.csv"))
        side = json.load(open(os.path.join(out, f"{name}.json")))
        assert "frames_sha256" in side["provenance"]
    header, cols = read_csv(os.path.join(out, "F0.csv"))
    assert header == ["s", "value", "tail_bound"]
    assert np.all(np.diff(cols[0]) > 0)
    assert not os.path.exists(os.path.join(out, "plots"))


def test_functionals_missing_trajectory(tmp_path):
    assert run_cli("functionals", "--out", str(tmp_path / "nope")) == 2


def test_verify_identities_static(tmp_path):
    out = str(tmp_path / "v")
    os.makedirs(out)
    rc = cli_main(["verify", "--suite", "identities", "--out", out])
    # identities suite ignores the lack of trajectory artifacts in out
    assert rc == 0
    reports = json.load(open(os.path.join(out, "verify_identities.json")))
    assert len(reports) == 6 * 10 * 2
    assert all(r["passed"] for r in reports)
    assert os.path.exists(os.path.join(out, "verify_identities.txt"))
    # no run was checked, so the directory gets no manifest
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_verify_monotone_and_failure_path(small_cfg, tmp_path):
    out = str(tmp_path / "run")
    run_cli("simulate", "--config", small_cfg, "--out", out)
    assert run_cli("verify", "--suite", "monotone", "--out", out) == 0
    reports = json.load(open(os.path.join(out, "verify_monotone.json")))
    assert any(r["name"] == "F0_monotone" for r in reports)
    # failure path: doctored exit-code contract via a monkey series
    from sswave.core import FunctionalSeries
    from sswave import verify
    bad = verify.monitor_monotone(
        FunctionalSeries("F0", [0, 1, 2], [1.0, 2.0, 3.0]))
    assert not bad["monotone"]


def test_rate_command(small_cfg, tmp_path):
    out = str(tmp_path / "run")
    run_cli("simulate", "--config", small_cfg, "--out", out)
    assert run_cli("rate", "--out", out, "--q", "1.0") == 0
    verdict = json.load(open(os.path.join(out, "rate_verdict.json")))
    assert verdict["slope_within_10pct"]
    assert verdict["cone_gradient_bounded"]
    assert os.path.exists(os.path.join(out, "scaled_l2.csv"))
    # q = 0 reduces to the unweighted quantity
    assert run_cli("rate", "--out", out, "--q", "0.0") == 0
    v0 = json.load(open(os.path.join(out, "rate_verdict.json")))
    assert v0["q"] == 0.0


def test_rate_rejects_non_blowup_run(small_cfg, tmp_path):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(CFG_SMALL.replace("[similarity]",
                                     "family = zero\nmax_steps = 300\n\n[similarity]"))
    out = str(tmp_path / "zrun")
    run_cli("simulate", "--config", str(cfg), "--out", out)
    assert run_cli("rate", "--out", out, "--q", "1.0") == 3


def test_sweep_smoke_and_determinism(small_cfg, tmp_path):
    out = str(tmp_path / "sweep")
    rc = run_cli("sweep", "--config", small_cfg, "--p-list", "3.6,4.2",
                 "--N-list", "3", "--out", out)
    assert rc == 0
    header, cols = None, None
    with open(os.path.join(out, "aggregate.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("p,N,status")
    assert len(lines) == 3
    h1 = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    out2 = str(tmp_path / "sweep2")
    run_cli("sweep", "--config", small_cfg, "--p-list", "3.6,4.2",
            "--N-list", "3", "--out", out2)
    with open(os.path.join(out2, "aggregate.csv")) as fh:
        lines2 = fh.read().strip().splitlines()
    assert hashlib.sha256("\n".join(lines2).encode()).hexdigest() == h1


def test_sweep_honours_similarity_window(small_cfg, tmp_path):
    """A sweep point takes the config's snapshot window, so a window of two
    snapshots fails its monotone verdicts as `verify --suite monotone` does."""
    cfg = tmp_path / "short.ini"
    cfg.write_text(open(small_cfg).read() + "s_lo = 1.0\ns_hi = 1.15\n")
    out = str(tmp_path / "sweep")
    assert run_cli("sweep", "--config", str(cfg), "--p-list", "3.6,4.2",
                   "--N-list", "3", "--out", out) == 0
    with open(os.path.join(out, "aggregate.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["blowup", "blowup"]
    assert all(r["F0_monotone"] == r["ladder_monotone"] == "False" for r in rows)


def test_sweep_point_outside_its_coverage_fails_alone(small_cfg, tmp_path, capsys):
    """s_hi = 16 lies beyond the p=3.6 run (covered to s ~ 14.8) but inside
    the p=4.2 run (s ~ 18.4): the first point fails its verdicts, the
    second gets those of `verify --suite monotone`, and the sweep completes."""
    cfg = tmp_path / "long.ini"
    cfg.write_text(open(small_cfg).read() + "s_lo = 10.0\ns_hi = 16.0\n")
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg), "--p-list", "3.6,4.2",
                   "--N-list", "3", "--out", str(out)) == 0
    assert "p=3.6 N=3: window not checked: ValueError" in capsys.readouterr().err
    with open(out / "aggregate.csv") as fh:
        p36, p42 = csv.DictReader(fh)
    assert p36["F0_monotone"] == p36["ladder_monotone"] == "False"
    run = str(tmp_path / "run42")
    assert run_cli("simulate", "--config", str(out / "p4.2_N3" / "config.resolved.ini"),
                   "--out", run) == 0
    rc = run_cli("verify", "--suite", "monotone", "--out", run)
    with open(os.path.join(run, "verify_monotone.json")) as fh:
        reports = json.load(fh)
    assert p42["F0_monotone"] == str(reports[0]["passed"])
    assert p42["ladder_monotone"] == str(all(r["passed"] for r in reports[1:]))
    assert (rc == 0) == all(r["passed"] for r in reports)


def test_sweep_rejects_invalid_pair(small_cfg, tmp_path):
    rc = run_cli("sweep", "--config", small_cfg, "--p-list", "3.0",
                 "--N-list", "3", "--out", str(tmp_path / "s"))
    assert rc == 2


def test_console_module_entry(small_cfg, tmp_path):
    out = str(tmp_path / "run")
    proc = subprocess.run([sys.executable, "-m", "sswave", "simulate",
                           "--config", small_cfg, "--out", out],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_SCIPY_PROBE = """
import json, sys
from sswave.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def scipy_modules(*argv):
    """(exit code, scipy modules loaded) of one CLI run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def test_stages_import_only_the_scipy_they_call(small_cfg, tmp_path):
    """Importing the CLI loads no scipy, `rate` none at all; no stage loads
    scipy.interpolate, and scipy.integrate comes in only where the F1/U1
    tail integrals are computed."""
    out = str(tmp_path / "run")
    assert scipy_modules() == (0, [])
    for argv, integrate in [(["simulate", "--config", small_cfg], False),
                            (["functionals"], True),
                            (["verify", "--suite", "lemmas"], True),
                            (["verify", "--suite", "monotone"], False)]:
        code, mods = scipy_modules(*argv, "--out", out)
        assert code == 0
        assert "scipy.special" in mods and "scipy.interpolate" not in mods, argv
        assert ("scipy.integrate" in mods) == integrate, argv
    assert scipy_modules("rate", "--out", out) == (0, [])


def test_parse_config_pure_defaults():
    cfg = runio.parse_config(None)
    assert cfg["exponents"]["p"] == "4.0"
    assert runio.solver_config(cfg).grid.nr == 1024


_finite = st.floats(allow_nan=False, allow_infinity=False)
_VALUES = {
    float: _finite.map(repr),
    int: st.integers(-10**12, 10**12).map(str),
    runio._auto_or_float: st.one_of(st.just("auto"), _finite.map(repr)),
    runio._family: st.sampled_from(runio.FAMILIES),
    str: st.lists(st.sampled_from(FUNCTIONAL_NAMES), min_size=1).map(",".join),
}
# in schema order, the order parse_config resolves into
_CONFIGS = st.tuples(*(
    st.tuples(*(_VALUES[parse] for _d, parse in keys.values()))
    for keys in runio.SCHEMA.values())).map(lambda secs: {
        sec: dict(zip(keys, vals)) for (sec, keys), vals in zip(runio.SCHEMA.items(), secs)})


@settings(max_examples=50, deadline=None)
@given(_CONFIGS)
def test_config_text_round_trip(cfg):
    text = runio.config_text(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        parsed = runio.parse_config(path)
    assert parsed == cfg
    assert runio.config_text(parsed) == text


@pytest.mark.parametrize("parse,bad", [
    (float, "1.0.0"), (int, "1.5"), (runio._auto_or_float, "automatic"),
    (runio._family, "gausian")])
def test_parse_config_rejects_malformed_value(tmp_path, parse, bad):
    sec, key = next((sec, key) for sec, keys in runio.SCHEMA.items()
                    for key, (_d, p) in keys.items() if p is parse)
    path = tmp_path / "bad.ini"
    path.write_text(f"[{sec}]\n{key} = {bad}\n")
    with pytest.raises(runio.ConfigError, match=f"\\[{sec}\\] {key}"):
        runio.parse_config(str(path))


def test_dump_raw_flag(small_cfg, tmp_path):
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out,
                   "--dump-raw") == 0
    header, cols = read_csv(os.path.join(out, "raw.csv"))
    assert header == ["t", "r", "u", "ut"]
    assert cols[0].size > 0


def test_export_snapshots_flag(small_cfg, tmp_path):
    out = str(tmp_path / "run")
    run_cli("simulate", "--config", small_cfg, "--out", out)
    assert run_cli("functionals", "--out", out, "--names", "F0",
                   "--export-snapshots") == 0
    header, cols = read_csv(os.path.join(out, "snapshots.csv"))
    assert header == ["s", "y0", "y1", "y2", "w", "ws",
                      "grad", "grad_r", "grad_theta"]
    assert np.all(cols[6] ** 2 - cols[7] ** 2 - cols[8] ** 2 < 1e-10)


def test_functionals_on_non_blowup_run(small_cfg, tmp_path, capsys):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(CFG_SMALL.replace("[similarity]",
                                     "family = zero\nmax_steps = 300\n\n[similarity]"))
    out = str(tmp_path / "zrun")
    run_cli("simulate", "--config", str(cfg), "--out", out)
    capsys.readouterr()
    for argv in (["functionals"], ["verify", "--suite", "lemmas"]):
        assert run_cli(*argv, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: NoBlowupError: ") and err.count("\n") == 1


def test_verify_empty_suite_exits_ok(tmp_path, monkeypatch):
    # lemma suite without a run directory has nothing to check
    monkeypatch.chdir(tmp_path)
    assert cli_main(["verify", "--suite", "lemmas"]) == 0
    text = open(tmp_path / "verify_lemmas.txt").read()
    assert "0/0" in text


def test_verify_monotone_short_ladder_window_fails(small_cfg, tmp_path):
    """A ladder index whose window holds fewer than 3 snapshots is reported
    as a failed check (exit 1), not raised."""
    cfg = tmp_path / "deep.ini"
    cfg.write_text(open(small_cfg).read() + "\n[functionals]\nk_max = 200\n")
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", str(cfg), "--out", out) == 0
    assert run_cli("verify", "--suite", "monotone", "--out", out) == 1
    reports = json.load(open(os.path.join(out, "verify_monotone.json")))
    assert [r["name"] for r in reports][:2] == ["F0_monotone", "ladder_k1_monotone"]
    assert len(reports) == 201
    assert reports[1]["passed"] and not reports[-1]["passed"]
    assert reports[-1] == {"name": "ladder_k200_monotone", "passed": False,
                           "violations": []}


def test_verify_monotone_short_snapshot_window_fails(small_cfg, tmp_path):
    """A snapshot window with fewer than 3 snapshots fails F0's own
    monotonicity check (exit 1) instead of raising."""
    cfg = tmp_path / "short.ini"
    cfg.write_text(open(small_cfg).read() + "s_lo = 1.0\ns_hi = 1.15\n")
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", str(cfg), "--out", out) == 0
    assert run_cli("verify", "--suite", "monotone", "--out", out) == 1
    reports = json.load(open(os.path.join(out, "verify_monotone.json")))
    assert reports[0] == {"name": "F0_monotone", "passed": False,
                          "violations": [], "n": 2}


@pytest.mark.parametrize("suite", ["lemmas", "decay"])
def test_verify_short_snapshot_window_fails(small_cfg, tmp_path, suite):
    """A snapshot window with fewer than 3 snapshots fails every lemma and
    decay check (exit 1) instead of raising."""
    cfg = tmp_path / "short.ini"
    cfg.write_text(open(small_cfg).read() + "s_lo = 1.0\ns_hi = 1.15\n")
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", str(cfg), "--out", out) == 0
    assert run_cli("verify", "--suite", suite, "--out", out) == 1
    reports = json.load(open(os.path.join(out, f"verify_{suite}.json")))
    assert reports and not any(r["passed"] for r in reports)


def test_manifest_lists_every_written_file(small_cfg, tmp_path, monkeypatch):
    """After the whole pipeline the manifest lists every file with its
    checksum and size; later stages hash only what they wrote."""
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out, "--dump-raw") == 0
    hashed = []
    sha256_file = runio.sha256_file

    def counting_sha256(path):
        hashed.append(os.path.basename(path))
        return sha256_file(path)

    monkeypatch.setattr(runio, "sha256_file", counting_sha256)
    assert run_cli("functionals", "--out", out, "--names", "F0,M",
                   "--export-snapshots") == 0
    assert run_cli("verify", "--suite", "monotone", "--out", out) == 0
    assert run_cli("rate", "--out", out) == 0
    assert not {"frames_t.npy", "frames_ut.npy", "center.csv", "raw.csv"} & set(hashed)
    files = json.load(open(os.path.join(out, "manifest.json")))["files"]
    on_disk = {n for n in os.listdir(out) if n != "manifest.json"}
    assert set(files) == on_disk
    for name, entry in files.items():
        path = os.path.join(out, name)
        assert entry == {"sha256": sha256_file(path), "bytes": os.path.getsize(path)}


def test_verify_creates_missing_out_dir(tmp_path, monkeypatch):
    from sswave import verify
    rep = verify.report("pohozaev_A", 1.0, 1.0, 1e-8)
    monkeypatch.setattr(verify, "run_identity_battery", lambda *a, **kw: [rep])
    out = tmp_path / "missing" / "v"
    assert cli_main(["verify", "--suite", "identities", "--out", str(out)]) == 0
    reports = json.load(open(out / "verify_identities.json"))
    assert len(reports) == 6 and all(r["passed"] for r in reports)


def test_verify_missing_run_inputs(tmp_path):
    out = str(tmp_path / "not_a_run")
    os.makedirs(out)
    assert cli_main(["verify", "--suite", "lemmas", "--out", out]) == 2


def test_verify_detects_corrupted_run(small_cfg, tmp_path):
    """Scaling the archived frames in time makes F0 non-monotone; the
    monotone suite must fail with exit code 1."""
    out = str(tmp_path / "run")
    run_cli("simulate", "--config", small_cfg, "--out", out)
    fu_path = os.path.join(out, "frames_u.npy")
    frames = np.load(fu_path)
    wig = 1.0 + 0.1 * np.sin(np.linspace(0, 40 * np.pi, frames.shape[0]))
    np.save(fu_path, frames * wig[:, None])
    ft_path = os.path.join(out, "frames_ut.npy")
    np.save(ft_path, np.load(ft_path) * wig[:, None])
    assert run_cli("verify", "--suite", "monotone", "--out", out) == 1


@pytest.mark.parametrize("damage", ["truncate", "no_manifest", "no_entry"])
def test_load_run_checks_sizes_against_manifest(small_cfg, tmp_path, capsys, damage):
    """A truncated frame file, a missing manifest or a file the manifest
    does not list is a one-line ConfigError (exit 2) at load time."""
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    manifest = os.path.join(out, "manifest.json")
    if damage == "truncate":
        with open(os.path.join(out, "frames_u.npy"), "r+b") as fh:
            fh.truncate(os.path.getsize(fh.name) - 8)
    elif damage == "no_manifest":
        os.remove(manifest)
    else:
        with open(manifest) as fh:
            doc = json.load(fh)
        del doc["files"]["t_est.json"]
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
    capsys.readouterr()
    assert run_cli("rate", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1


def test_env_var_selects_output_root(small_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("SSWAVE_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--config", small_cfg) == 0
    assert os.path.exists(str(tmp_path / "root" / "run" / "center.csv"))


def test_sweep_parallel_jobs(small_cfg, tmp_path):
    out = str(tmp_path / "sweepj")
    rc = run_cli("sweep", "--config", small_cfg, "--p-list", "3.6,4.2",
                 "--N-list", "3", "--out", out, "--jobs", "2")
    assert rc == 0
    with open(os.path.join(out, "aggregate.csv")) as fh:
        assert len(fh.read().strip().splitlines()) == 3


def test_verify_suite_all(small_cfg, tmp_path):
    out = str(tmp_path / "run")
    run_cli("simulate", "--config", small_cfg, "--out", out)
    assert run_cli("verify", "--suite", "all", "--out", out) == 0
    reports = json.load(open(os.path.join(out, "verify_all.json")))
    names = {r["name"] for r in reports}
    assert "pohozaev_A" in names and "F0_monotone" in names
    assert any(n.startswith("d") for n in names)        # lemma checks
    assert any(n.startswith("window") for n in names)   # decay suite
