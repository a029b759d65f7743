import ast
import csv
import hashlib
import json
import mmap
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import read_csv
from sswave import runio
from sswave.cli import main as cli_main
from sswave.functionals import FUNCTIONAL_NAMES
from sswave.solver import Trajectory


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
                 # [functionals] values that parse but that the series reject
                 "[functionals]\neps = -1.0\n", "[functionals]\nk_max = -3\n",
                 "[functionals]\nnames = Fk,F0\nk = 0\n", "[functionals]\nnames =\nk = 0\n",
                 "[functionals]\nnames = F0,nope\n",
                 "[functionals]\nnames =\neps = 0.0\n",   # eps drives the lemma suite
                 # a snapshot spacing that selects no window
                 "[similarity]\nds = 0\n", "[similarity]\nds = -0.05\n",
                 # a float that parses but is not finite
                 "[similarity]\nx0 = nan\n",
                 # a ball off the origin on the one-ray (radial-collapse) rule
                 "[similarity]\nx0 = 0.02\n", "[similarity]\nx0 = -0.5\nn_angular = 1\n"):
        cfg.write_text(text)
        rc = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "r"))
        assert rc == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1, err
        if "x0 = " in text and "nan" not in text:
            assert "x0 = " in err and "n_angular" in err, err
    # values that parse but that a rule rejects: checked without building
    # the rule, in build_rule's words
    for text, why in (("[similarity]\nn_radial = 0\n", "need n_radial >= 4, got 0"),
                      ("[similarity]\nn_angular = 0\n", "need n_angular >= 1, got 0"),
                      ("[exponents]\np = 2.5\nN = 4\n[similarity]\nn_angular = 2\n",
                       "tensor angular grids are implemented for N in (2, 3); got N=4 "
                       "with n_angular > 1 (radial collapse n_angular=1 supports any N)")):
        cfg.write_text(text)
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "r")) == 2
        assert capsys.readouterr().err == f"error: ConfigError: invalid [similarity] rule: {why}\n"
    # the solver's step and data shape are constants of sswave.solver, not keys
    for key in ("cfl", "amp_safety", "core_frac", "taper_frac", "r_max_factor",
                "fit_amp_min"):
        cfg.write_text(f"[solver]\n{key} = 1.0\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "r")) == 2
        assert capsys.readouterr().err == (f"error: ConfigError: unknown key '{key}' in "
                                           f"section [solver] of {cfg}\n")
    # rejected before anything was written
    assert not os.path.exists(tmp_path / "r")


def test_out_of_range_inputs_exit_2_before_writing(small_cfg, tmp_path, capsys):
    """Values that parse but that the run cannot supply, or that select
    nothing: a snapshot window past the run's frames or grid, or one the
    transform rejects (frames at t = T0 at p = 4.5 on the default config;
    coincident frame times at p = 6, N = 2, nr = 4096), a --q that is
    negative or not finite, a negative --seed, a --names or --p-list that
    selects nothing, a --p-list or --N-list that repeats a value, a --p-list
    value that is not a number.  Each exits 2 with one ConfigError line
    and no warning before it writes a file."""
    small = open(small_cfg).read()
    runs = {}
    for name, text in (("base", small), ("far", small + "x0 = 5.0\nn_angular = 2\n"),
                       ("long", small + "s_lo = 1.0\ns_hi = 100.0\n"),
                       ("late", "[exponents]\np = 4.5\n"),
                       ("coincident", "[exponents]\np = 6.0\nN = 2\n[solver]\nnr = 4096\n")):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(text)
        runs[name] = str(tmp_path / name)
        assert run_cli("simulate", "--config", str(cfg), "--out", runs[name]) == 0
    fresh = str(tmp_path / "fresh")

    def written():
        return {os.path.join(d, n): os.stat(os.path.join(d, n)).st_mtime_ns
                for d in runs.values() for n in os.listdir(d)}

    before = written()
    capsys.readouterr()
    for args in (("functionals", "--out", runs["far"]),
                 ("verify", "--suite", "decay", "--out", runs["far"]),
                 ("functionals", "--out", runs["long"]),
                 ("verify", "--suite", "lemmas", "--out", runs["long"]),
                 ("functionals", "--out", runs["late"]),
                 ("verify", "--suite", "monotone", "--out", runs["late"]),
                 ("functionals", "--out", runs["coincident"]),
                 ("rate", "--out", runs["base"], "--q", "-1"),
                 ("rate", "--out", runs["base"], "--q", "nan"),
                 ("rate", "--out", runs["base"], "--q", "inf"),
                 ("verify", "--suite", "identities", "--seed", "-1", "--out", fresh),
                 ("functionals", "--out", runs["base"], "--names", " , "),
                 ("functionals", "--out", runs["base"], "--names", ""),
                 ("sweep", "--config", small_cfg, "--p-list", "", "--N-list", "3",
                  "--out", fresh),
                 ("sweep", "--config", small_cfg, "--p-list", "3.6,4.2,3.6",
                  "--N-list", "3", "--out", fresh),
                 ("sweep", "--config", small_cfg, "--p-list", "3.6",
                  "--N-list", "3,3", "--out", fresh),
                 ("sweep", "--config", small_cfg, "--p-list", "nan",
                  "--N-list", "3", "--out", fresh)):
        # a warning would be a line on stderr before the error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*args) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1, err
        if args[-1] in (runs["late"], runs["coincident"]):
            assert "[similarity] s_lo, s_hi, T0: " in err and "ValueError: " in err, err
        assert written() == before and not os.path.exists(fresh), args
    assert not os.path.exists(os.path.join(runs["base"], "rate_verdict.json"))
    # a run whose config holds an off-centre ball on the one-ray rule (one
    # that simulate no longer writes) is rejected before any snapshot
    vals, traj, manifest = runio.load_run(runs["base"])
    vals["similarity"]["x0"] = 0.02
    with pytest.raises(runio.ConfigError, match=r"x0 = 0\.02 needs n_angular >= 2"):
        runio.build_snapshots(vals, traj, runs["base"], manifest)


def test_frames_at_T0_exit_2_before_a_frame_is_read(tmp_path, capsys, monkeypatch):
    """The README sweep's p = 4.5 point on the default config stores its
    last frames at t = T_est, so its `auto` window runs to s = 690, where
    T0 - e^(-s) is T0.  `functionals`, `verify --suite monotone` and
    `--suite decay` exit 2 in one ConfigError line, and `sweep` notes the
    point, before any frame is read: Trajectory.sample_state fails the test."""
    cfg = tmp_path / "late.ini"
    cfg.write_text("[exponents]\np = 4.5\n")
    run = str(tmp_path / "late")
    assert run_cli("simulate", "--config", str(cfg), "--out", run) == 0

    def sample_state(*args, **kwargs):
        raise AssertionError("a frame was read")

    monkeypatch.setattr(Trajectory, "sample_state", sample_state)
    capsys.readouterr()
    for args in (("functionals",), ("verify", "--suite", "monotone"),
                 ("verify", "--suite", "decay")):
        assert run_cli(*args, "--out", run) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: [similarity] s_lo, s_hi, T0: ")
        assert err.count("\n") == 1 and "at x0 = 0.0 " in err, err
        assert "ValueError: state time t=" in err and "is not before T0" in err, err
    assert run_cli("sweep", "--p-list", "4.5", "--N-list", "3",
                   "--out", str(tmp_path / "sweep")) == 0
    err = capsys.readouterr().err
    assert "p=4.5 N=3: window not checked: ValueError: " in err
    assert "is not before T0" in err


def test_verify_all_reads_the_run_before_the_identity_battery(tmp_path, capsys,
                                                               monkeypatch):
    """`verify --suite all` on a directory that holds no run exits 2 in one
    line without running the identity battery, and writes nothing."""
    from sswave import verify

    def identity_suite(seed):
        raise AssertionError("the identity battery ran")

    monkeypatch.setattr(verify, "identity_suite", identity_suite)
    out = tmp_path / "not_a_run"
    out.mkdir()
    assert run_cli("verify", "--suite", "all", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: config file not found: ") \
        and err.count("\n") == 1, err
    assert list(out.iterdir()) == []


def test_verify_all_runs_the_identity_battery_before_any_transform(small_cfg, tmp_path,
                                                                   monkeypatch):
    """`verify --suite all` checks the run's snapshot window, then runs the
    identity battery, whose forked workers would inherit the pages of any
    series transformed before it, and only then reads frames:
    Trajectory.sample_state is first called after verify.identity_suite
    returns."""
    from sswave import similarity, verify

    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    events = []
    window, sample_state = similarity.window, Trajectory.sample_state

    def spy(name, fn):
        return lambda *args, **kwargs: events.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(similarity, "window", spy("window", window))
    monkeypatch.setattr(Trajectory, "sample_state", spy("sample_state", sample_state))
    monkeypatch.setattr(verify, "identity_suite", spy("identity_suite", lambda seed: []))
    assert run_cli("verify", "--suite", "all", "--out", out) == 0
    assert events[:3] == ["window", "identity_suite", "sample_state"], events[:3]
    assert events.count("identity_suite") == 1


def test_solver_error_exits_2_with_one_line(small_cfg, tmp_path, capsys):
    """A solve that fails leaves the run directory it was pointed at as it
    was: the earlier run's config echo still matches its manifest, and the
    frames it streamed are gone.  A run directory the failed solve made
    itself is removed, with the parents it made."""
    out = str(tmp_path / "r")
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    before = file_hashes(out, ("",))
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(open(small_cfg).read().replace("u_cap = 1e5", "u_cap = 1e60"))
    capsys.readouterr()
    for run in (out, str(tmp_path / "fresh" / "r")):
        assert run_cli("simulate", "--config", str(cfg), "--out", run) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SolverError: amplitude overflow") and err.count("\n") == 1
    assert file_hashes(out, ("",)) == before
    assert not (tmp_path / "fresh").exists()
    assert run_cli("functionals", "--out", out, "--names", "F0") == 0


def test_out_that_cannot_be_a_directory_exits_2_before_the_solve(small_cfg, tmp_path,
                                                                  capsys, monkeypatch):
    """simulate makes --out before the solve streams its frames into it, and
    sweep makes OUT before its points run: an --out that is a file, or
    under one, ends in one ConfigError line, exit 2, and nothing is solved."""
    def no_solve(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(runio, "run_until_blowup", no_solve)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (("simulate", "--config", small_cfg),
                 ("sweep", "--config", small_cfg, "--p-list", "3.6", "--N-list", "3")):
        for out in (blocker, blocker / "x"):
            assert run_cli(*argv, "--out", str(out)) == 2, (argv, out)
            err = capsys.readouterr().err
            assert err.startswith(f"error: ConfigError: cannot make the directory "
                                  f"{out}: ") and err.count("\n") == 1, err
    assert sorted(os.listdir(tmp_path)) == ["file", "small.ini"]
    assert blocker.read_text() == ""


def test_simulate_never_holds_the_archive(tmp_path):
    """simulate streams each frame into its file as the solver stores it:
    on an nr = 2048 run the traced peak of the whole command stays below a
    quarter of one field's bytes, which holding either field would exceed."""
    import tracemalloc

    cfg = tmp_path / "fine.ini"
    cfg.write_text("[solver]\nnr = 2048\n")
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        assert runio.cmd_simulate(str(cfg), str(out), False, False) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = os.path.getsize(out / "frames_u.npy")
    assert field > 20 * 2 ** 20
    assert peak < field / 4, (peak, field)


def test_functionals_never_holds_the_series(tmp_path):
    """functionals transforms its snapshot series one block of ROW_BLOCK
    snapshots at a time and samples each rule on that block alone: the
    traced peak of the whole command grows by less than a quarter when the
    snapshot window doubles, which holding the transformed series, or a
    rule's node samples over it, would exceed."""
    import tracemalloc

    runs = []
    for s_hi in (7.0, 13.0):
        cfg = tmp_path / f"window{s_hi}.ini"
        cfg.write_text(CFG_SMALL.replace("ds = 0.1", "ds = 0.025")
                       + f"s_lo = 1.0\ns_hi = {s_hi}\n")
        runs.append(str(tmp_path / f"run{s_hi}"))
        assert runio.cmd_simulate(str(cfg), runs[-1], False, False) == 0
    # a process builds each rule once: an untraced first call builds them
    assert runio.cmd_functionals(runs[0], None, False, False) == 0
    peaks = []
    for out in runs:
        tracemalloc.start()
        try:
            assert runio.cmd_functionals(out, None, False, False) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_run_dir_with_a_removed_solver_key_exits_2(small_cfg, tmp_path, capsys):
    """A run directory whose config still sets a solver key that is now a
    constant (as an older version wrote it) is rejected as an unknown key,
    in one line, before the manifest is touched: it must be simulated again."""
    out = str(tmp_path / "r")
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    ini = os.path.join(out, "config.resolved.ini")
    with open(ini, encoding="utf-8") as fh:
        text = fh.read()
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(text.replace("[solver]\n", "[solver]\ncfl = 0.45\n", 1))
    manifest = open(os.path.join(out, "manifest.json"), "rb").read()
    capsys.readouterr()
    assert run_cli("functionals", "--out", out) == 2
    assert capsys.readouterr().err == (f"error: ConfigError: unknown key 'cfl' in "
                                       f"section [solver] of {ini}\n")
    assert open(os.path.join(out, "manifest.json"), "rb").read() == manifest


def test_fit_error_exits_3_with_one_line(small_cfg, tmp_path, capsys, monkeypatch):
    """A fit that fails ends the solve as a solver error does: the run
    directory it was pointed at keeps every byte, and one it made is gone."""
    from sswave import solver
    from sswave.ode import FitError

    def no_fit(*args, **kwargs):
        raise FitError("fit-failed: stub")

    out = tmp_path / "r"
    assert run_cli("simulate", "--config", small_cfg, "--out", str(out)) == 0
    before = file_hashes(out, ("",))
    monkeypatch.setattr(solver, "fit_blowup", no_fit)
    for run in (out, tmp_path / "fresh"):
        assert run_cli("simulate", "--config", small_cfg, "--out", str(run)) == 3
        assert capsys.readouterr().err == "error: FitError: fit-failed: stub\n"
    assert file_hashes(out, ("",)) == before
    assert not (tmp_path / "fresh").exists()


def test_determinism_byte_identical(small_cfg, tmp_path):
    """simulate and functionals into two directories write the same bytes
    in every file, the manifest apart from its written_at: a run records no
    path of its own, so it reads the same wherever it is moved."""
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
        assert run_cli("functionals", "--out", out, "--names", "F0,E0,M") == 0
    ha, hb = file_hashes(a, suffixes=("",)), file_hashes(b, suffixes=("",))
    manifests = [json.load(open(os.path.join(d, "manifest.json"))) for d in (a, b)]
    for manifest, hashes in zip(manifests, (ha, hb)):
        del manifest["written_at"], hashes["manifest.json"]
    assert manifests[0] == manifests[1]
    assert "F0.json" in ha and ha == hb


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


def test_functionals_bad_name_writes_nothing(small_cfg, tmp_path, capsys):
    """Every selected name is checked before the first series is written."""
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    manifest = open(os.path.join(out, "manifest.json")).read()
    capsys.readouterr()
    assert run_cli("functionals", "--out", out, "--names", "F0,nope") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: unknown functional 'nope'"), err
    assert err.count("\n") == 1
    assert not {"F0.csv", "F0.json"} & set(os.listdir(out))
    assert open(os.path.join(out, "manifest.json")).read() == manifest


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
    # a point keeps only its config echo: no later stage can read it
    for point in ("p3.6_N3", "p4.2_N3"):
        assert os.listdir(os.path.join(out, point)) == ["config.resolved.ini"]


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


def test_sweep_point_outside_its_coverage_fails_alone(small_cfg, tmp_path, capfd):
    """s_hi = 16 lies beyond the p=3.6 run (covered to s ~ 14.8) but inside
    the p=4.2 run (s ~ 18.4): the first point fails its verdicts, the
    second gets those of `verify --suite monotone`, and the sweep completes.
    The note comes from whichever process ran the point, a forked worker
    included, so it is read from file descriptor 2."""
    cfg = tmp_path / "long.ini"
    cfg.write_text(open(small_cfg).read() + "s_lo = 10.0\ns_hi = 16.0\n")
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--config", str(cfg), "--p-list", "3.6,4.2",
                   "--N-list", "3", "--out", str(out)) == 0
    assert "p=3.6 N=3: window not checked: ValueError" in capfd.readouterr().err
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


def test_sweep_checks_every_point_before_it_creates_out(tmp_path, capsys):
    """Each point's config gets every check its solve would make before the
    first one runs, so a check that depends on N (here the tensor rule's)
    fails the sweep in one ConfigError line that names each bad (p, N),
    and OUT is never created."""
    cfg = tmp_path / "tensor.ini"
    cfg.write_text(CFG_SMALL + "n_angular = 2\n")
    out = tmp_path / "S"
    assert run_cli("sweep", "--config", str(cfg), "--p-list", "2.5,4.2",
                   "--N-list", "3,4", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: invalid sweep pairs rejected before "
                          "launch: ") and err.count("\n") == 1, err
    assert "(p=2.5, N=4): invalid [similarity] rule: tensor angular grids" in err
    assert "(p=2.5, N=3)" in err and "(p=4.2, N=4)" in err
    assert "(p=4.2, N=3)" not in err
    assert not out.exists()


def _die(*task):
    os._exit(1)


def test_a_dead_worker_exits_4_with_one_line(small_cfg, tmp_path, capsys, monkeypatch):
    """A worker process killed mid-task (here by os._exit) ends a 2-point
    `sweep` and `verify --suite identities` on two CPUs in one WorkerError
    line, exit code 4, and neither writes its report."""
    from sswave import core, verify

    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    monkeypatch.setattr(runio, "_sweep_one", _die)
    monkeypatch.setattr(verify, "identity_group", _die)
    sweep, ident = tmp_path / "sweep", tmp_path / "ident"
    ident.mkdir()
    for argv in (("sweep", "--config", small_cfg, "--p-list", "3.6,4.2",
                  "--N-list", "3", "--out", str(sweep)),
                 ("verify", "--suite", "identities", "--out", str(ident))):
        assert run_cli(*argv) == 4, argv
        err = capsys.readouterr().err
        assert err.startswith("error: WorkerError: a worker process died before "
                              "it returned; ") and err.count("\n") == 1, err
    assert not (sweep / "aggregate.csv").exists()
    assert list(ident.iterdir()) == []


def test_a_run_of_fewer_than_4_frames_ends_in_one_line(tmp_path, capsys):
    """Frames interpolate in t through 4 points: a run that stores fewer is
    rejected by sample_state, and each later stage exits 2 with one
    ConfigError line."""
    cfg = tmp_path / "sparse.ini"
    cfg.write_text(CFG_SMALL.replace("store_ds = 0.04", "store_ds = 50"))
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", str(cfg), "--out", out) == 0
    traj = runio.load_run(out)[1]
    assert traj.frames_t.size < 4
    with pytest.raises(ValueError, match="needs at least 4 frames"):
        traj.sample_state(traj.frames_t[0])
    capsys.readouterr()
    for argv, why in ((["functionals", "--out", out], "[solver] store_ds"),
                      (["verify", "--suite", "monotone", "--out", out], "[solver] store_ds"),
                      (["rate", "--out", out], "2 frames precede T0")):
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1, err
        assert why in err, err
    # with nr = 32 the grid floor 10 dr lies above 0.45 of the first frame's
    # tau, so `rate` would start its sample times at a third frame
    cfg.write_text(CFG_SMALL.replace("store_ds = 0.04", "store_ds = 50")
                   .replace("nr = 256", "nr = 32"))
    two = str(tmp_path / "two")
    assert run_cli("simulate", "--config", str(cfg), "--out", two) == 0
    assert runio.load_run(two)[1].frames_t.size == 2
    capsys.readouterr()
    assert run_cli("rate", "--out", two) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1, err
    assert "2 frames precede T0" in err, err
    for run in (out, two):
        assert not os.path.exists(os.path.join(run, "rate_verdict.json"))


def test_rate_verdicts_fail_on_too_few_samples(tmp_path):
    """With store_ds = 2.5 the rate layer takes two samples, one of them in
    the last decade, and each cone window holds one frame: neither power
    fit, trend nor bound is measured, so all three verdicts fail (exit 1)."""
    cfg = tmp_path / "coarse.ini"
    cfg.write_text(CFG_SMALL.replace("store_ds = 0.04", "store_ds = 2.5"))
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", str(cfg), "--out", out) == 0
    assert run_cli("rate", "--out", out) == 1
    verdict = json.load(open(os.path.join(out, "rate_verdict.json")))
    assert not verdict["slope_within_10pct"]
    assert not verdict["scaled_l2_decreasing_last_decade"]
    assert not verdict["cone_gradient_bounded"]
    assert np.isnan(verdict["cone_gradient_sup"])
    assert len(read_csv(os.path.join(out, "scaled_l2.csv"))[1][0]) == 2


def test_verbose_prints_what_each_command_did(small_cfg, tmp_path, capsys):
    """--verbose prints simulate's status line, one line per functional
    series, the verify report, the rate verdict and one row per sweep
    point."""
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out, "--verbose") == 0
    status = json.load(open(os.path.join(out, "t_est.json")))
    assert capsys.readouterr().out == (
        f"simulate: status=blowup steps={len(read_csv(os.path.join(out, 'center.csv'))[1][0])} "
        f"frames={status['n_frames']} T_est={status['T_est']}\n")

    assert run_cli("functionals", "--out", out, "--names", "F0,M", "--verbose") == 0
    lines = capsys.readouterr().out.splitlines()
    n = len(read_csv(os.path.join(out, "F0.csv"))[1][0])
    assert lines == [f"functionals: wrote F0 ({n} samples)",
                     f"functionals: wrote M ({n} samples)"]

    assert run_cli("verify", "--suite", "monotone", "--out", out, "--verbose") == 0
    printed = capsys.readouterr().out
    assert printed == open(os.path.join(out, "verify_monotone.txt")).read()
    k = len(json.load(open(os.path.join(out, "verify_monotone.json"))))
    assert printed.endswith(f"\nOK: {k}/{k} checks passed\n")

    assert run_cli("rate", "--out", out, "--verbose") == 0
    assert json.loads(capsys.readouterr().out) == json.load(
        open(os.path.join(out, "rate_verdict.json")))

    sweep = str(tmp_path / "sweep")
    assert run_cli("sweep", "--config", small_cfg, "--p-list", "3.6,4.2",
                   "--N-list", "3", "--out", sweep, "--verbose") == 0
    rows = capsys.readouterr().out.splitlines()
    with open(os.path.join(sweep, "aggregate.csv")) as fh:
        table = list(csv.DictReader(fh))
    assert len(rows) == len(table) == 2
    for row, rec in zip(rows, table):
        row = ast.literal_eval(row)
        assert list(row) == list(rec) and row["status"] == rec["status"]
        assert (row["p"], row["N"]) == (float(rec["p"]), int(rec["N"]))
        assert str(row["F0_monotone"]) == rec["F0_monotone"]


def test_console_module_entry(small_cfg, tmp_path):
    out = str(tmp_path / "run")
    proc = subprocess.run([sys.executable, "-m", "sswave", "simulate",
                           "--config", small_cfg, "--out", out],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# on one CPU a stage that fans out runs its tasks in the probe's process,
# where sys.modules shows what they load
_SCIPY_PROBE = """
import json, sys
from sswave import core
from sswave.cli import main
core.usable_cpus = lambda: 1
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
    """Importing the CLI loads no scipy, nor do `simulate`, `rate` and
    `verify --suite identities`, whose rules the package ships, and no
    stage loads scipy.integrate, scipy.sparse, scipy.optimize or
    scipy.interpolate.  A stage loads scipy.special only to build rules its
    run does not store: `verify --suite monotone` on a run without a store
    builds them and writes rules.json, and `functionals` builds and stores
    them.  Once they are stored, `monotone` and `decay` load no scipy and
    `lemmas` only QUADPACK's extension scipy.integrate._quadpack (the F1
    tail), without its parent package, and what the extension imports on
    its first call to check for a LowLevelCallable (scipy._lib._ccallback
    and the top-level scipy package); none of them rewrites the store."""
    never = {"scipy.integrate", "scipy.sparse", "scipy.optimize", "scipy.interpolate"}
    fresh, out = str(tmp_path / "fresh"), str(tmp_path / "run")
    assert scipy_modules() == (0, [])
    os.makedirs(str(tmp_path / "ident"))
    assert scipy_modules("verify", "--suite", "identities", "--out",
                         str(tmp_path / "ident")) == (0, [])
    for run in (fresh, out):
        assert scipy_modules("simulate", "--config", small_cfg, "--out", run) == (0, [])
    code, mods = scipy_modules("verify", "--suite", "monotone", "--out", fresh)
    assert code == 0 and "scipy.special" in mods and not never & set(mods)
    assert "rules.json" in json.load(open(os.path.join(fresh, "manifest.json")))["files"]
    code, mods = scipy_modules("functionals", "--out", out)
    assert code == 0 and "scipy.special" in mods and not never & set(mods), mods
    store = open(os.path.join(out, "rules.json"), "rb").read()
    for suite in ("monotone", "decay"):
        assert scipy_modules("verify", "--suite", suite, "--out", out) == (0, []), suite
    proc = subprocess.run([sys.executable, "-c", "import json, sys, scipy._lib._ccallback; "
                           "print(json.dumps(sorted(sys.modules)))"],
                          capture_output=True, text=True, check=True)
    by_callback = {m for m in json.loads(proc.stdout) if m.split(".")[0] == "scipy"}
    assert scipy_modules("verify", "--suite", "lemmas", "--out", out) == (
        0, sorted(by_callback | {"scipy.integrate._quadpack"}))
    assert open(os.path.join(out, "rules.json"), "rb").read() == store
    assert scipy_modules("rate", "--out", out) == (0, [])


def test_missing_quadpack_exits_2_with_one_line(small_cfg, tmp_path, capsys, monkeypatch):
    """Without scipy's QUADPACK extension the F1 tail cannot be computed:
    `functionals` exits 2 with one line naming the directory it searched,
    and records nothing in the manifest."""
    from sswave import functionals as fu

    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    manifest = open(os.path.join(out, "manifest.json")).read()
    empty = tmp_path / "scipy"
    empty.mkdir()
    monkeypatch.setattr(fu, "_scipy_roots", lambda: [str(empty)])
    fu._qagie.cache_clear()
    capsys.readouterr()
    try:
        assert run_cli("functionals", "--out", out) == 2
    finally:
        fu._qagie.cache_clear()
    assert capsys.readouterr().err == (
        "error: QuadpackError: scipy's QUADPACK extension _quadpack is not in "
        f"{empty / 'integrate'}\n")
    assert open(os.path.join(out, "manifest.json")).read() == manifest


def test_parse_config_pure_defaults():
    cfg, vals = runio.parse_config(None)
    assert cfg["exponents"]["p"] == "4.0"
    assert runio.solver_config(vals).grid.nr == 1024


_floats = st.floats(allow_nan=False, allow_infinity=False)
_VALUES = {
    runio._finite: _floats.map(repr),
    int: st.integers(-10**12, 10**12).map(str),
    runio._auto_or_float: st.one_of(st.just("auto"), _floats.map(repr)),
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
        parsed, _vals = runio.parse_config(path)
    assert parsed == cfg
    assert runio.config_text(parsed) == text


@pytest.mark.parametrize("parse,bad", [
    (runio._finite, "1.0.0"), (int, "1.5"), (runio._auto_or_float, "automatic")] + [
    (parse, bad) for parse in (runio._finite, runio._auto_or_float)
    for bad in ("nan", "inf", "-inf")])
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


def test_export_snapshots_is_the_whole_series_file(small_cfg, tmp_path):
    """`functionals --export-snapshots` writes snapshots.csv one block of the
    series at a time: its sha256 is that of the file written in one piece
    from the node samples of the eagerly transformed whole series."""
    from sswave.similarity import ROW_BLOCK, to_similarity

    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    assert run_cli("functionals", "--out", out, "--names", "F0",
                   "--export-snapshots") == 0
    vals, traj, _manifest = runio.load_run(out)
    rules, snaps = runio.build_snapshots(vals, traj, None, None)
    eager = to_similarity(traj.sample_state(snaps.t), traj.grid, traj.e, snaps.x0, snaps.T0)
    ns, pts = eager.on(rules.plain), rules.plain.points
    m, K = ns.w.shape
    assert m > 2 * ROW_BLOCK
    cols = {"s": np.repeat(eager.s, K)}
    cols.update({f"y{d}": np.tile(pts[:, d], m) for d in range(pts.shape[1])})
    cols.update(w=ns.w.ravel(), ws=ns.ws.ravel(), grad=np.sqrt(ns.g2).ravel(),
                grad_r=np.sqrt(ns.gr2).ravel(), grad_theta=np.sqrt(ns.gth2).ravel())
    whole = runio.write_csv(str(tmp_path / "whole.csv"), list(cols), zip(*cols.values()))
    assert runio.sha256_file(whole) == runio.sha256_file(os.path.join(out, "snapshots.csv"))


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


def test_k_max_zero_checks_f0_alone(small_cfg, tmp_path):
    """k_max = 0 is a ladder of no rungs: simulate accepts it, and the
    monotone suite reports F0's own check alone."""
    cfg = tmp_path / "flat.ini"
    cfg.write_text(open(small_cfg).read() + "\n[functionals]\nk_max = 0\n")
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", str(cfg), "--out", out) == 0
    run_cli("verify", "--suite", "monotone", "--out", out)
    reports = json.load(open(os.path.join(out, "verify_monotone.json")))
    assert [r["name"] for r in reports] == ["F0_monotone"]


def test_verify_monotone_short_snapshot_window_fails(small_cfg, tmp_path):
    """A snapshot window with fewer than 3 snapshots fails F0's own
    monotonicity check (exit 1) instead of raising: it is reported as not
    monotone, with the rest of monitor_monotone's report."""
    cfg = tmp_path / "short.ini"
    cfg.write_text(open(small_cfg).read() + "s_lo = 1.0\ns_hi = 1.15\n")
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", str(cfg), "--out", out) == 0
    assert run_cli("verify", "--suite", "monotone", "--out", out) == 1
    reports = json.load(open(os.path.join(out, "verify_monotone.json")))
    assert reports[0] == {"name": "F0_monotone", "passed": False,
                          "violations": [], "n": 2, "monotone": False,
                          "nonnegative": True, "min_value": reports[0]["min_value"]}


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
    checksum and size; later stages hash only what they wrote: the frames'
    checksum in a sidecar's provenance is the one simulate recorded."""
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
    assert not {"frames_t.npy", "frames_u.npy", "frames_ut.npy", "center.csv",
                "raw.csv"} & set(hashed)
    files = json.load(open(os.path.join(out, "manifest.json")))["files"]
    assert json.load(open(os.path.join(out, "F0.json")))["provenance"]["frames_sha256"] \
        == files["frames_u.npy"]["sha256"]
    on_disk = {n for n in os.listdir(out) if n != "manifest.json"}
    assert set(files) == on_disk
    for name, entry in files.items():
        path = os.path.join(out, name)
        assert entry == {"sha256": sha256_file(path), "bytes": os.path.getsize(path)}


def test_a_stage_reads_its_manifest_config_and_rule_store_once(small_cfg, tmp_path,
                                                                monkeypatch):
    """Every stage parses manifest.json once, on its read side, and types its
    config once; a stage that seeds its rules opens rules.json once, and
    hashes and parses the bytes of that one read."""
    import builtins

    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    opened, typings = [], []
    real_open, real_typed = builtins.open, runio.typed

    def counting_open(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wxa+"):
            opened.append(os.path.basename(str(file)))
        return real_open(file, mode, *args, **kwargs)

    def counting_typed(cfg):
        typings.append(cfg)
        return real_typed(cfg)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(runio, "typed", counting_typed)
    for argv, seeds in ((["simulate", "--config", small_cfg, "--out", out], 0),
                        # no store listed yet: it hashes the store it wrote
                        (["functionals", "--out", out], 1),
                        (["functionals", "--out", out, "--names", "F0"], 1),
                        (["verify", "--suite", "monotone", "--out", out], 1),
                        (["verify", "--suite", "lemmas", "--out", out], 1),
                        (["rate", "--out", out], 0)):
        opened.clear()
        typings.clear()
        assert run_cli(*argv) in (0, 1), argv
        assert opened.count("manifest.json") == 1, (argv, opened)
        assert opened.count("rules.json") == seeds, (argv, opened)
        assert len(typings) == 1, argv


def _one_report_per_eps(task):
    """A stand-in identity_group: one passing report for each eps of the task."""
    from sswave import verify
    return [[verify.report("pohozaev_A", 1.0, 1.0, 1e-8)] for _ in task[1]]


def test_verify_creates_missing_out_dir(tmp_path, monkeypatch):
    from sswave import verify
    monkeypatch.setattr(verify, "identity_group", _one_report_per_eps)
    out = tmp_path / "missing" / "v"
    assert cli_main(["verify", "--suite", "identities", "--out", str(out)]) == 0
    reports = json.load(open(out / "verify_identities.json"))
    # one stand-in report per task and eps: the N = 2 task and the two N = 3 slices
    assert len(reports) == 9 and all(r["passed"] for r in reports)


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


def _replace_same_size(path, old, new):
    with open(path) as fh:
        text = fh.read()
    assert len(old) == len(new) and text.count(old) == 1
    with open(path, "w") as fh:
        fh.write(text.replace(old, new))


def _rehash(out, name):
    """Record the current sha256 of out/name in the manifest, as a stage would."""
    path = os.path.join(out, "manifest.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["files"][name]["sha256"] = runio.sha256_file(os.path.join(out, name))
    with open(path, "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("damage", ["truncate", "no_manifest", "no_entry",
                                    "not_an_object", "no_files", "bad_entry",
                                    "config_edited", "t_est_edited", "no_status",
                                    "frames_header", "frames_rows", "frames_objects",
                                    "frames_transposed",
                                    "rules_weight_edited", "rules_swapped",
                                    "rules_header", "rules_stale"])
def test_load_run_checks_sizes_against_manifest(small_cfg, tmp_path, capsys, damage):
    """A truncated frame file, a missing manifest, a file the manifest does
    not list, or a manifest that is not an object with a "files" object of
    sha256 and byte-size entries is a one-line ConfigError (exit 2) at load
    time; a damaged manifest is one too when `simulate` writes into its
    directory.  So are damages that keep every byte size: a config whose
    hash is not the manifest's, a t_est.json edited in place (its sha256 is
    not the manifest's) or without a status (re-hashed, so the status check
    must see it), a frame file whose header is overwritten or rewritten to
    claim more rows than the file holds or Python objects, and frames
    stored as (nr, frames).  The rule store is read back the same way: a
    weight edited in place (its sha256 is not the manifest's), two weight
    exponents' rules swapped or n_radial changed in its header (re-hashed,
    so the moment and header checks must see it) exit 2; a store left by
    another config, which the restarted manifest does not list, is
    ignored and rebuilt."""
    out = str(tmp_path / "run")
    rules = os.path.join(out, "rules.json")
    if damage == "rules_stale":
        other = tmp_path / "other.ini"
        other.write_text(CFG_SMALL.replace("n_radial = 24", "n_radial = 16"))
        assert run_cli("simulate", "--config", str(other), "--out", out) == 0
        assert run_cli("functionals", "--out", out) == 0
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    manifest = os.path.join(out, "manifest.json")
    if damage.startswith("rules") and damage != "rules_stale":
        assert run_cli("functionals", "--out", out) == 0
        doc = json.load(open(rules))
        if damage == "rules_weight_edited":
            w = doc["radial"]["0.6"]["weights"]
            _replace_same_size(rules, repr(w[3]), repr(w[3])[:-1]
                               + ("1" if repr(w[3])[-1] != "1" else "2"))
        else:
            if damage == "rules_swapped":
                radial = doc["radial"]
                radial["0.1"], radial["0.6"] = radial["0.6"], radial["0.1"]
            else:
                doc["n_radial"] = 32
            with open(rules, "w") as fh:
                json.dump(doc, fh)
            _rehash(out, "rules.json")
    elif damage == "truncate":
        with open(os.path.join(out, "frames_u.npy"), "r+b") as fh:
            fh.truncate(os.path.getsize(fh.name) - 8)
    elif damage == "config_edited":
        _replace_same_size(os.path.join(out, "config.resolved.ini"), "nr = 256", "nr = 128")
    elif damage in ("t_est_edited", "no_status"):
        _replace_same_size(os.path.join(out, "t_est.json"), '"status"', '"statux"')
        if damage == "no_status":
            _rehash(out, "t_est.json")
    elif damage == "frames_header":
        with open(os.path.join(out, "frames_u.npy"), "r+b") as fh:
            fh.write(b"\0" * 10)
    elif damage in ("frames_rows", "frames_objects"):
        rows = str(np.load(os.path.join(out, "frames_t.npy")).size).encode()
        old, new = ((b"(" + rows, b"(" + b"9" * len(rows)) if damage == "frames_rows"
                    else (b"'<f8'", b"'|O8'"))
        with open(os.path.join(out, "frames_u.npy"), "r+b") as fh:
            head = fh.read(128)
            assert head.count(old) == 1 and old != new
            fh.seek(0)
            fh.write(head.replace(old, new))
    elif damage == "frames_transposed":
        path = os.path.join(out, "frames_ut.npy")
        size = os.path.getsize(path)
        np.save(path, np.load(path).T)
        assert os.path.getsize(path) == size
    elif damage == "no_manifest":
        os.remove(manifest)
    else:
        with open(manifest) as fh:
            doc = json.load(fh)
        if damage == "no_entry":
            del doc["files"]["t_est.json"]
        elif damage == "bad_entry":
            del doc["files"]["frames_t.npy"]["sha256"]
        elif damage == "no_files":
            del doc["files"]   # the config hash still matches
        with open(manifest, "w") as fh:
            json.dump([] if damage == "not_an_object" else doc, fh)
    capsys.readouterr()
    if damage == "rules_stale":
        assert "rules.json" not in json.load(open(manifest))["files"]
        assert run_cli("verify", "--suite", "monotone", "--out", out) == 0
        assert json.load(open(rules))["n_radial"] == 24
        assert json.load(open(manifest))["files"]["rules.json"]["sha256"] == \
            runio.sha256_file(rules)
        return
    argvs = [["verify", "--suite", "monotone", "--out", out] if damage.startswith("rules")
             else ["rate", "--out", out]]
    if damage in ("not_an_object", "no_files", "bad_entry"):
        argvs.append(["simulate", "--config", small_cfg, "--out", out])
    for argv in argvs:
        assert run_cli(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and err.count("\n") == 1, err
        assert {"rules_weight_edited": "sha256", "rules_swapped": "closed forms",
                "rules_header": "'n_radial': 32", "t_est_edited": "sha256",
                "no_status": '"status"', "bad_entry": "entries",
                "frames_rows": "greater than file size",
                "frames_objects": "Python objects"}.get(damage, "") in err, err


def test_mapped_frames_survive_a_rewrite(small_cfg, tmp_path):
    """load_run maps the frame files, and `simulate` renames each new frame
    file over the old one: a reader keeps the frames it mapped, whole,
    after the directory is rewritten under another config, also once
    sample_state has dropped their pages and reads fault them in again."""
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    _vals, traj, _manifest = runio.load_run(out)
    assert all(isinstance(getattr(traj, name).base, mmap.mmap)
               for name in runio.FRAMES)
    before = {name: np.array(getattr(traj, name)) for name in runio.FRAMES}
    sampled = traj.sample_state(traj.frames_t)
    inodes = {name: os.stat(os.path.join(out, f"{name}.npy")).st_ino
              for name in runio.FRAMES}
    other = tmp_path / "other.ini"
    other.write_text(CFG_SMALL.replace("nr = 256", "nr = 128"))
    assert run_cli("simulate", "--config", str(other), "--out", out) == 0
    # checked first: reading a mapping of a file truncated in place would
    # end the process with SIGBUS
    assert all(os.stat(os.path.join(out, f"{name}.npy")).st_ino != ino
               for name, ino in inodes.items())
    for name, old in before.items():
        assert np.array_equal(getattr(traj, name), old), name
    again = traj.sample_state(traj.frames_t)
    assert np.array_equal(again.u, sampled.u) and np.array_equal(again.ut, sampled.ut)
    assert np.array_equal(sampled.u, before["frames_u"].T)
    assert runio.load_run(out)[1].frames_u.shape[1] == 128
    assert not [n for n in os.listdir(out) if n.endswith(".tmp")]


def _resident_file_kb() -> int | None:
    """This process's resident pages of mapped files (RssFile, plus RssShmem
    for a tmpfs), in kB; None where /proc/self/status has no RssFile."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh)
    except OSError:
        return None
    if "RssFile" not in fields:
        return None
    return sum(int(fields[k].split()[0]) for k in ("RssFile", "RssShmem") if k in fields)


def _mapped_trajectory(tmp_path, ft, nr=4096):
    """A p = 7, N = 2 blow-up Trajectory at frame times ft whose frames
    (u = t + r-ramp, u_t = t + 1 + r-ramp) read_artifact maps from .npy
    files, and the kB they map."""
    from sswave.core import RadialGrid, make_exponents
    from sswave.solver import Trajectory

    files = {}
    for k, name in enumerate(("frames_u", "frames_ut")):
        path = tmp_path / f"{name}.npy"
        np.save(path, np.add.outer(ft, np.linspace(k, k + 1.0, nr)))
        files[f"{name}.npy"] = {"sha256": "", "bytes": path.stat().st_size}
    frames = {name: runio.read_artifact(str(tmp_path), {"files": files}, f"{name}.npy")
              for name in ("frames_u", "frames_ut")}
    traj = Trajectory(e=make_exponents(7.0, 2), grid=RadialGrid(r_max=1.5, nr=nr),
                      frames_t=ft, **frames, center_t=ft, center_u=ft, max_u=ft,
                      status="blowup")
    return traj, sum(f.nbytes for f in frames.values()) // 1024


def test_mapped_reads_keep_one_block_resident(tmp_path):
    """sample_state on frames that read_artifact mapped drops their pages
    after each block of times: sampling at every one of 512 frame times
    reads all 32 MB of both fields, but leaves less than a quarter of them
    resident, where keeping every page read would hold them all."""
    if _resident_file_kb() is None:
        pytest.skip("/proc/self/status reports no RssFile")
    from sswave.solver import TIME_BLOCK

    ft = np.linspace(0.0, 1.0, 8 * TIME_BLOCK)
    traj, mapped_kb = _mapped_trajectory(tmp_path, ft)
    assert mapped_kb >= 32 * 1024
    before = _resident_file_kb()
    got = traj.sample_state(ft)
    grown = _resident_file_kb() - before
    assert np.array_equal(got.u, traj.frames_u.T)
    assert np.array_equal(got.ut, traj.frames_ut.T)
    assert grown < mapped_kb / 4, (grown, mapped_kb)


def test_rate_reads_keep_one_block_resident(tmp_path, monkeypatch):
    """theorem_quantities walks its sample windows' frames TIME_BLOCK at a
    time and drops a mapped archive's pages after each block: on 512 frames
    geometric in T0 - t the windows span 7/8 of the 32 MB of both fields,
    but less than a quarter of them stays resident.  Its report is bit for
    bit the one it makes walking all the frames in one block."""
    import dataclasses

    from sswave import functionals
    from sswave.solver import TIME_BLOCK

    if _resident_file_kb() is None:
        pytest.skip("/proc/self/status reports no RssFile")
    n = 8 * TIME_BLOCK
    traj, mapped_kb = _mapped_trajectory(tmp_path, 1.0 - np.geomspace(1.0, 1e-3, n))
    before = _resident_file_kb()
    got = functionals.theorem_quantities(traj, traj.e, 1.0, q=1.0)
    grown = _resident_file_kb() - before
    assert grown < mapped_kb / 4, (grown, mapped_kb)
    monkeypatch.setattr(functionals, "TIME_BLOCK", n)
    whole = functionals.theorem_quantities(traj, traj.e, 1.0, q=1.0)
    np.testing.assert_equal(dataclasses.asdict(got), dataclasses.asdict(whole))


@pytest.mark.parametrize("window", ["", "s_lo = 1.0\n"])
def test_lemma_window_transform_is_bit_identical(tmp_path, window):
    """The lemma suite's window of the series `verify` builds is transformed
    when it is selected, alone, on its own cone rows: its node samples are
    those of the eagerly transformed whole series' window, bit for bit, and
    the lemma suite reports the same dicts on both.  From s_lo = 1.0 the
    grid point nearest s0 + 1 lies an ulp past it, and the window still
    takes it."""
    from sswave import verify
    from sswave.similarity import TransformSnapshot, to_similarity

    cfg_path = tmp_path / "window.ini"
    cfg_path.write_text(CFG_SMALL + window)
    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", str(cfg_path), "--out", out) == 0
    vals, traj, _manifest = runio.load_run(out)
    rules, snaps = runio.build_snapshots(vals, traj, None, None)
    eager = to_similarity(traj.sample_state(snaps.t), traj.grid, traj.e, snaps.x0, snaps.T0)
    assert eager.s.tobytes() == snaps.s.tobytes()
    span = (snaps.s[0], min(snaps.s[0] + verify.LEMMA_SPAN, snaps.s[-1]))
    cut, full = verify.in_window(snaps, span), verify.in_window(eager, span)
    assert isinstance(cut, TransformSnapshot) and cut.s.tobytes() == full.s.tobytes()
    assert cut.s.size < snaps.s.size and abs(cut.s[-1] - span[1]) < 1e-9
    assert cut.spline.y.shape[1] == 2 * cut.s.size < eager.spline.y.shape[1]
    for beta in (0.0, vals["functionals"]["eps"] - 0.5):
        a, b = cut.on(rules.rule(beta)), full.on(rules.rule(beta))
        for name in a.ROWS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (beta, name)
    reports = [verify.lemma_suite(series, rules, traj.e, vals["functionals"]["eps"],
                                  vals["similarity"]["ds"], traj.grid.dr)
               for series in (snaps, eager)]
    assert reports[0] == reports[1]


def test_lemma_suite_samples_each_rule_once_per_window(small_cfg, tmp_path, monkeypatch):
    """The lemma suite samples its window alone, each rule once: every left
    side reads its functional from the samples its right side made.  Each
    report is, bit for bit, the reference below, whose left side evaluates
    the functional on a fresh selection of the window's end rows."""
    from sswave import functionals, verify
    from sswave.similarity import SimilaritySnapshot

    out = str(tmp_path / "run")
    assert run_cli("simulate", "--config", small_cfg, "--out", out) == 0
    vals, traj, _manifest = runio.load_run(out)
    rules, snaps = runio.build_snapshots(vals, traj, None, None)
    e, eps = traj.e, vals["functionals"]["eps"]
    sampled = []   # (snapshot, rule) of each sample made, not read from the cache
    on = SimilaritySnapshot.on

    def spy(snap, rule):
        if id(rule) not in snap._samples:
            sampled.append((snap, rule))
        return on(snap, rule)

    monkeypatch.setattr(SimilaritySnapshot, "on", spy)
    reports = verify.lemma_suite(snaps, rules, e, eps, vals["similarity"]["ds"],
                                 traj.grid.dr)
    window = sampled[0][0]
    s = window.s
    assert all(snap is window for snap, _rule in sampled)
    assert s.tobytes() == verify.in_window(
        snaps, (snaps.s[0], min(snaps.s[0] + verify.LEMMA_SPAN, snaps.s[-1]))).s.tobytes()
    rule_ids = [id(rule) for _snap, rule in sampled]
    assert len(set(rule_ids)) == len(rule_ids)

    for rep in reports:
        name = rep["name"]
        rhs_vals = verify.lemma_rhs(name, window, rules, e, eps)
        if name == "dF1":
            f1 = functionals.f_ladder(functionals.f0_series(window, rules, e), 1, e)
            lhs = f1.values[-1] - f1.values[0]
        else:
            first, last = functionals.SNAPSHOT_FUNCTIONALS[name[1:]](
                window[[0, -1]], rules, e, eps)
            lhs = last - first
        ref = verify.report(
            name, lhs, float(np.trapezoid(rhs_vals, s)), rep["tolerance"],
            context=f"window=[{s[0]:.3f},{s[-1]:.3f}] eps={eps} n={s.size}",
            scale=float(np.max(np.abs(rhs_vals))) * max(s[-1] - s[0], 1.0))
        assert rep == ref, name


def test_env_var_selects_output_root(small_cfg, tmp_path, monkeypatch):
    monkeypatch.setenv("SSWAVE_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    assert run_cli("simulate", "--config", small_cfg) == 0
    assert os.path.exists(str(tmp_path / "root" / "run" / "center.csv"))


def test_sweep_runs_one_worker_per_cpu_and_point(small_cfg, tmp_path, capsys,
                                                monkeypatch):
    """A sweep starts min(usable CPUs, points) workers, and none for one
    CPU or one point: the fork start method launches every worker of a pool
    on its first submit.  A stand-in executor records max_workers and maps
    in process.  The worker count is no option: --jobs is a usage error."""
    import concurrent.futures

    from sswave import core

    started = []

    class InProcess:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    for cpus, p_list, want in ((8, "3.6,4.2", [2]), (8, "3.6", []), (1, "3.6,4.2", []),
                               (2, "3.6,4.2,4.5", [2])):
        monkeypatch.setattr(core, "usable_cpus", lambda: cpus)
        started.clear()
        out = str(tmp_path / f"sweep{cpus}_{p_list}")
        assert run_cli("sweep", "--config", small_cfg, "--p-list", p_list,
                       "--N-list", "3", "--out", out) == 0
        assert started == want, (cpus, p_list)
        with open(os.path.join(out, "aggregate.csv")) as fh:
            assert len(fh.read().strip().splitlines()) == 1 + len(p_list.split(","))
    out = tmp_path / "jobs"
    assert run_cli("sweep", "--config", small_cfg, "--p-list", "3.6",
                   "--N-list", "3", "--out", str(out), "--jobs", "2") == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not out.exists()


def test_verify_suite_all(small_cfg, tmp_path):
    out = str(tmp_path / "run")
    run_cli("simulate", "--config", small_cfg, "--out", out)
    assert run_cli("verify", "--suite", "all", "--out", out) == 0
    reports = json.load(open(os.path.join(out, "verify_all.json")))
    names = {r["name"] for r in reports}
    assert "pohozaev_A" in names and "F0_monotone" in names
    assert any(n.startswith("d") for n in names)        # lemma checks
    assert any(n.startswith("window") for n in names)   # decay suite
    # the identity battery first, N outer and eps inner, 10 fields each ...
    battery = [(f"pohozaev_{side}", f"N={N} eps={eps}") for N in (2, 3)
               for eps in (0.6, 1.0, 1.1) for _field in range(10) for side in "AE"]
    assert [(r["name"], r["context"].split(" a=")[0]) for r in reports[:120]] == battery
    # ... then exactly the run-based suites, in order
    run_based = []
    for suite in ("lemmas", "monotone", "decay"):
        run_cli("verify", "--suite", suite, "--out", out)
        run_based += json.load(open(os.path.join(out, f"verify_{suite}.json")))
    assert reports[120:] == run_based
