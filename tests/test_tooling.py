"""The narrative demos, the README's config block and the benchmark tracer
stay in step with the package.

demo_identities is left out: everything it calls is covered by
test_verify, and it takes longer than the other three together.
"""

import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from sswave.quadrature import RuleTable
from sswave.runio import SCHEMA
from sswave.similarity import constant_field, make_test_field

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["demo_blowup_rate", "demo_lyapunov_ladder",
                                  "demo_similarity_profiles"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # the demos write their plot data into the working directory
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if demo == "demo_lyapunov_ladder":
        assert "s^(6/18) F0: monotone=True" in proc.stdout
    if demo == "demo_similarity_profiles":
        assert (tmp_path / "profile_s6.csv").exists()


def test_tracer_targets_resolve():
    """Every function the benchmark tracer wraps exists under its name."""
    # run_path compiles without caching, so the benchmark's directory
    # gains no bytecode files
    wrapped = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))["WRAPPED"]
    assert wrapped
    for modname, target, _span in wrapped:
        owner = importlib.import_module(f"sswave.{modname}")
        for part in target.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"sswave.{modname}.{target}"
        assert callable(owner), f"sswave.{modname}.{target}"
    # the tracer's SimilaritySnapshot.on wrapper counts cache hits by
    # reading snap._samples, keyed by id(rule)
    rules = RuleTable(2, n_radial=4, n_angular=4)
    snap = make_test_field(constant_field(2, 1.0), rules.plain)
    rule = rules.rule(0.6)
    assert id(rules.plain) in snap._samples and id(rule) not in snap._samples
    snap.on(rule)
    assert id(rule) in snap._samples


def test_readme_config_block_matches_schema():
    """The README's ini block lists exactly the schema's sections, keys and
    defaults, in order."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    documented, sec = {}, None
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            sec = line.strip("[]")
            documented[sec] = {}
        elif line:
            key, val = (part.strip() for part in line.split("=", 1))
            documented[sec][key] = val
    schema = {sec: {key: default for key, (default, _parse) in keys.items()}
              for sec, keys in SCHEMA.items()}
    assert [(sec, list(keys.items())) for sec, keys in documented.items()] == \
        [(sec, list(keys.items())) for sec, keys in schema.items()]
