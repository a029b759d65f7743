"""The narrative demos, the README's config and CLI blocks and the benchmark
tracer stay in step with the package, and every parameter default has a caller
that overrides it.

demo_identities is not run: everything it calls is covered by test_verify,
and it takes longer than the other three together.  Its calls into sswave,
like every demo's, are bound to their signatures without running them.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import os
import re
import runpy
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

from sswave import cli, functionals, verify
from sswave.core import PhysicalState, RadialGrid, make_exponents
from sswave.quadrature import RuleTable, build_rule
from sswave.runio import SCHEMA
from sswave.solver import SolverConfig
from sswave.similarity import (SimilaritySnapshot, StaticSnapshot, WeightedPoly,
                               constant_field, to_similarity)

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


def test_cli_import_loads_no_process_pool():
    """Importing the CLI loads neither concurrent.futures nor multiprocessing:
    the fan-out over worker processes imports them when it starts a pool."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sswave.cli; print(sorted(m for m in "
         "sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)},
        capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def _sswave_calls(path: Path):
    """(line, callee, call node) for each call in the file whose callee is
    a name or attribute chain rooted at an sswave import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update({a.asname or a.name: importlib.import_module(a.name)
                          for a in node.names if a.name.split(".")[0] == "sswave"})
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "sswave":
            mod = importlib.import_module(node.module)
            roots.update({a.asname or a.name: getattr(mod, a.name) for a in node.names})
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in roots:
            callee = roots[func.id]
            for attr in chain:
                callee = getattr(callee, attr)
            yield node.lineno, callee, node


@pytest.mark.parametrize("demo", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_calls_bind_to_sswave_signatures(demo):
    """Every call a demo makes to an sswave function or class passes
    arguments its signature accepts, so an API change cannot leave a demo
    behind unseen, demo_identities, which the suite does not run, included."""
    path = ROOT / "demos" / f"{demo}.py"
    checked = 0
    for line, callee, call in _sswave_calls(path):
        assert not any(isinstance(a, ast.Starred) for a in call.args), line
        assert all(k.arg is not None for k in call.keywords), line
        try:
            inspect.signature(callee).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{line}: {callee.__qualname__}: {exc}")
        checked += 1
    assert checked >= 5, checked


def test_tracer_targets_resolve(monkeypatch):
    """Every function the benchmark tracer wraps exists under its name, and
    both integral paths sample a transform series through the wrapped
    SimilaritySnapshot.on."""
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
    # reading snap._samples, keyed by id(rule): a snapshot is built with no
    # sample, and the first on(rule) caches that rule's
    rules = RuleTable(2, n_radial=4, n_angular=4)
    snap = StaticSnapshot(constant_field(2, 1.0))
    assert snap._samples == {}
    rule = rules.rule(0.6)
    snap.on(rule)
    assert list(snap._samples) == [id(rule)]
    # a three-snapshot transform series: functionals._int and
    # verify._raw_int reach on(), as the tracer's wrapper would see them
    grid = RadialGrid(r_max=1.5, nr=16)
    state = PhysicalState(np.array([0.1, 0.2, 0.3]), np.ones((16, 3)), np.zeros((16, 3)))
    e = make_exponents(6.0, 2)
    series = to_similarity(state, grid, e, 0.0, 1.0)
    seen = []
    on = SimilaritySnapshot.on
    monkeypatch.setattr(SimilaritySnapshot, "on",
                        lambda snap, rule: seen.append(rule) or on(snap, rule))
    for beta, integral in (
            (0.3, lambda: functionals._int(series, rules, 0.3, lambda wt, n: wt * n.w)),
            (0.8, lambda: verify._raw_int(series, rules, e, "w2", 0.8))):
        rule = rules.rule(beta)
        assert id(rule) not in series._samples
        assert integral().shape == (3,)
        assert seen[-1] is rule and id(rule) in series._samples


def test_identity_battery_reaches_the_traced_functions(monkeypatch):
    """The benchmark tracer sees the identity battery through the closed-form
    field routines and the two Pohozaev checks it wraps: a 2-field battery
    calls WeightedPoly.value, grad or hess, and makes 4 Pohozaev checks."""
    calls = {"field": 0, "pohozaev": 0}

    def counted(fn, key):
        def wrapper(*args, **kw):
            calls[key] += 1
            return fn(*args, **kw)
        return wrapper

    for name in ("value", "grad", "hess"):
        monkeypatch.setattr(WeightedPoly, name, counted(getattr(WeightedPoly, name), "field"))
    for name in ("check_pohozaev_A", "check_pohozaev_E"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name), "pohozaev"))
    assert len(verify.run_identity_battery(2, 0.6, n_fields=2)) == 4
    assert calls["field"] >= 1 and calls["pohozaev"] == 4


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


def _documented_commands(text: str) -> dict:
    """Command -> {flag: the '|'-separated choices written after it, or
    None} from the `sswave <command> ...` lines of a usage text."""
    out = {}
    for line in text.splitlines():
        words = line.split()
        if words[:1] == ["sswave"] and len(words) > 1:
            out[words[1]] = {flag: choices.split("|") if "|" in choices else None
                             for flag, choices in re.findall(r"(--[\w-]+)\]? ?([^\s\]]*)",
                                                             line)}
    return out


def test_cli_usage_matches_parser():
    """The README's CLI block and the cli docstring list exactly the
    subcommands of cli.build_parser(), in order, each with its flags and
    their choices; --verbose, which every command takes, is said once.
    Each subcommand's flags are, by dest, the parameters of the runio
    function it calls."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {}
    for name, parser in sub.choices.items():
        flags = {a.option_strings[-1]: a for a in parser._actions
                 if a.option_strings and a.option_strings[-1] != "--help"}
        assert "--verbose" in flags, name
        assert {a.dest for a in flags.values()} == set(
            inspect.signature(parser.get_default("run")).parameters), name
        parsed[name] = {flag: None if a.choices is None else list(a.choices)
                        for flag, a in flags.items() if flag != "--verbose"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```\n", 2)[1]
    for text in (block, cli.__doc__):
        documented = _documented_commands(text)
        assert list(documented) == list(parsed)
        assert documented == parsed
    assert "Every command also takes `--verbose`" in readme
    assert "Every command also takes --verbose" in cli.__doc__


def test_schema_defaults_are_the_library_defaults():
    """Each config default, after its parser, is the default of the library
    parameter it sets, so a library run and a CLI run with no config agree:
    SolverConfig's fields and the rules' sizes."""
    parsed = {sec: {key: parse(default) for key, (default, parse) in keys.items()}
              for sec, keys in SCHEMA.items()}

    def field_defaults(cls):
        return {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}

    solver = field_defaults(SolverConfig)
    # nr sizes the RadialGrid, which has no defaults
    assert set(parsed["solver"]) - set(solver) == {"nr"}
    for key in set(parsed["solver"]) & set(solver):
        assert parsed["solver"][key] == solver[key], key
    for fn in (RuleTable, build_rule):
        params = inspect.signature(fn).parameters
        for key in ("n_radial", "n_angular"):
            assert parsed["similarity"][key] == params[key].default, (fn, key)


def _parsed(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _calls(*tops):
    """Function name -> the calls that may reach it.  A call through an
    attribute (`verify.check_ladder(...)`, `self.step(...)`) is keyed by the
    attribute; a call by bare name only where the module imports that name
    from sswave, else under (module path, name) for the module's own
    functions."""
    calls: dict = {}
    for path, tree in _parsed(*tops):
        imported = {a.asname or a.name: a.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").startswith("sswave"))
                    for a in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                key = node.func.attr
            elif isinstance(node.func, ast.Name):
                key = imported.get(node.func.id, (path, node.func.id))
            else:
                continue
            calls.setdefault(key, []).append(node)
    return calls


def test_every_default_has_a_caller():
    """A defaulted parameter of a function in src/sswave is a knob only if
    some call in src/, tests/, demos/ or perfbench/ passes it a value other
    than the default (compared as ASTs), by keyword or by position;
    otherwise it is a constant."""
    calls = _calls("src", "tests", "demos", "perfbench")

    def overrides(call, param, slot, default):
        args = [kw.value for kw in call.keywords if kw.arg == param]
        if not args and slot is not None and len(call.args) > slot and not any(
                isinstance(arg, ast.Starred) for arg in call.args):
            args = [call.args[slot]]
        return any(ast.dump(arg) != ast.dump(default) for arg in args)

    unset = []
    for path, tree in _parsed("src/sswave"):
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                    fn.name.startswith("__") and fn.name.endswith("__")):
                continue
            a = fn.args
            positional = [arg.arg for arg in a.posonlyargs + a.args]
            bound = 1 if positional[:1] in (["self"], ["cls"]) else 0
            defaulted = list(zip(positional[len(positional) - len(a.defaults):],
                                 a.defaults))
            defaulted += [(arg.arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            callers = calls.get(fn.name, []) + calls.get((path, fn.name), [])
            for param, default in defaulted:
                slot = positional.index(param) - bound if param in positional else None
                if not any(overrides(call, param, slot, default) for call in callers):
                    unset.append(f"{path.name}:{fn.name}({param})")
    assert not unset, f"defaults that no caller overrides: {unset}"


def test_every_table_row_has_a_reader():
    """Every row of verify's integrand tables (_INTEGRANDS, _RAW_TABLE and
    _FLOW_TABLE) is read somewhere in verify: its key appears as a string
    outside the tables' own keys.  And flow_derivative answers every name of
    LEMMA_NAMES, from a _FLOW_TABLE row or an explicit `name ==` composite,
    so that no lemma gains a raw right side without its oracle."""
    tree = ast.parse((ROOT / "src" / "sswave" / "verify.py").read_text(encoding="utf-8"))
    tables = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("_INTEGRANDS", "_RAW_TABLE", "_FLOW_TABLE")}
    assert sorted(tables) == ["_FLOW_TABLE", "_INTEGRANDS", "_RAW_TABLE"]
    keys = {id(key) for table in tables.values() for key in table.keys}
    read = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and id(node) not in keys}
    for name, table in tables.items():
        unread = [key.value for key in table.keys if key.value not in read]
        assert not unread, f"verify.{name} rows that nothing reads: {unread}"
    flow = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "flow_derivative")
    composites = {node.comparators[0].value for node in ast.walk(flow)
                  if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
                  and node.left.id == "name" and isinstance(node.ops[0], ast.Eq)}
    unanswered = set(verify.LEMMA_NAMES) - composites - set(verify._FLOW_TABLE)
    assert not unanswered, f"lemmas without a frozen-flow oracle: {sorted(unanswered)}"


def test_one_least_squares_fit():
    """Every observed rate is a slope of ode.power_fit: no other
    least-squares fit (np.polyfit, np.linalg.lstsq) appears in src/sswave."""
    hits = [f"{path.name}:{i}" for path in sorted((ROOT / "src" / "sswave").rglob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"polyfit|lstsq", line)]
    assert not hits, f"least-squares fits outside ode.power_fit: {hits}"


def test_one_npy_reader():
    """Frame files are read by np.load alone: no hand-written .npy header
    reader (np.lib.format), np.memmap or file map (mmap.mmap()) appears in
    src/sswave.  Of np.lib.format, only the header writer the solver streams
    the frames under is called."""
    hits = [f"{path.name}:{i}" for path in sorted((ROOT / "src" / "sswave").rglob("*.py"))
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"np\.lib\.format(?!\.write_array_header_1_0\()|np\.memmap\("
                         r"|mmap\.mmap\(", line)]
    assert not hits, f".npy reading outside np.load: {hits}"


def test_one_window_check():
    """Snapshot times are checked against the frames, T0 and the radial grid
    by similarity.window alone, before a frame is read: runio.py compares no
    frame time (frames_t[...]), T0 or r_max of its own; in similarity.py
    only window reads frames_t, and it calls _ball for T0 and the grid;
    runio.build_snapshots calls trajectory_to_w, which calls window and
    reads no frame; on the series path only the block transform,
    TransformSeries.__getitem__, calls Trajectory.sample_state."""
    def functions(name):
        tree = ast.parse((ROOT / "src" / "sswave" / name).read_text(encoding="utf-8"))
        return {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}

    def calls(fn):
        found = sorted((n for n in ast.walk(fn) if isinstance(n, ast.Call)),
                       key=lambda n: (n.lineno, n.col_offset))
        return [ast.unparse(n.func).split(".")[-1] for n in found]

    def own_check(node):
        return isinstance(node, ast.Compare) and any(
            (isinstance(n, ast.Subscript) and "frames_t" in ast.unparse(n.value))
            or (isinstance(n, ast.Name) and n.id == "T0")
            or (isinstance(n, ast.Attribute) and n.attr == "r_max")
            for n in ast.walk(node))

    runio, similarity = functions("runio.py"), functions("similarity.py")
    hits = [f"{name}:{n.lineno}" for name, fn in runio.items()
            for n in ast.walk(fn) if own_check(n)]
    assert not hits, f"snapshot-time checks in runio.py: {hits}"
    readers = [name for name, fn in similarity.items() if "frames_t" in ast.unparse(fn)]
    assert readers == ["window"] and "_ball" in calls(similarity["window"]), readers
    assert "trajectory_to_w" in calls(runio["build_snapshots"])
    assert "window" in calls(similarity["trajectory_to_w"])
    tree = ast.parse((ROOT / "src" / "sswave" / "similarity.py").read_text(encoding="utf-8"))
    samplers = sorted(f"{getattr(owner, 'name', 'similarity')}.{fn.name}"
                      for owner in ast.walk(tree)
                      if isinstance(owner, (ast.ClassDef, ast.Module)) for fn in owner.body
                      if isinstance(fn, ast.FunctionDef) and "sample_state" in calls(fn))
    assert samplers == ["TransformSeries.__getitem__"], samplers


def test_one_rule_assembly():
    """A ball rule is assembled at one point: only quadrature._ball_rule
    constructs a BallQuadrature, and only build_rule, for a rule built
    afresh, and RuleTable.rule, for a seeded rule on first use, call
    _ball_rule, so seeding a table assembles none."""
    def callers(name):
        found = []
        for path in sorted((ROOT / "src" / "sswave").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{getattr(owner, 'name', path.stem)}.{fn.name}"
                      for owner in ast.walk(tree) if isinstance(owner, (ast.ClassDef, ast.Module))
                      for fn in owner.body if isinstance(fn, ast.FunctionDef)
                      and any(isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1]
                              == name for n in ast.walk(fn))]
        return sorted(found)

    assert callers("BallQuadrature") == ["quadrature._ball_rule"], callers("BallQuadrature")
    assert callers("_ball_rule") == ["RuleTable.rule", "quadrature.build_rule"], \
        callers("_ball_rule")


def test_frames_are_streamed_not_held():
    """One archive path: the solver writes each frame into its file, so no
    archive is grown in memory (ndarray.resize) in src/sswave, and np.save
    writes frames_t.npy alone."""
    found = {path.name: [line.strip() for line in path.read_text(encoding="utf-8").splitlines()
                         if re.search(r"\.resize\(|np\.save\(", line)]
             for path in sorted((ROOT / "src" / "sswave").rglob("*.py"))}
    hits = [line for lines in found.values() for line in lines]
    assert hits == ["lambda fh: np.save(fh, traj.frames_t))]"], hits


def test_one_worker_policy():
    """How many worker processes run is decided in core.fan_out alone:
    sched_getaffinity, cpu_count and ProcessPoolExecutor appear in
    src/sswave only in core.py."""
    words = r"sched_getaffinity|cpu_count|ProcessPoolExecutor"
    found = {path.name: [i for i, line in enumerate(
                 path.read_text(encoding="utf-8").splitlines(), 1) if re.search(words, line)]
             for path in sorted((ROOT / "src" / "sswave").rglob("*.py"))}
    assert found.pop("core.py")
    assert not any(found.values()), f"worker policy outside core.fan_out: {found}"


def test_g1_stated_once():
    """The profile equation's coefficient g1 = (p+1)/(p-1)^2 is stated once,
    as Exponents.g1: the expression, with p spelled any way, appears in
    src/sswave only in core.py, which holds Exponents.g1 and kappa_value."""
    p = r"(?:\w+\.)*p"
    g1 = rf"\(\s*{p}\s*\+\s*1(?:\.0)?\s*\)\s*/\s*\(\s*{p}\s*-\s*1(?:\.0)?\s*\)\s*\*\*\s*2"
    found = {path.name: [i for i, line in enumerate(
                 path.read_text(encoding="utf-8").splitlines(), 1) if re.search(g1, line)]
             for path in sorted((ROOT / "src" / "sswave").rglob("*.py"))}
    assert found.pop("core.py")
    assert not any(found.values()), f"g1 written out outside core.Exponents: {found}"


def _code_lines(path: Path) -> list[str]:
    """The lines of a module with every string literal and comment blanked
    out, so that a pattern matches code only, not a docstring citing it."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [list(line) for line in lines]
    for tok in tokenize.generate_tokens(iter(lines).__next__):
        if tok.type in (tokenize.STRING, tokenize.COMMENT):
            (r0, c0), (r1, c1) = tok.start, tok.end
            for r in range(r0, r1 + 1):
                lo, hi = (c0 if r == r0 else 0), (c1 if r == r1 else len(rows[r - 1]))
                rows[r - 1][lo:hi] = " " * (hi - lo)
    return ["".join(row) for row in rows]


def test_exponents_stated_once():
    """Every exponent a verdict compares a fitted slope with is written once,
    in core.py: the ladder power k/18 and the tail kernel's (k-18)/18
    (Exponents.ladder, .kernel), the L^2 decay rate 8 alpha/(p+3)
    (.l2_rate), its gain 2(k+1)/(9(p+3)) (.l2_gain), the (p+3)/2 power
    (.lp32) and EPS0.  rate's expected power is -l2_rate, so its form
    4(N/(p+3) - 1/(p-1)) appears nowhere.  Each form, with p spelled any
    way, is counted in the code of src/sswave (docstrings and comments
    excluded): core.py holds exactly the table's statements, and no other
    module any."""
    p = r"(?:\w+\.)*p"
    num = r"(?:\.0*)?(?![\d.])"
    forms = {   # pattern -> how often core.py states it
        rf"/\s*18{num}": 2,
        rf"(?<![\w.])8{num}\s*\*.*/\s*\(\s*{p}\s*\+\s*3{num}\s*\)": 1,
        rf"(?<![\w.])9{num}\s*\*\s*\(\s*{p}\s*\+\s*3{num}\s*\)": 1,
        rf"\(\s*{p}\s*\+\s*3{num}\s*\)\s*/\s*2{num}": 1,
        rf"(?<![\w.])4{num}\s*\*\s*\(\s*(?:\w+\.)*N\s*/\s*\(\s*{p}\s*\+\s*3": 0,
        r"^\s*EPS0\s*=": 1,
    }
    code = {path.name: _code_lines(path)
            for path in sorted((ROOT / "src" / "sswave").rglob("*.py"))}
    for form, in_core in forms.items():
        found = {name: [i for i, line in enumerate(lines, 1) if re.search(form, line)]
                 for name, lines in code.items()}
        assert len(found.pop("core.py")) == in_core, form
        assert not any(found.values()), f"{form} written out outside core: {found}"


def test_package_data_is_declared():
    """Every file the package reads besides its modules is declared as
    package data in pyproject.toml, so an installed wheel carries it:
    identity_rules.json, which verify reads through importlib.resources."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["sswave"]
    data = sorted(path.name for path in (ROOT / "src" / "sswave").iterdir()
                  if path.is_file() and path.suffix != ".py")
    assert data == ["identity_rules.json"] and sorted(declared) == data, (declared, data)
