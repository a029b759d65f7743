import copy
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sswave as sw
from sswave import runio
from sswave.quadrature import RuleTable, check_radial_rule, check_rule
from sswave.verify import hardy_ratio
from sswave.similarity import PolyField, StaticSnapshot, TestField


def mp_radial_oracle(f, N, beta, digits=30):
    """Adaptive tanh-sinh integral of f(r) r^(N-1) (1-r^2)^beta on (0,1)."""
    with mpmath.workdps(digits):
        val = mpmath.quad(
            lambda r: f(r) * r ** (N - 1) * (1 - r * r) ** mpmath.mpf(beta),
            [0, 1])
    return float(val) * sw.surface_area(N)


@pytest.mark.parametrize("N,beta,expected", [
    (3, 1.0, 8.0 * math.pi / 15.0),
    (2, 0.0, math.pi),
    (3, -0.5, math.pi ** 2),
])
def test_weighted_volumes_match_closed_forms(N, beta, expected):
    rule = sw.build_rule(N, beta, n_radial=24)
    val = sw.integrate(rule, np.ones(rule.weights.size))
    assert val == pytest.approx(expected, rel=1e-13)
    assert sw.ball_weight_volume(N, beta) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("beta", [0.0, 0.6, 1.0, -0.4, -0.5, 1.1])
def test_gauss_exactness_even_monomials(N, beta):
    # |y|^(2k) integrals against the Gamma closed form, up to the rule's degree
    rule = sw.build_rule(N, beta, n_radial=12)
    for k in range(0, 2 * 12 - 1, 3):
        val = sw.integrate(rule, rule.r2 ** k)
        # int_B |y|^(2k) (1-|y|^2)^beta dy
        exact = (sw.surface_area(N) * 0.5
                 * math.gamma(k + N / 2.0) * math.gamma(beta + 1.0)
                 / math.gamma(k + N / 2.0 + beta + 1.0))
        assert val == pytest.approx(exact, rel=1e-12), f"k={k}"


def test_weights_positive_nodes_interior():
    rule = sw.build_rule(3, -0.4, n_radial=40)
    assert np.all(rule.radial_weights > 0)
    assert np.all((rule.radial_nodes > 0) & (rule.radial_nodes < 1))


def test_rejects_non_integrable_weight():
    with pytest.raises(ValueError, match="non-integrable"):
        sw.build_rule(3, -1.0, 16)
    with pytest.raises(ValueError):
        sw.build_rule(3, 0.0, 3)


@pytest.mark.parametrize("args", [(3, -1.0, 16, 1), (3, 0.0, 3, 1), (1, 0.0, 16, 1),
                                  (2, 0.0, 16, 0), (4, 0.0, 16, 2), (3, -1.5, 2, 0)])
def test_check_rule_raises_what_build_rule_raises(args):
    with pytest.raises((ValueError, NotImplementedError)) as built:
        sw.build_rule(*args)
    with pytest.raises(built.type) as checked:
        check_rule(*args)
    assert str(checked.value) == str(built.value)


@pytest.mark.parametrize("N,n_angular", [(2, 16), (3, 1), (3, 4)])
def test_seeded_rule_table_is_bit_identical(N, n_angular):
    """A table seeded from another's stored() data, through JSON text,
    assembles the same rules bit for bit and builds none."""
    betas = (-0.4, 0.0, 0.1, 0.6, 1.1)
    fresh = RuleTable(N, n_radial=24, n_angular=n_angular)
    built = [fresh.rule(b) for b in betas]
    seeded = RuleTable(N, n_radial=24, n_angular=n_angular)
    seeded.seed(json.loads(json.dumps(fresh.stored())))
    for beta, rule in zip(betas, built):
        again = seeded.rule(beta)
        for name in ("points", "weights", "radial_nodes", "radial_weights"):
            assert getattr(again, name).tobytes() == getattr(rule, name).tobytes(), name
        assert (again.beta, again.n_radial, again.n_angular) == \
            (rule.beta, rule.n_radial, rule.n_angular)
    assert seeded.sphere().points.tobytes() == fresh.sphere().points.tobytes()
    assert seeded.sphere().weights.tobytes() == fresh.sphere().weights.tobytes()
    assert fresh.built and not seeded.built


def test_seeded_rules_are_stored_unread(tmp_path):
    """stored() of a seeded table gives every seeded node and weight bit for
    bit, for betas asked for and for those never assembled: a stage that
    builds one more rule rewrites the rule store with the seeded rules
    unchanged."""
    fresh = RuleTable(3, n_radial=24, n_angular=4)
    for beta in (-0.4, 0.1, 0.6, 1.1):
        fresh.rule(beta)
    doc = json.loads(json.dumps(fresh.stored()))
    seeded = RuleTable(3, n_radial=24, n_angular=4)
    seeded.seed(doc)
    assert seeded.rule(0.6).points.tobytes() == fresh.rule(0.6).points.tobytes()
    assert json.dumps(seeded.stored(), sort_keys=True) == json.dumps(doc, sort_keys=True)
    assert list(seeded._rules) == [0.6] and not seeded.built
    seeded.rule(0.35)
    assert runio.store_rules(str(tmp_path), seeded) == [str(tmp_path / runio.RULES)]
    rewritten = json.loads((tmp_path / runio.RULES).read_text())
    radial, built = rewritten.pop("radial"), fresh.rule(0.35)
    assert radial.pop("0.35") == {"nodes": built.radial_nodes.tolist(),
                                  "weights": built.radial_weights.tolist()}
    assert radial == doc.pop("radial") and rewritten == doc


def _damaged(doc, damage):
    doc = copy.deepcopy(doc)
    rule = doc["radial"]["0.6"]
    if damage == "header":
        doc["n_angular"] = 2
    elif damage == "swapped":
        doc["radial"]["0.6"], doc["radial"]["0.1"] = doc["radial"]["0.1"], rule
    elif damage == "weight":
        rule["weights"][5] *= 1.0 + 1e-9
    elif damage == "negative":
        rule["weights"][0] = -rule["weights"][0]
    elif damage == "node":
        rule["nodes"][-1] = 1.0
    elif damage == "short":
        del rule["nodes"][0], rule["weights"][0]
    elif damage == "text":
        rule["nodes"][0] = "x"
    elif damage == "beta":
        doc["radial"]["-1.0"] = rule
    elif damage == "sphere":
        doc["sphere"]["weights"][0] *= 2.0
    elif damage == "no_sphere":
        del doc["sphere"]
    return doc


@pytest.mark.parametrize("damage", ["header", "swapped", "weight", "negative", "node",
                                    "short", "text", "beta", "sphere", "no_sphere"])
def test_seed_rejects_a_damaged_store(damage):
    """A store for another header, with a rule under another beta, a weight
    off by 1e-9 relative, a weight <= 0, a node at |y| = 1, a rule of the
    wrong size or of text, beta <= -1, or a sphere rule that is not one is
    a ValueError (a TypeError for text), and the table takes no rule."""
    fresh = RuleTable(2, n_radial=24, n_angular=16)
    for beta in (0.1, 0.6):
        fresh.rule(beta)
    doc = json.loads(json.dumps(fresh.stored()))
    table = RuleTable(2, n_radial=24, n_angular=16)
    with pytest.raises((ValueError, TypeError)):
        table.seed(_damaged(doc, damage))
    assert not table._rules and table._sphere is None
    table.seed(doc)     # the undamaged store seeds


def test_a_rejected_seed_keeps_no_stored_rule():
    """A store whose rule of beta 0.6 is damaged, checked after the sound
    rule of beta 0.1, leaves neither in the table: 0.1 is built afresh and
    only it is stored."""
    fresh = RuleTable(2, n_radial=24, n_angular=16)
    for beta in (0.1, 0.6):
        fresh.rule(beta)
    table = RuleTable(2, n_radial=24, n_angular=16)
    with pytest.raises(ValueError):
        table.seed(_damaged(json.loads(json.dumps(fresh.stored())), "weight"))
    table.rule(0.1)
    assert table.built and list(table.stored()["radial"]) == ["0.1"]


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("n_radial", [4, 48, 256])
def test_built_rules_pass_the_stored_rule_checks(N, n_radial):
    """The read-back bounds hold for rules as the program builds them, from
    weights near -1 to large beta and up to 256 radial nodes."""
    for beta in (-0.99, -0.4, 0.0, 1.6, 10.0):
        rule = sw.build_rule(N, beta, n_radial)
        check_radial_rule(N, beta, n_radial, rule.radial_nodes, rule.radial_weights)


def test_smooth_function_matches_adaptive_oracle():
    # non-polynomial radial integrand, singular weight
    for N, beta in [(3, 0.6), (2, -0.4), (3, -0.5), (4, 0.1)]:
        rule = sw.build_rule(N, beta, n_radial=48)
        val = sw.integrate(rule, np.exp(-rule.r2) * np.cos(rule.r2))
        oracle = mp_radial_oracle(
            lambda r: mpmath.e ** (-r * r) * mpmath.cos(r * r), N, beta)
        assert val == pytest.approx(oracle, rel=1e-10)


def test_singular_weight_substitution_oracle():
    # beta = -1/2 + eps with eps = 3/5: agrees with the r = sin(phi) oracle
    beta = -0.5 + 0.6
    rule = sw.build_rule(3, beta, n_radial=48)
    val = sw.integrate(rule, 1.0 / (1.0 + rule.r2))
    with mpmath.workdps(30):
        oracle = mpmath.quad(
            lambda phi: (1 / (1 + mpmath.sin(phi) ** 2)
                         * mpmath.sin(phi) ** 2
                         * mpmath.cos(phi) ** (2 * mpmath.mpf(beta) + 1)),
            [0, mpmath.pi / 2])
    assert val == pytest.approx(float(oracle) * sw.surface_area(3), rel=1e-8)


def test_random_polynomial_matches_oracle_tensor_grid():
    rng = np.random.default_rng(0)
    rule = sw.build_rule(2, 0.6, n_radial=24, n_angular=48)
    coeffs = {(int(i), int(j)): rng.uniform(-1, 1)
              for i in range(4) for j in range(3)}
    poly = PolyField(2, coeffs)
    val = sw.integrate(rule, poly.jet(rule.points, (0,))[0])
    # oracle: term-by-term closed form int y1^i y2^j (1-|y|^2)^beta dy
    total = 0.0
    for (i, j), c in coeffs.items():
        if i % 2 or j % 2:
            continue
        ang = (math.gamma((i + 1) / 2.0) * math.gamma((j + 1) / 2.0)
               / math.gamma((i + j + 2) / 2.0)) * 2.0
        rad = 0.5 * math.gamma((i + j + 2) / 2.0) * math.gamma(1.6) \
            / math.gamma((i + j + 2) / 2.0 + 1.6)
        total += c * ang * rad
    assert val == pytest.approx(total, rel=1e-12)


def test_integrate_rejects_non_finite():
    rule = sw.build_rule(3, 0.0, 8)
    vals = np.ones(rule.weights.size)
    vals[5] = np.nan
    with pytest.raises(ValueError, match="node 5"):
        sw.integrate(rule, vals)


def test_grad_decompose_examples():
    gr, gt = sw.grad_decompose(np.array([0.5, 0.0]), np.array([3.0, 0.0]))
    assert gr == pytest.approx([3.0, 0.0])
    assert gt == pytest.approx([0.0, 0.0])
    gr, gt = sw.grad_decompose(np.array([0.5, 0.0]), np.array([0.0, 2.0]))
    assert gr == pytest.approx([0.0, 0.0])
    assert gt == pytest.approx([0.0, 2.0])


def test_grad_decompose_origin_convention():
    gr, gt = sw.grad_decompose(np.zeros(3), np.array([1.0, 2.0, 3.0]))
    assert np.all(gr == 0.0)
    assert gt == pytest.approx([1.0, 2.0, 3.0])


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3), st.data())
def test_grad_decompose_identities(N, data):
    y = np.array([data.draw(st.floats(-1, 1)) for _ in range(N)])
    g = np.array([data.draw(st.floats(-5, 5)) for _ in range(N)])
    gr, gt = sw.grad_decompose(y, g)
    assert float(np.dot(gr, gt)) == pytest.approx(0.0, abs=1e-12 * (1 + np.dot(g, g)))
    scale = max(1.0, float(np.dot(g, g)))
    # (wr2): |g|^2 = |gr|^2 + |gt|^2 and (y.g)^2 = |y|^2 |gr|^2
    assert np.dot(g, g) == pytest.approx(np.dot(gr, gr) + np.dot(gt, gt),
                                         abs=1e-12 * scale)
    assert np.dot(y, g) ** 2 == pytest.approx(np.dot(y, y) * np.dot(gr, gr),
                                              abs=1e-11 * scale * max(1.0, np.dot(y, y)))
    # (wr1): |y|^2 |g|^2 - (y.g)^2 = |y|^2 |gt|^2
    assert (np.dot(y, y) * np.dot(g, g) - np.dot(y, g) ** 2
            ) == pytest.approx(np.dot(y, y) * np.dot(gt, gt),
                               abs=1e-11 * scale * max(1.0, np.dot(y, y)))


def test_grad_decompose_subnormal_radius():
    """|y|^2 below the smallest normal float falls under the y = 0
    convention instead of dividing by a value with few significant bits."""
    gr, gt = sw.grad_decompose(np.array([3.2080408827930806e-161, 0.0]),
                               np.array([1.0, 0.0]))
    assert np.all(gr == 0.0) and np.all(gt == [1.0, 0.0])


def test_hardy_ratio_constant_field():
    rules = RuleTable(3, n_radial=48)
    snap = StaticSnapshot(TestField(N=3, a=0.0, poly=PolyField(3, {(0, 0, 0): 1.0})))
    ratio = hardy_ratio(snap, 0.6, rules)
    expected = sw.ball_weight_volume(3, -0.4) / sw.ball_weight_volume(3, 0.6)
    assert ratio == pytest.approx(expected, rel=1e-10)


def test_hardy_ratio_zero_field():
    rules = RuleTable(3, n_radial=16)
    snap = StaticSnapshot(TestField(N=3, a=0.0, poly=PolyField(3, {(0, 0, 0): 0.0})))
    assert hardy_ratio(snap, 0.6, rules) == 0.0


def test_hardy_family_below_calibrated_constant():
    from sswave import verify
    rules = RuleTable(3, n_radial=48)
    fields = []
    for a in (0.5, 1.0, 2.0):
        fields.append(StaticSnapshot(
            TestField(N=3, a=a, poly=PolyField(3, {(0, 0, 0): 1.0}))))
    rng = np.random.default_rng(2)
    pool = fields + [StaticSnapshot(verify.random_test_field(3, rng)) for _ in range(8)]
    CH = verify.calibrate_hardy(pool, 0.6, rules)
    assert np.isfinite(CH) and CH > 0
    for f in fields:
        assert hardy_ratio(f, 0.6, rules) <= CH + 1e-12
