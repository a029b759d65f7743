"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the expensive trajectories are shared session fixtures.
"""

import json
import math

import numpy as np
import pytest

import sswave as sw
from sswave.core import FunctionalSeries, fan_out
from sswave.quadrature import RuleTable, ball_volume, ball_weight_volume
from sswave.similarity import PolyField, StaticSnapshot, TestField, constant_field
from sswave import functionals as fu
from sswave import verify
from sswave.verify import hardy_ratio
from sswave import runio

from conftest import make_plateau_run, lemma_window_snaps, observed_order


def const_snap(e, value, s=0.0):
    return StaticSnapshot(constant_field(e.N, value), s=s)


def test_criterion_1_constant_solution_exactness():
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=48, n_angular=1)
    k = sw.kappa(e)
    snap = const_snap(e, k, s=0.7)

    # profile-equation residual of the constant solution
    resid = np.max(np.abs(snap.eq_rhs(rules.plain.points, e)))
    assert resid < 1e-12

    al, p, N, eps = e.alpha, e.p, e.N, 0.6
    B, V = ball_volume(N), ball_weight_volume(N, eps)
    Vh = ball_weight_volume(N, eps - 0.5)
    Vm1 = ball_weight_volume(N, eps - 1.0)
    c = e.two_over_pm1 + 0.4
    E_exact = k ** 2 * B * (1.0 / (p - 1.0) - al * N / 2.0)
    checks = {
        "E0": (fu.E0(snap, rules, e), k ** 2 / (p - 1.0) * B),
        "E": (fu.E_and_F0(snap, rules, e)[0], E_exact),
        "F0": (fu.F0(snap, rules, e), math.exp(2 * al * 0.7) * E_exact),
        "E_eps": (fu.E_eps(snap, rules, e, eps), k ** 2 / (p - 1.0) * V),
        "J_eps": (fu.J_eps(snap, rules, e, eps), -(N / 2.0 + al) * k ** 2 * V),
        "N_eps": (fu.N_eps(snap, rules, e, eps), 0.0),
        "I_eps": (fu.I_eps(snap, rules, e, eps), -N / 2.0 * k ** 2 * Vh),
        "M": (fu.M_func(snap, rules, e),
              k ** 2 * (V / (p - 1.0) + c * (N / 2.0 + al) * V
                        + 1.2 * c * (Vm1 - V) + c * al * V)),
    }
    for name, (got, want) in checks.items():
        scale = max(abs(want), k ** 2 * V)
        assert abs(got - want) <= 1e-10 * scale, (name, got, want)
    assert abs(fu.G_eps(snap, rules, e, eps)) <= 1e-10 * k ** (p + 1) * V
    print("\nPASS criterion 1: constant-solution residual "
          f"{resid:.2e} < 1e-12; all closed forms within 1e-10")


@pytest.mark.parametrize("p,N", [(4.0, 3), (2.5, 4), (6.0, 2)])
def test_criterion_2_dissipation_closed_form(p, N):
    e = sw.make_exponents(p, N)
    rules = RuleTable(N, n_radial=48, n_angular=1)
    k, al = sw.kappa(e), e.alpha
    B = ball_volume(N)
    s0, h = 0.9, 1e-4
    f0 = {d: fu.F0(const_snap(e, k, s=s0 + d), rules, e) for d in (-h, h)}
    fd = (f0[h] - f0[-h]) / (2 * h)
    expected = math.exp(2 * al * s0) * (-al ** 2 * k ** 2 * N * B
                                        + al * (p - 1) / (p + 1) * k ** (p + 1) * B)
    rel = abs(fd - expected) / abs(expected)
    assert rel < 1e-8
    print(f"\nPASS criterion 2: d/ds F0 closed form at (p={p}, N={N}), "
          f"rel residual {rel:.2e} < 1e-8")


def test_criterion_3_appendix_identities():
    """Six batteries of 50 fields, one per (N, eps), run as the identity
    suite runs its groups: an N = 3 battery in two halves, on one worker
    process per available CPU."""
    split = {2: [(50, 0)], 3: [(25, 0), (50, 25)]}   # (n_fields, first) of each task
    groups = [(N, eps, n, 100 * N + int(10 * eps), first) for N in (2, 3)
              for eps in (0.6, 1.0, 1.1) for n, first in split[N]]
    worst = 0.0
    total = 0
    for (N, eps, *_), reports in zip(groups, fan_out(verify.identity_group, groups,
                                                     cost=lambda args: args[0])):
        total += len(reports)
        worst = max(worst, max(r["rel_residual"] for r in reports))
        assert all(r["passed"] for r in reports), (N, eps)
    assert worst < 1e-8 and total == 600
    print(f"\nPASS criterion 3: {total} identity checks over "
          f"(N, eps) in {{2,3}}x{{3/5,1,11/10}}, worst residual {worst:.2e} < 1e-8")


@pytest.fixture(scope="module")
def lemma_series_pair(gauss_2048, gauss_4096, exp43):
    rules = RuleTable(3, n_radial=48, n_angular=1)
    coarse = lemma_window_snaps(gauss_2048, exp43, ds=0.025)
    fine = lemma_window_snaps(gauss_4096, exp43, ds=0.0125)
    return rules, coarse, fine


def test_criterion_4_derivative_lemmas(lemma_series_pair, exp43):
    rules, coarse, fine = lemma_series_pair
    lines = []
    for name in verify.LEMMA_NAMES:
        r1 = verify.check_derivative_lemma(name, coarse, rules, exp43, eps=0.6)
        r2 = verify.check_derivative_lemma(name, fine, rules, exp43, eps=0.6)
        order = observed_order(r1["abs_residual"], r2["abs_residual"])
        lines.append(f"{name}: order {order:.2f}")
        assert order >= 1.7, (name, r1["abs_residual"], r2["abs_residual"], order)
    print("\nPASS criterion 4: nine d/ds lemmas converge on the blow-up "
          "trajectory (grid 2048->4096, ds 0.025->0.0125): " + "; ".join(lines))


@pytest.mark.parametrize("p", [3.5, 4.0, 4.5])
def test_criterion_5_ode_blowup_rate(p, plateau_2048):
    traj = plateau_2048 if p == 4.0 else make_plateau_run(2048, p=p)
    assert traj.status == "blowup"
    q = 2.0 / (p - 1.0)
    t_err = abs(traj.T_est - 1.0)
    x_err = abs(traj.fit.exponent + q) / q
    assert t_err < 0.005
    assert x_err < 0.02
    print(f"\nPASS criterion 5: p={p}: T within {t_err:.2e} (<0.5%), "
          f"exponent within {100 * x_err:.3f}% (<2%)")


def test_criterion_6_lyapunov_ladder(plateau_snaps, radial_rules, exp43):
    f0 = fu.f0_series(plateau_snaps, radial_rules, exp43)
    scale = float(np.max(np.abs(f0.values)))
    assert float(np.min(f0.values)) >= -1e-8 * scale
    mon = verify.monitor_monotone(f0, slack=1e-6)
    assert mon["monotone"], mon["violations"]
    for k in range(1, 7):
        sel = f0.s >= max(f0.s[0], verify.ladder_start(exp43, k))
        ser = FunctionalSeries(f"l{k}", f0.s[sel],
                               f0.s[sel] ** (k / 18.0) * f0.values[sel])
        mk = verify.monitor_monotone(ser, slack=1e-6)
        assert mk["monotone"], (k, mk["violations"])
    print("\nPASS criterion 6: F0 >= 0 and F0, s^(k/18) F0 (k=1..6) "
          f"nonincreasing over s in [{f0.s[0]:.1f}, {f0.s[-1]:.1f}]")


def test_criterion_7_decay_suite(plateau_snaps, radial_rules, exp43):
    bundle = verify.build_decay_bundle(plateau_snaps, radial_rules, exp43)
    expected = {"l2_weighted", "l2_weighted_gain", "lp32_weighted", "f0_gain",
                "window_energy", "window_gradient", "lp1_spacetime_tail",
                "window_energy_k1", "window_energy_k2", "lp32_weighted_k1",
                "lp32_weighted_k2", "l2_weighted_gain_k1", "l2_weighted_gain_k2",
                "f0_gain_k1", "f0_gain_k2"}
    assert expected <= set(bundle)
    worst = 0.0
    for rep in verify.check_decay_suite(bundle):
        assert rep["passed"], rep
        worst = max(worst, rep["ratio"])
    print(f"\nPASS criterion 7: {len(bundle)} decay quantities, all decreasing "
          f"with final/initial <= {worst:.2e} (<= 0.1)")


def test_criterion_8_theorem_trend(plateau_2048, exp43):
    rep = fu.theorem_quantities(plateau_2048, exp43, plateau_2048.T_est, q=1.0)
    slope, want = rep.meta["power_fit_slope"], rep.meta["expected_power"]
    assert want == pytest.approx(8.0 / 21.0, rel=1e-12)
    assert abs(slope - want) <= 0.1 * want
    assert np.isfinite(rep.sup["cone_gradient"])
    sl2 = rep.series["scaled_l2"]
    tau = np.exp(-sl2.s)
    pure = sl2.values / np.abs(np.log(tau))
    last = tau <= tau[-1] * 10.0
    assert np.all(np.diff(pure[last]) < 0)
    print(f"\nPASS criterion 8: scaled-L2 power {slope:.4f} vs 8/21 = {want:.4f} "
          f"(within 10%); cone integral bounded (sup {rep.sup['cone_gradient']:.3g})")


@pytest.fixture(scope="module")
def coarse_snaps(plateau_1024, exp43):
    rules = RuleTable(3, n_radial=48, n_angular=1)
    s_grid = np.arange(2.0, 9.2 + 1e-9, 0.05)
    return rules, sw.trajectory_to_w(plateau_1024, exp43, 0.0,
                                     plateau_1024.T_est, s_grid)


def test_criterion_9_inequality_calibrations(plateau_snaps, coarse_snaps,
                                             radial_rules, exp43, tmp_path):
    rules_c, snaps_c = coarse_snaps
    snaps_f = plateau_snaps[plateau_snaps.s <= 9.2 + 1e-9]
    eps = 0.6
    cal = {}
    for label, rules, snaps in [("fine", radial_rules, snaps_f),
                                ("coarse", rules_c, snaps_c)]:
        fields = [StaticSnapshot(TestField(N=3, a=a, poly=PolyField(3, {(0, 0, 0): 1.0})))
                  for a in (0.5, 1.0, 2.0)]
        rng = np.random.default_rng(77)
        fields += [StaticSnapshot(verify.random_test_field(3, rng)) for _ in range(10)]
        ch = verify.calibrate_hardy(fields + [snaps[::20]], eps, rules)
        c_w1 = verify.calibrate_singular_average(snaps, rules, exp43, eps, s_lo=5.0)
        c3 = verify.calibrate_m_bound(snaps[::10], rules, exp43)
        c1 = verify.calibrate_sigma_bound(verify.in_window(snaps, (3.0, 4.0)),
                                          rules, exp43)
        cal[label] = {"hardy_C": ch, "singular_avg_C": c_w1, "m_bound_C3": c3,
                      "sigma_C1": c1}
        assert all(math.isfinite(c) and c > 0.0 for c in (ch, c_w1, c3)), cal[label]
        # each snapshot's own ratio stays below the constants its series gave
        for sn in snaps[::20]:
            assert hardy_ratio(sn, eps, rules) <= ch + 1e-12
            assert abs(fu.M_func(sn, rules, exp43)) <= \
                c3 * fu.m_bound_denominator(sn, rules, exp43) + 1e-12
    out = tmp_path / "calibrations.json"
    out.write_text(json.dumps(cal, indent=1, sort_keys=True))
    for key in ("hardy_C", "singular_avg_C", "m_bound_C3"):
        a, b = cal["fine"][key], cal["coarse"][key]
        assert abs(a - b) <= 0.10 * max(abs(a), abs(b)), (key, a, b)
    # sigma_C1 is a small junk-term bound; compare on the common scale of 1
    a, b = cal["fine"]["sigma_C1"], cal["coarse"]["sigma_C1"]
    assert abs(a - b) <= 0.10 * max(abs(a), abs(b), 1.0)
    print("\nPASS criterion 9: calibrated constants persisted to "
          f"{out} and stable across resolutions: {cal['fine']}")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "det.ini"
    cfg.write_text("[exponents]\np = 4.0\nN = 3\n\n[solver]\nnr = 512\n"
                   "u_cap = 1e6\nstore_ds = 0.04\n\n[similarity]\nds = 0.1\n"
                   "n_radial = 32\n")
    import hashlib
    import os
    hashes = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert runio.cmd_simulate(str(cfg), out, dump_raw=False, verbose=False) == 0
        assert runio.cmd_functionals(out, names="F0,E0,M,F1,singularLp1",
                                     export_snapshots=False, verbose=False) == 0
        hs = {}
        for root, _d, names in os.walk(out):
            for n in sorted(names):
                if n.endswith((".csv", ".npy")):
                    p = os.path.join(root, n)
                    hs[os.path.relpath(p, out)] = hashlib.sha256(
                        open(p, "rb").read()).hexdigest()
        hashes.append(hs)
    assert hashes[0] == hashes[1] and len(hashes[0]) >= 7
    print(f"\nPASS criterion 10: {len(hashes[0])} output files byte-identical "
          "across repeated runs")
