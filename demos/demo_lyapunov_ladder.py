"""The Lyapunov ladder: F0 and its s^(k/18)-weighted relatives.

F0 = e^(2 alpha s) E is nonincreasing and nonnegative along the flow; so is
each ladder member s^(k/18) F0 past its transient window, and the companion
scriptF_1 built from the weighted functional M and the tail U_1.
"""

import tempfile

import numpy as np

import sswave as sw
from sswave.runio import solve_into
from sswave.quadrature import RuleTable
from sswave import functionals as fu, verify


def main():
    e = sw.make_exponents(4.0, 3)
    grid = sw.RadialGrid(r_max=1.5, nr=1024)
    # the trajectory maps the frames it streamed, which outlive the directory
    with tempfile.TemporaryDirectory() as frames_dir:
        traj = solve_into(sw.SolverConfig(e=e, grid=grid, u_cap=1e8), frames_dir)
    rules = RuleTable(3, n_radial=48)
    s_grid = np.arange(2.0, 24.0, 0.05)
    snaps = sw.trajectory_to_w(traj, e, 0.0, traj.T_est, s_grid)

    f0 = fu.f0_series(snaps, rules, e)
    mon = verify.monitor_monotone(f0, require_nonneg=True)
    print(f"F0: monotone={mon['monotone']}  nonnegative={mon['nonnegative']}  "
          f"range [{f0.values[-1]:.3e}, {f0.values[0]:.3e}]")
    for k, rep in enumerate(verify.check_ladder(f0, e, 6), start=1):
        print(f"  s^({k}/18) F0: monotone={rep['passed']} "
              f"(checked from s = {max(f0.s[0], verify.ladder_start(e, k)):.2f})")

    fam = fu.f_family(snaps, rules, e, k=1)
    monF1 = verify.monitor_monotone(fam["F1"], require_nonneg=True)
    print(f"F1 (with tail integral): monotone={monF1['monotone']} "
          f"nonnegative={monF1['nonnegative']}  "
          f"tail bound {fam['F1'].tail_bound[0]:.2e}")
    sig = verify.smallest_sigma(fam["M"], fam["U1"], 1, e)
    print(f"scriptF1: smallest sigma making it nonincreasing on this run: {sig:.4g}")
    mon_sf = verify.monitor_monotone(fam["scriptF1"])
    print(f"scriptF1 at sigma=1: monotone={mon_sf['monotone']}")

    print("\ndecay suite (each quantity's final/initial over the last half):")
    bundle = verify.build_decay_bundle(snaps, rules, e)
    for rep in verify.check_decay_suite(bundle):
        print(f"  {rep['name']:>15}: ratio {rep['ratio']:.2e}  "
              f"log-slope {rep['log_slope']:+.3f}  pass={rep['passed']}")


if __name__ == "__main__":
    main()
