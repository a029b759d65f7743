"""Identity checks: static Pohozaev identities and the d/ds dissipation laws.

The two appendix identities are verified on random closed-form test fields
(both sides via independent code paths); the nine d/ds lemmas are checked on
a solver trajectory, with residuals shrinking at second order under
simultaneous (dr, ds) refinement.
"""

import math
import tempfile

import numpy as np

import sswave as sw
from sswave.runio import solve_into
from sswave.quadrature import RuleTable
from sswave import verify


def main():
    print("static Pohozaev identities on 20 random fields per (N, eps):")
    for N in (2, 3):
        for eps in (0.6, 1.0, 1.1):
            reps = verify.run_identity_battery(N, eps, n_fields=20, seed=7)
            worst = max(r["rel_residual"] for r in reps)
            print(f"  N={N} eps={eps}: {len(reps)} checks, worst residual {worst:.2e}")

    print("\nd/ds lemmas on a Gaussian blow-up trajectory (two resolutions):")
    e = sw.make_exponents(4.0, 3)
    rules = RuleTable(3, n_radial=48)
    series = []
    for nr, ds in ((1024, 0.025), (2048, 0.0125)):
        grid = sw.RadialGrid(r_max=0.5, nr=nr)
        cfg = sw.SolverConfig(e=e, grid=grid, family="gaussian", amplitude=5.0,
                              width=0.35, u_cap=1e4, store_ds=ds * 0.8)
        # the trajectory maps the frames it streamed, which outlive the directory
        with tempfile.TemporaryDirectory() as frames_dir:
            traj = solve_into(cfg, frames_dir)
        s_lo = math.ceil((-math.log(traj.T_est) + 0.35) / 0.1) * 0.1
        s_grid = np.arange(s_lo, s_lo + 1.0 + ds / 2, ds)
        series.append(sw.trajectory_to_w(traj, e, 0.0, traj.T_est, s_grid))
    print(f"  window [{series[0][0].s:.2f}, {series[0][-1].s:.2f}], eps = 3/5")
    print(f"  {'lemma':>8} {'residual (coarse)':>18} {'residual (fine)':>16} {'order':>6}")
    for name in verify.LEMMA_NAMES:
        r1 = verify.check_derivative_lemma(name, series[0], rules, e, eps=0.6)
        r2 = verify.check_derivative_lemma(name, series[1], rules, e, eps=0.6)
        order = math.log2(r1["abs_residual"] / r2["abs_residual"])
        print(f"  {name:>8} {r1['abs_residual']:18.3e} {r2['abs_residual']:16.3e} "
              f"{order:6.2f}")

    c1 = verify.calibrate_sigma_bound(series[1], rules, e)
    print(f"\nSigma inequality: smallest admissible C1 = {c1:.4g}")


if __name__ == "__main__":
    main()
