"""Self-similar profiles: transform a blow-up trajectory onto the unit ball.

For ODE-seeded plateau data the profile w(y, s) should converge to (indeed,
stay at) the constant kappa with ds w -> 0; the profile equation's
discretized residual vanishes under refinement.
"""

import math
import tempfile

import numpy as np

import sswave as sw
from sswave.runio import solve_into
from sswave.quadrature import RuleTable


def main():
    e = sw.make_exponents(4.0, 3)
    k = sw.kappa(e)
    grid = sw.RadialGrid(r_max=1.5, nr=1024)
    # the trajectory maps the frames it streamed, which outlive the directory
    with tempfile.TemporaryDirectory() as frames_dir:
        traj = solve_into(sw.SolverConfig(e=e, grid=grid, u_cap=1e8), frames_dir)
    rules = RuleTable(3, n_radial=48)
    print(f"T_est = {traj.T_est:.8f}, trajectory covers s up to "
          f"{traj.s_max_covered:.2f}")

    s_grid = [2.0, 6.0, 12.0, 20.0]
    snaps = sw.trajectory_to_w(traj, e, 0.0, traj.T_est, s_grid)
    print(f"\nprofile vs the constant kappa = {k:.8f}:")
    for sn in snaps:
        ns = sn.on(rules.plain)
        dev = float(np.max(np.abs(ns.w - k))) / k
        print(f"  s={sn.s:5.1f}: max|w-kappa|/kappa = {dev:.2e}   "
              f"max|ds w| = {float(np.max(np.abs(ns.ws))):.2e}")

    # membership in the energy space and the uniform-center family
    print("\nenergy-space norm, center vs off-center (T*(x) = T0 - delta0 |x|):")
    rules_t = RuleTable(3, n_radial=24, n_angular=10)
    s = 3.0
    tau = math.exp(-s)
    center = sw.trajectory_to_w(traj, e, 0.0, traj.T_est, [s])[0]
    print(f"  center:      H-norm^2 = {sw.functionals.h_norm(center, rules_t):.6f}")
    delta0 = 0.5
    for frac in (0.3, 0.8):
        x = np.array([frac * tau / delta0, 0.0, 0.0])
        T_star = traj.T_est - delta0 * float(np.linalg.norm(x))
        snap = sw.to_similarity(traj.sample_state(T_star - tau), traj.grid, e,
                                x, T_star)
        print(f"  |x| = {np.linalg.norm(x):.4f}: H-norm^2 = "
              f"{sw.functionals.h_norm(snap, rules_t):.6f}")

    # export one radial profile as plot data
    ns = snaps[1].on(rules.plain)
    np.savetxt("profile_s6.csv",
               np.column_stack([np.sqrt(ns.r2), ns.w, ns.ws]),
               delimiter=",", header="rho,w,ws", comments="")
    print("\nwrote profile_s6.csv (rho, w, ds w at s = 6)")


if __name__ == "__main__":
    main()
