"""Shared simulation fixtures; the expensive runs are session-scoped."""

import csv
import math

import numpy as np
import pytest

import sswave as sw
from sswave.quadrature import RuleTable


@pytest.fixture(scope="session")
def exp43():
    return sw.make_exponents(4.0, 3)


def make_plateau_run(nr, u_cap=1e8, store_ds=0.02, p=4.0, N=3):
    e = sw.make_exponents(p, N)
    grid = sw.RadialGrid(r_max=1.5, nr=nr)
    cfg = sw.SolverConfig(e=e, grid=grid, u_cap=u_cap, store_ds=store_ds)
    return sw.run_until_blowup(cfg)


def make_gaussian_run(nr, u_cap=1e4, store_ds=0.02, r_max=0.5):
    e = sw.make_exponents(4.0, 3)
    grid = sw.RadialGrid(r_max=r_max, nr=nr)
    cfg = sw.SolverConfig(e=e, grid=grid, family="gaussian", amplitude=5.0,
                          width=0.35, u_cap=u_cap, store_ds=store_ds)
    return sw.run_until_blowup(cfg)


@pytest.fixture(scope="session")
def plateau_2048(exp43):
    return make_plateau_run(2048)


@pytest.fixture(scope="session")
def plateau_1024(exp43):
    return make_plateau_run(1024)


@pytest.fixture(scope="session")
def gauss_2048():
    return make_gaussian_run(2048, store_ds=0.02)


@pytest.fixture(scope="session")
def gauss_4096():
    return make_gaussian_run(4096, store_ds=0.01)


@pytest.fixture(scope="session")
def radial_rules():
    return RuleTable(3, n_radial=48, n_angular=1)


@pytest.fixture(scope="session")
def plateau_snaps(plateau_2048, exp43, radial_rules):
    """Master snapshot series on the plateau run, s in [2, 26], ds = 0.05."""
    s_grid = np.arange(2.0, 26.0 + 1e-9, 0.05)
    return sw.trajectory_to_w(plateau_2048, exp43, 0.0, plateau_2048.T_est,
                              s_grid, radial_rules.plain)


def lemma_window_snaps(traj, e, rules, ds, length=1.0, offset=0.35):
    """Snapshot series over one unit s-window starting just after -log T0."""
    s_lo = math.ceil((-math.log(traj.T_est) + offset) / 0.1) * 0.1
    s_grid = np.arange(s_lo, s_lo + length + ds / 2.0, ds)
    return sw.trajectory_to_w(traj, e, 0.0, traj.T_est, s_grid, rules.plain)


def read_csv(path):
    """(header, columns) of a CSV the CLI wrote, every value as a float."""
    with open(path, newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        rows = [[float(v) for v in row] for row in rd]
    cols = list(map(np.array, zip(*rows))) if rows else [np.array([]) for _ in header]
    return header, cols
