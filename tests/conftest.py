"""Shared simulation fixtures; the expensive runs are session-scoped."""

import csv
import math
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

import sswave as sw
from sswave.quadrature import RuleTable
from sswave.similarity import PolyField, StaticSnapshot, WeightedPoly


@pytest.fixture(scope="session")
def exp43():
    return sw.make_exponents(4.0, 3)


def solve(cfg):
    """run_until_blowup with the frames streamed into two temporary files,
    which the trajectory maps; the mappings outlive the files."""
    with tempfile.NamedTemporaryFile() as fu, tempfile.NamedTemporaryFile() as fut:
        return sw.run_until_blowup(cfg, fu, fut)


def make_plateau_run(nr, u_cap=1e8, store_ds=0.02, p=4.0, N=3):
    e = sw.make_exponents(p, N)
    grid = sw.RadialGrid(r_max=1.5, nr=nr)
    cfg = sw.SolverConfig(e=e, grid=grid, u_cap=u_cap, store_ds=store_ds)
    return solve(cfg)


def make_gaussian_run(nr, u_cap=1e4, store_ds=0.02, r_max=0.5):
    e = sw.make_exponents(4.0, 3)
    grid = sw.RadialGrid(r_max=r_max, nr=nr)
    cfg = sw.SolverConfig(e=e, grid=grid, family="gaussian", amplitude=5.0,
                          width=0.35, u_cap=u_cap, store_ds=store_ds)
    return solve(cfg)


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
def plateau_snaps(plateau_2048, exp43):
    """Master snapshot series on the plateau run, s in [2, 26], ds = 0.05."""
    s_grid = np.arange(2.0, 26.0 + 1e-9, 0.05)
    return sw.trajectory_to_w(plateau_2048, exp43, 0.0, plateau_2048.T_est,
                              s_grid)


def lemma_window_snaps(traj, e, ds, length=1.0, offset=0.35):
    """Snapshot series over one unit s-window starting just after -log T0."""
    s_lo = math.ceil((-math.log(traj.T_est) + offset) / 0.1) * 0.1
    s_grid = np.arange(s_lo, s_lo + length + ds / 2.0, ds)
    return sw.trajectory_to_w(traj, e, 0.0, traj.T_est, s_grid)


def observed_order(coarse, fine):
    """log2 of the error ratio between a run and its twice-refined one: the
    observed order of convergence (an exact refined run reads as a huge order)."""
    return math.log2(coarse / max(fine, 1e-300))


def read_csv(path):
    """(header, columns) of a CSV the CLI wrote, every value as a float."""
    with open(path, newline="", encoding="utf-8") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        rows = [[float(v) for v in row] for row in rd]
    cols = list(map(np.array, zip(*rows))) if rows else [np.array([]) for _ in header]
    return header, cols


class BoostedProfile:
    """w_d(y) = kappa (1-|d|^2)^(1/(p-1)) (1 - d.y)^(-a), a = 2/(p-1), for
    |d| < 1: the similarity image of the Lorentz-boosted ODE blow-up
    solution kappa_d (T - t - d.x)^(-a) (Merle-Zaag), a stationary,
    non-radial, non-polynomial solution of the profile equation, smooth on
    the closed ball.  Its jet is in closed form:
        grad w = kappa_d a d (1 - d.y)^(-a-1),
        H = kappa_d a (a+1) d d^T (1 - d.y)^(-a-2)."""

    def __init__(self, p, d):
        self.d = np.asarray(d, dtype=float)
        self.a = 2.0 / (p - 1.0)
        self.kd = sw.kappa_value(p) * (1.0 - self.d @ self.d) ** (1.0 / (p - 1.0))

    def jet(self, pts, degrees):
        a, d = self.a, self.d
        base = 1.0 - np.atleast_2d(pts) @ d
        forms = {0: lambda: self.kd * base ** -a,
                 1: lambda: (self.kd * a * base ** (-a - 1.0))[:, None] * d,
                 2: lambda: ((self.kd * a * (a + 1.0) * base ** (-a - 2.0))[:, None, None]
                             * np.outer(d, d))}
        return [forms[g]() for g in degrees]

    def value(self, pts):
        return self.jet(pts, (0,))[0]


def boosted_snapshot(p, d, s=0.0):
    """StaticSnapshot of the boosted profile with d = len(d) dimensions and
    ds w = 0; the spec gives it only what it reads, N and parts()."""
    N = len(d)
    spec = SimpleNamespace(N=N, parts=lambda: (
        BoostedProfile(p, d), WeightedPoly(N, 0.0, PolyField(N, {}))))
    return StaticSnapshot(spec, s)
