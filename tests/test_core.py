import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sswave as sw


def stationary_residual(p, value):
    """Residual of the constant-profile equation -2(p+1)/(p-1)^2 w + w^p."""
    return abs(-2.0 * (p + 1.0) / (p - 1.0) ** 2 * value + value ** p)


def test_exponents_p4_n3():
    e = sw.make_exponents(4.0, 3)
    assert e.p_c == pytest.approx(3.0)
    assert e.p_S == pytest.approx(5.0)
    assert e.alpha == pytest.approx(2.0 / 3.0 - 1.0)


def test_exponents_p25_n4():
    e = sw.make_exponents(2.5, 4)
    assert e.p_c == pytest.approx(7.0 / 3.0)
    assert e.p_S == pytest.approx(3.0)
    assert e.alpha == pytest.approx(4.0 / 3.0 - 1.5)


def test_exponents_rejects_conformal_boundary():
    with pytest.raises(ValueError, match="superconformal"):
        sw.make_exponents(3.0, 3)


@pytest.mark.parametrize("p,N", [(2.9, 3), (5.0, 3), (6.0, 3), (3.0, 4),
                                 (1.0, 3), (4.0, 1)])
def test_exponents_rejects_out_of_window(p, N):
    with pytest.raises(ValueError):
        sw.make_exponents(p, N)


def test_n2_has_unbounded_sobolev_exponent():
    e = sw.make_exponents(50.0, 2)
    assert math.isinf(e.p_S)
    assert e.alpha < 0


def test_kappa_p4():
    # derived by solving the stationary constant equation directly
    k = sw.kappa(sw.make_exponents(4.0, 3))
    assert k == pytest.approx((10.0 / 9.0) ** (1.0 / 3.0), rel=1e-14)
    assert stationary_residual(4.0, k) < 1e-12


def test_kappa_p3_closed_form():
    assert sw.kappa_value(3.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert stationary_residual(3.0, sw.kappa_value(3.0)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1.05, max_value=9.0))
def test_kappa_consistency_identity(p):
    k = sw.kappa_value(p)
    assert k ** (p - 1.0) * (p - 1.0) ** 2 / (2.0 * (p + 1.0)) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_alpha_negative_and_vanishing_at_conformal(N):
    p_c = 1.0 + 4.0 / (N - 1)
    p_S = 1.0 + 4.0 / (N - 2) if N >= 3 else p_c + 6.0
    ps = np.linspace(p_c + 1e-6, p_S - 1e-6, 41)
    alphas = np.array([sw.make_exponents(p, N).alpha for p in ps])
    assert np.all(alphas < 0)
    # alpha -> 0- as p -> p_c+: strictly decreasing in p
    assert np.all(np.diff(alphas) < 0)
    assert alphas[0] > -1e-5


def test_radial_grid_nodes():
    g = sw.RadialGrid(r_max=2.0, nr=5)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.0
    assert np.all(np.diff(g.nodes) > 0)
    assert g.dr == pytest.approx(0.5)


def test_functional_series_requires_increasing_s():
    sw.FunctionalSeries("ok", [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="increasing"):
        sw.FunctionalSeries("bad", [0.0, 0.0], [1.0, 2.0])
