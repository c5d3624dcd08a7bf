"""Tests for the Bose functions and the closed-form ideal-gas rows.

References: mpmath's polylog at 40 digits (330 where z = e^-alpha needs
them), SciPy's zeta, and the radial quadrature at habs = 0.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest

from pairboson import bose, pressure
from pairboson.errors import PairBosonError, QuadratureFailure
from pairboson.model import Model, delta_profile, gaussian_profile
from pairboson.pressure import OrderPoint, ThermoPoint
from pairboson.quadrature import radial_rows

# every order of rows 0, 1 and 3 in dims 1-5: nu/2 + 1, nu/2 and nu/2 - 1
ORDERS = [k / 2.0 for k in range(-1, 8)]
# both sides of each switch: the series at alpha >= 1, the expansion below
ALPHAS = [1e-300, 1e-14, 1e-3, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 6.0,
          50.0, 700.0]
FLOAT_MAX = mpmath.mpf(1.7976931348623157e308)


def polylog(s, alpha):
    """g_s(e^-alpha) from mpmath, with the digits z = e^-alpha needs."""
    dps = 330 if alpha < 1e-20 or alpha > 100.0 else 40
    with mpmath.workdps(dps):
        return +mpmath.polylog(s, mpmath.exp(-mpmath.mpf(alpha)))


@pytest.mark.parametrize("s", ORDERS)
def test_bose_g_matches_polylog(s):
    for alpha in ALPHAS:
        got, want = bose.bose_g(s, alpha), polylog(s, alpha)
        if want > FLOAT_MAX:
            assert got == math.inf, alpha  # g_(-1/2) at alpha = 1e-300
        else:
            assert abs(got - want) <= 1e-14 * want, alpha


@pytest.mark.parametrize("s", ORDERS)
def test_bose_g_at_one(s):
    # g_s(1) = zeta(s) converges for s > 1 only
    got = bose.bose_g(s, 0.0)
    assert got == (bose.zeta(s) if s > 1.0 else math.inf)


@pytest.mark.parametrize("s", [k / 2.0 for k in range(-7, 2)])
def test_zeta_below_one_matches_scipy(s):
    # Euler-Maclaurin on (0, 1), the reflection formula below 0, and its
    # trivial zeros exactly
    from scipy.special import zeta
    assert bose.zeta(s) == pytest.approx(float(zeta(s)), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("profile", [gaussian_profile(1.0), delta_profile()],
                         ids=["gaussian", "delta"])
@pytest.mark.parametrize("dim", range(1, 6))
def test_q0_rows_match_the_quadrature(dim, profile):
    # _rows at q = 0 is closed form; radial_rows at habs = 0 is the
    # quadrature it replaces, converged to 1e-10 relative by its
    # Gauss-Kronrod estimate.  The estimate can fall short of the true
    # error: the largest miss here is 1.7e-10, row 0 in dim 1 with the
    # delta profile's mesh at foff = 1e-14 and beta = 0.5, where the
    # closed form is within 1e-16 of a 30-digit mpmath.quad
    model = Model(dim=dim, mass=0.5, u=0.5, v=1.0, lambda_profile=profile)
    for foff, beta in itertools.product([1e-14, 1e-6, 0.3, 2.0],
                                        [0.5, 2.0, 8.0]):
        # rho = 0 and mu = -foff give f(0) = foff exactly
        closed = pressure._rows(model, ThermoPoint(beta, -foff),
                                OrderPoint(0.0, 0.0), (0, 1, 3))
        for row, got in zip((0, 1, 3), closed):
            want, = radial_rows(profile, dim, 0.5, beta, foff, 0.0, (row,))
            assert got == pytest.approx(want, rel=2e-10, abs=0.0), \
                (foff, beta, row)


def test_rows_take_the_quadrature_where_they_must(monkeypatch):
    # row 2 carries lam^2, and q > 0 a pair field: both integrate
    model = Model(dim=3, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
    tp = ThermoPoint(2.0, -0.3)
    calls = []
    monkeypatch.setattr(pressure, "radial_rows",
                        lambda *args: calls.append(args) or np.ones(2))
    pressure._rows(model, tp, OrderPoint(0.0, 0.1), (1, 2))
    pressure._rows(model, tp, OrderPoint(1e-300, 0.1), (1,), (3,))
    pressure._rows(model, tp, OrderPoint(np.array([0.0, 0.2]),
                                         np.array([0.1, 0.2])), (0,))
    assert len(calls) == 3
    pressure._rows(model, tp, OrderPoint(0.0, 0.1), (1,), (3,))
    pressure._rows(model, tp, OrderPoint(np.zeros(2), np.array([0.1, 0.2])),
                   (0,))
    assert len(calls) == 3


def test_batch_matches_single_points():
    foff = np.array([0.0, 1e-9, 0.3, 5.0])
    got = bose.ideal_rows(3, 0.5, 2.0, foff, (0, 1))
    assert got.shape == (2, 4)
    for k, f in enumerate(foff):
        one = bose.ideal_rows(3, 0.5, 2.0, f, (0, 1))
        assert one.shape == (2,)
        assert np.array_equal(got[:, k], one)


def test_divergence_at_sigma_zero_is_inf():
    # g_1(1) in dim 2 and g_(1/2)(1) in dim 3; the pressure row stays finite
    assert bose.ideal_rows(2, 0.5, 8.0, 0.0, (1,))[0] == math.inf
    p, n, c = bose.ideal_rows(3, 0.5, 2.0, 0.0, (0, 1, 3))
    assert math.isfinite(p) and math.isfinite(n) and c == math.inf
    assert n == pytest.approx(bose.zeta(1.5) * (0.5 / (4.0 * math.pi)) ** 1.5,
                              rel=1e-15)


def test_large_factors_stay_finite_where_the_value_does():
    # beta = 1e-150, dim 3: lambda^-3 / beta = 2e373 passes the float
    # range, but g_(5/2)(e^-164) brings the pressure row back to 1.3e302
    p, = bose.ideal_rows(3, 0.5, 1e-150, 1.64e152, (0,))
    x = 0.5 / (2.0 * math.pi * 1e-150)
    want = polylog(2.5, 1e-150 * 1.64e152) * mpmath.mpf(x) ** 1.5 / 1e-150
    assert p == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("nu, mass, beta, foff, row, message", [
    (3, 0.5, 2.0, -1e-300, 1, "infeasible evaluation point"),
    (2, 1e-300, 1e300, 0.0, 1, "ideal-gas row 1 is nan"),  # 0 * inf
])
def test_failures_are_quadrature_failures(nu, mass, beta, foff, row,
                                          message):
    with pytest.raises(PairBosonError, match=message) as info:
        bose.ideal_rows(nu, mass, beta, foff, (row,))
    assert info.type is QuadratureFailure


@pytest.mark.parametrize("nu, mass, beta, foff, row, message", [
    (3, 0.5, 1e-300, 0.2, 1, "ideal-gas row 1 passes"),    # lambda^-3
    (1, 0.5, 2.0, 1e-320, 3, "ideal-gas row 3 passes"),    # sigma > 0
    (3, 0.5, 1e-300, 0.0, 1, "ideal-gas row 1 passes"),    # zeta(3/2) finite
])
def test_overflow_is_overflow_error(nu, mass, beta, foff, row, message):
    # a value past the float range, other than the divergence g_s(1) at
    # f(0) = 0, is an overflow, which the solver ends as its float-range
    # error, not a quadrature failure
    with pytest.raises(OverflowError, match=message):
        bose.ideal_rows(nu, mass, beta, foff, (row,))
