"""Tests for the quadrature plan: within `plan_scope`, `radial_rows` starts
from the cutoff and panel mesh of the previous strictly converged call.

Every plan result is compared with the same call made outside any scope,
which runs the cold path (fresh cutoff, coarse ladder) exactly as before.
"""

import math

import numpy as np
import pytest

from pairboson import quadrature
from pairboson.model import gaussian_profile
from pairboson.quadrature import QuadratureConfig, plan_scope, radial_rows

PROFILE = gaussian_profile(1.0)
NU, MASS, BETA = 3, 0.5, 2.0
CFG = QuadratureConfig()


def rows(foff, habs, need):
    return radial_rows(PROFILE, NU, MASS, BETA, foff, habs, CFG, need)


@pytest.fixture
def cold_calls(monkeypatch):
    """Counts the calls that took the cold path (a fresh cutoff)."""
    count = [0]
    choose = quadrature._choose_cutoff

    def counted(*args):
        count[0] += 1
        return choose(*args)

    monkeypatch.setattr(quadrature, "_choose_cutoff", counted)
    return count


@pytest.mark.parametrize("need", [(0, 1, 2, 3), (1,)])
def test_warm_calls_match_cold_within_tolerance(need, cold_calls):
    # foff falls toward habs while habs varies, as along an inner solve
    points = [(0.2 + 0.05 * math.sin(k), 0.5 * 0.3 ** k) for k in range(10)]
    with plan_scope():
        warm = [rows(habs + margin, habs, need) for habs, margin in points]
    assert cold_calls[0] == 1, "only the first call may run cold"
    for (habs, margin), got in zip(points, warm):
        want = rows(habs + margin, habs, need)
        tol = max(CFG.abs_tol, CFG.rel_tol * np.abs(want[list(need)]).max())
        assert np.abs(got - want)[list(need)].max() <= tol


def test_boundary_call_falls_back_to_cold(cold_calls):
    # margins down to 1e-12 refine the mesh so deep near r = 0 that at
    # foff == habs a carried node has E = 0 in floats
    habs = 0.3
    with plan_scope():
        for k in range(1, 13):
            rows(habs + 10.0 ** -k, habs, (1,))
        cold_calls[0] = 0
        got = rows(habs, habs, (1,))
    assert cold_calls[0] == 1
    want = rows(habs, habs, (1,))
    assert np.array_equal(got, want)


def test_uncertified_cutoff_falls_back_to_cold(cold_calls):
    with plan_scope():
        rows(0.2, 0.1, (0, 1))
        (R, _, _), = quadrature._PLAN.get().values()
        foff, habs = 40.0, 20.0
        assert quadrature._tail_bound(PROFILE, NU, MASS, BETA, foff, habs,
                                      R) >= CFG.tail_tol
        cold_calls[0] = 0
        got = rows(foff, habs, (0, 1))
        (R_new, _, _), = quadrature._PLAN.get().values()
    assert cold_calls[0] == 1
    assert R_new > R
    assert np.array_equal(got, rows(foff, habs, (0, 1)))


def test_nothing_leaks_after_the_scope(cold_calls):
    assert quadrature._PLAN.get() is None
    with plan_scope():
        rows(0.5, 0.2, (0,))
    assert quadrature._PLAN.get() is None
    with pytest.raises(RuntimeError):
        with plan_scope():
            rows(0.5, 0.2, (0,))
            raise RuntimeError("leave the scope by an exception")
    assert quadrature._PLAN.get() is None
    cold_calls[0] = 0
    rows(0.5, 0.2, (0,))
    rows(0.5, 0.2, (0,))
    assert cold_calls[0] == 2
