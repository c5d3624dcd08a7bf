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
# (habs, margin): foff = habs + margin falls toward habs while habs varies,
# as along an inner solve
FALLING = [(0.2 + 0.05 * math.sin(k), 0.5 * 0.3 ** k) for k in range(10)]


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
    with plan_scope():
        warm = [rows(habs + margin, habs, need) for habs, margin in FALLING]
    assert cold_calls[0] == 1, "only the first call may run cold"
    for (habs, margin), got in zip(FALLING, warm):
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
    assert np.array_equal(got[1], want[1])
    # only the needed row is computed
    assert np.isnan(got[[0, 2, 3]]).all() and np.isnan(want[[0, 2, 3]]).all()


def test_uncertified_cutoff_falls_back_to_cold(cold_calls):
    with plan_scope():
        rows(0.2, 0.1, (0, 1))
        entry, = quadrature._PLAN.get().values()
        R = entry[0]
        foff, habs = 40.0, 20.0
        assert quadrature._tail_bound(PROFILE, NU, MASS, BETA, foff, habs,
                                      R) >= CFG.tail_tol
        cold_calls[0] = 0
        got = rows(foff, habs, (0, 1))
        entry, = quadrature._PLAN.get().values()
        R_new = entry[0]
    assert cold_calls[0] == 1
    assert R_new > R
    want = rows(foff, habs, (0, 1))
    assert np.array_equal(got[:2], want[:2])
    # only the needed rows are computed
    assert np.isnan(got[2:]).all() and np.isnan(want[2:]).all()


def assert_nodes_match_meshes():
    """Every plan entry's node arrays equal those recomputed from its own
    stored mesh (a, b), with the operations of a fresh panel evaluation."""
    for entry in quadrature._PLAN.get().values():
        mid = 0.5 * (entry.a + entry.b)[:, None]
        half = 0.5 * (entry.b - entry.a)[:, None]
        nodes = (mid + half * quadrature.XK).ravel()
        want = (half[:, 0], nodes, PROFILE.value_radial(nodes),
                quadrature.angular_factor(NU) * nodes ** (NU - 1))
        assert len(entry.nodes) == 15 * len(entry.a)
        for got, expected in zip((entry.half, entry.nodes, entry.lam,
                                  entry.weight), want):
            assert np.array_equal(got, expected)


def test_node_cache_follows_the_mesh(cold_calls):
    # the falling margins, then one far below them: that call stays warm
    # and refines the carried mesh
    with plan_scope():
        for habs, margin in FALLING:
            rows(habs + margin, habs, (1,))
            assert_nodes_match_meshes()
        entry, = quadrature._PLAN.get().values()
        rows(0.2 + 1e-9, 0.2, (1,))
        refined, = quadrature._PLAN.get().values()
        assert cold_calls[0] == 1, "the refining call must be warm"
        assert len(refined.a) > len(entry.a)
        assert_nodes_match_meshes()


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


def test_rows_must_hold_the_needed_rows():
    with pytest.raises(ValueError):
        radial_rows(PROFILE, NU, MASS, BETA, 0.5, 0.2, CFG, need=(1,),
                    rows=(0, 3))
    got = radial_rows(PROFILE, NU, MASS, BETA, 0.5, 0.2, CFG, need=(1,),
                      rows=(1, 3))
    assert np.isfinite(got[[1, 3]]).all() and np.isnan(got[[0, 2]]).all()
