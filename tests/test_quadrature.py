"""Tests for the quadrature plan: within `plan_scope`, `radial_rows` starts
from the cutoff and panel mesh of the previous strictly converged call.

Every plan result is compared with the same call made outside any scope,
which runs the cold path (fresh cutoff, coarse ladder) exactly as before.
"""

import math

import numpy as np
import pytest

from pairboson import quadrature
from pairboson.errors import (
    ModelError, PairBosonError, QuadratureFailure, TailNotConverged,
)
from pairboson.kernels import eval_rows
from pairboson.model import delta_profile, gaussian_profile, power_profile
from pairboson.quadrature import plan_scope, radial_rows

PROFILE = gaussian_profile(1.0)
NU, MASS, BETA = 3, 0.5, 2.0
# (habs, margin): foff = habs + margin falls toward habs while habs varies,
# as along an inner solve
FALLING = [(0.2 + 0.05 * math.sin(k), 0.5 * 0.3 ** k) for k in range(10)]


def rows(foff, habs, need):
    """The converged integrals of the rows `need`, in that order."""
    return radial_rows(PROFILE, NU, MASS, BETA, foff, habs, need)


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
        tol = max(quadrature._ABS_TOL,
                  quadrature._REL_TOL * np.abs(want).max())
        assert np.abs(got - want).max() <= tol


def test_boundary_call_stays_warm(cold_calls):
    # margins down to 1e-12 refine the mesh so deep near r = 0 that at
    # foff == habs the plain difference f - h at a carried node is off by
    # more than 1% (at the nodes a refinement adds it rounded to 0 and sent
    # the call down the cold path); summed from its nonnegative parts it
    # keeps every digit, so the call converges on the carried mesh
    habs = 0.3
    with plan_scope():
        for k in range(1, 13):
            rows(habs + 10.0 ** -k, habs, (1,))
        entry, = quadrature._PLAN.get().values()
        cold_calls[0] = 0
        got = rows(habs, habs, (1,))
    assert cold_calls[0] == 0
    kin = entry.nodes ** 2 / (2.0 * MASS)
    stable = kin + habs * entry.lam_c
    plain = (kin + habs) - habs * entry.lam
    assert (abs(plain - stable) > 0.01 * stable).any()
    want = rows(habs, habs, (1,))
    assert got.shape == want.shape == (1,)
    assert abs(got[0] - want[0]) <= max(quadrature._ABS_TOL,
                                        quadrature._REL_TOL * abs(want[0]))


@pytest.mark.parametrize("profile", [PROFILE, power_profile(1.0, 4.0),
                                     delta_profile()])
def test_kernel_is_finite_on_the_boundary(profile):
    # foff == habs, where f - h is r^2/(2m) + habs (1 - lam) and 1 - lam
    # comes from the profile's closed form; also with 1 - lam from lam
    r = np.array([1e-12, 1e-8, 1e-4, 1.0])
    lam, lam_c = profile.value_radial(r), profile.complement_radial(r)
    habs = 10.4
    every = (0, 1, 2, 3)
    assert np.isfinite(eval_rows(r, lam, 1.0 - lam, BETA, 0.5 / MASS, habs,
                                 habs, every)).all()
    out = eval_rows(r, lam, lam_c, BETA, 0.5 / MASS, habs, habs, every)
    assert np.isfinite(out).all()
    kin = r * r / (2.0 * MASS)
    E = np.sqrt((kin + habs * lam_c) * (kin + habs + habs * lam))
    assert np.array_equal(out[2], lam * lam * (1.0 / np.expm1(BETA * E)
                                               + 0.5) / E)
    assert np.allclose(lam_c, 1.0 - lam, rtol=0.0, atol=2e-16)


def test_uncertified_cutoff_falls_back_to_cold(cold_calls):
    with plan_scope():
        rows(0.2, 0.1, (0, 1))
        entry, = quadrature._PLAN.get().values()
        R = entry[0]
        foff, habs = 40.0, 20.0
        assert quadrature._tail_bound(entry.tail, MASS, BETA, foff,
                                      habs) >= quadrature._TAIL_TOL
        cold_calls[0] = 0
        got = rows(foff, habs, (0, 1))
        entry, = quadrature._PLAN.get().values()
        R_new = entry[0]
    assert cold_calls[0] == 1
    assert R_new > R
    want = rows(foff, habs, (0, 1))
    assert got.shape == (2,)
    assert np.array_equal(got, want)


def assert_nodes_match_meshes():
    """Every plan entry's node arrays equal those recomputed from its own
    stored mesh (a, b), with the operations of a fresh panel evaluation."""
    for entry in quadrature._PLAN.get().values():
        mid = 0.5 * (entry.a + entry.b)[:, None]
        half = 0.5 * (entry.b - entry.a)[:, None]
        nodes = (mid + half * quadrature.XK).ravel()
        want = (half[:, 0], nodes, PROFILE.value_radial(nodes),
                PROFILE.complement_radial(nodes),
                quadrature.angular_factor(NU) * nodes ** (NU - 1))
        assert len(entry.nodes) == 15 * len(entry.a)
        for got, expected in zip((entry.half, entry.nodes, entry.lam,
                                  entry.lam_c, entry.weight), want):
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


def test_extra_rows_are_summed_not_converged():
    # on the boundary sigma = 0 in dim 3 the curvature row diverges: as an
    # extra row it is summed, finite, on the density row's mesh, and the
    # density row matches the call without it; asked to converge, it fails
    habs = 0.3
    got = radial_rows(PROFILE, NU, MASS, BETA, habs, habs, (1,), extra=(3,))
    assert got.shape == (2,) and np.isfinite(got).all()
    alone, = radial_rows(PROFILE, NU, MASS, BETA, habs, habs, (1,))
    assert abs(got[0] - alone) <= max(quadrature._ABS_TOL,
                                      quadrature._REL_TOL * abs(alone))
    # the failing refinement reaches panels where row 3 overflows
    with pytest.raises(QuadratureFailure, match="did not converge"), \
            np.errstate(over="ignore", invalid="ignore"):
        radial_rows(PROFILE, NU, MASS, BETA, habs, habs, (1, 3))


def test_rules_are_exact_on_polynomials():
    # the 15-point Kronrod rule integrates x^k exactly on (-1, 1) up to
    # k = 22, its 7-point Gauss subset up to k = 12
    for weights, top in ((quadrature.WK, 22), (quadrature.WG, 12)):
        for k in range(top + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(weights @ quadrature.XK ** k - exact) <= 1e-15, k


def test_negative_habs_is_a_model_error():
    with pytest.raises(PairBosonError) as info:
        rows(0.5, -0.1, (1,))
    assert info.type is ModelError


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_uncertifiable_tail_is_tail_not_converged(nu):
    # at beta = 1e-300 the tail bound passes the float range at every
    # cutoff; the CLI's overflow tests reach this no more, since their
    # q = 0 rows are closed form
    with pytest.raises(PairBosonError) as info:
        radial_rows(PROFILE, nu, MASS, 1e-300, 1.0, 0.5, (1,))
    assert info.type is TailNotConverged
    assert str(info.value) == \
        "could not certify the radial tail below tolerance"


def _tail_bound_reference(profile, nu, mass, beta, foff, habs, R):
    """The tail bound at (foff, habs, R) written out in one piece."""
    c_nu = quadrature.angular_factor(nu)
    eps_R = R * R / (2.0 * mass)
    if eps_R < 2.0 * (abs(foff) + habs + 1.0 / beta + 1.0):
        return math.inf
    A = max(2.0 / beta, 2.4, 5.4 * beta)
    bose = A * quadrature._gaussian_tail(nu, 0.2 * beta / mass, R)
    B = 2.0 * mass * max(habs * habs * (1.0 + 5.4 / eps_R + 32.0 / eps_R ** 2),
                         1.2)
    pair = B * quadrature._profile_sq_tail(profile, nu - 2.0, R)
    return c_nu * (bose + pair)


@pytest.mark.parametrize("profile, nu", [
    (PROFILE, 3), (gaussian_profile(0.3), 1), (power_profile(1.0, 2.5), 2),
    (delta_profile(), 3)])
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_cached_tail_check_is_the_tail_bound(profile, nu, beta):
    # a warm call checks a stored R with its cached R-only factors; the
    # result must be the bound evaluated in one piece, bit for bit
    finite = 0
    for R in (0.5, 3.0, 8.0, 30.0):
        parts = quadrature._tail_parts(profile, nu, MASS, beta, R)
        for foff in (-0.4, 0.0, 0.3, 2.0, 40.0):
            for habs in (0.0, 0.2, 1.5, 20.0):
                want = _tail_bound_reference(profile, nu, MASS, beta, foff,
                                             habs, R)
                assert quadrature._tail_bound(parts, MASS, beta, foff,
                                              habs) == want
                finite += math.isfinite(want)
    assert finite > 0


@pytest.mark.parametrize("t", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
def test_upper_gamma_closed_form(t):
    """Gamma(t, x) of the tail bound against 30-digit mpmath and SciPy's
    gamma(t) * gammaincc(t, x), from x = 1e-3 into the subnormal range.

    exp(a ln x - x) carries the rounding of its exponent, so the bound is
    (4 + x + t |ln x|) ulp relative; SciPy's own product is off the exact
    value by up to 1.1e-13 relative on this grid, which no 1e-15 match
    with it could absorb, so it is held to 2e-13.  Past x = 700 the values
    leave the normal range and are held to 1e-320 absolute; there SciPy's
    product underflows to 0 earlier.
    """
    import mpmath
    from scipy.special import gamma, gammaincc
    eps = np.finfo(float).eps
    with mpmath.workdps(30):
        for x in np.geomspace(1e-3, 800.0, 120).tolist():
            got = quadrature._upper_gamma(t, x)
            exact = float(mpmath.gammainc(t, x))
            bound = (4.0 + x + t * abs(math.log(x))) * eps
            assert abs(got - exact) <= bound * exact + 1e-320
            if x <= 700.0:
                assert got == pytest.approx(gamma(t) * gammaincc(t, x),
                                            rel=2e-13, abs=0.0)


def test_upper_gamma_stays_finite_past_the_float_range():
    # x^a e^-x above the float range is inf, with no OverflowError, and
    # an underflowing one is 0
    assert quadrature._upper_gamma(400.0, 1.0) == math.inf
    assert quadrature._upper_gamma(4.5, 1e300) == 0.0


def test_plan_entry_caches_the_tail_parts_of_its_cutoff():
    with plan_scope():
        for habs, margin in FALLING:
            rows(habs + margin, habs, (1,))
        entry, = quadrature._PLAN.get().values()
    assert entry.tail == quadrature._tail_parts(PROFILE, NU, MASS, BETA,
                                                entry.R)


def test_warm_return_is_the_refine_route():
    """A call that converges on the carried mesh leaves the plan entry in
    place and returns, bit for bit, the Kronrod sums on that mesh."""
    habs, margin = FALLING[3]
    foff = habs + 1.01 * margin
    with plan_scope():
        rows(habs + margin, habs, (1,))
        entry, = quadrature._PLAN.get().values()
        got = radial_rows(PROFILE, NU, MASS, BETA, foff, habs, (1,),
                          extra=(3,))
        assert next(iter(quadrature._PLAN.get().values())) is entry
    vals = eval_rows(entry.nodes, entry.lam, entry.lam_c, BETA, 0.5 / MASS,
                     foff, habs, (1, 3))
    vals = (vals * entry.weight).reshape(2, len(entry.half), 15)
    want = ((vals @ quadrature.WK) * entry.half).sum(axis=1)
    assert np.array_equal(got, want)


def test_a_stalled_refinement_fails(monkeypatch):
    """A call meets the error target or raises: a refinement that stops at
    50x the target is not accepted."""
    refine = quadrature._refine

    def stalled(panel_integrals, a, b, ik, err, n):
        total, err, a, b = refine(panel_integrals, a, b, ik, err, n)
        target = max(quadrature._ABS_TOL,
                     quadrature._REL_TOL * float(np.abs(total[:n]).max()))
        # the one point of the call stays pending, at 50x its target
        return None, np.full((1, len(a)), 50.0 * target / len(a)), a, b

    monkeypatch.setattr(quadrature, "_refine", stalled)
    habs, margin = FALLING[0]
    with pytest.raises(QuadratureFailure, match="did not converge"):
        rows(habs + margin, habs, (1,))


def test_refine_takes_only_a_finite_total():
    # panels with no error whose sum overflows: the error test alone would
    # pass (the relative target is inf), the total is not accepted
    # (one row, one point)
    def panel_integrals(a, b, points=None):
        return np.full((1, 1, len(a)), 1e308), np.zeros((1, len(a)))

    a, b = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    ik, err = panel_integrals(a, b)
    with np.errstate(over="ignore"):
        assert quadrature._refine(panel_integrals, a, b, ik, err, 1)[0] is None
    total, _, a_out, _ = quadrature._refine(panel_integrals, a, b, ik / 4.0,
                                            err, 1)
    assert total[0, 0] == 5e307 and a_out is a


# a batch of K points: the falling margins, a boundary point and one far
# from the pair scale, integrated on one shared mesh
BATCH = [(habs + margin, habs) for habs, margin in FALLING] + [(0.3, 0.3),
                                                               (2.0, 0.0)]


def _tolerance(want):
    return max(quadrature._ABS_TOL, quadrature._REL_TOL * np.abs(want).max())


@pytest.mark.parametrize("need, extra", [((0, 1, 2, 3), ()), ((1,), (3,)),
                                         ((1, 2), ())])
def test_batch_matches_separate_cold_calls(need, extra):
    foff, habs = np.array(BATCH).T
    if 3 in need:
        foff, habs = foff[:-2], habs[:-2]  # row 3 diverges on the boundary
    got = radial_rows(PROFILE, NU, MASS, BETA, foff, habs, need, extra)
    assert got.shape == (len(need) + len(extra), len(foff))
    for k in range(len(foff)):
        want = radial_rows(PROFILE, NU, MASS, BETA, foff[k], habs[k], need,
                           extra)[:len(need)]
        assert np.abs(got[:len(need), k] - want).max() <= _tolerance(want), k


def test_batch_matches_quad_vec():
    # scipy's quad_vec integrates the K points' rows as one vector-valued
    # integrand on [0, inf), to a far tighter target
    from scipy.integrate import quad_vec
    foff, habs = np.array(BATCH[:6]).T
    need = (0, 1, 2)
    c_nu = quadrature.angular_factor(NU)

    def integrand(r):
        rr = np.full(len(foff), r)
        vals = eval_rows(rr, PROFILE.value_radial(rr),
                         PROFILE.complement_radial(rr), BETA, 0.5 / MASS,
                         foff, habs, need)
        return c_nu * r ** (NU - 1) * vals.ravel()

    want, _ = quad_vec(integrand, 0.0, np.inf, epsabs=1e-15, epsrel=1e-13,
                       limit=2000)
    want = want.reshape(len(need), len(foff))
    got = radial_rows(PROFILE, NU, MASS, BETA, foff, habs, need)
    for k in range(len(foff)):
        assert (np.abs(got[:, k] - want[:, k]).max()
                <= _tolerance(want[:, k])), k


def test_batch_point_fails_the_call():
    # the curvature row diverges on the boundary: asked to converge it,
    # the boundary point fails, and with it the call that batches it
    foff, habs = np.array(BATCH[-3:]).T
    with pytest.raises(QuadratureFailure, match="did not converge"), \
            np.errstate(over="ignore", invalid="ignore"):
        radial_rows(PROFILE, NU, MASS, BETA, foff, habs, (1, 3))


def test_batches_are_chunked(monkeypatch):
    # K points go to the kernel as one flat batch of K * nodes, with each
    # point's foff and habs repeated per node, in chunks of at most _CHUNK
    sizes = []

    def counted(r, lam, lam_c, beta, inv_2m, foff, habs, rows):
        assert len(r) == len(lam) == len(lam_c) == len(foff) == len(habs)
        sizes.append(len(r))
        return eval_rows(r, lam, lam_c, beta, inv_2m, foff, habs, rows)

    foff, habs = np.array(BATCH).T
    one = radial_rows(PROFILE, NU, MASS, BETA, foff[:1], habs[:1], (1,))
    monkeypatch.setattr(quadrature, "eval_rows", counted)
    many = np.repeat(foff, 40), np.repeat(habs, 40)
    got = radial_rows(PROFILE, NU, MASS, BETA, *many, (1,))
    assert max(sizes) == quadrature._CHUNK
    assert abs(got[0, 0] - one[0, 0]) <= _tolerance(one)
