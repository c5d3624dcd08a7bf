"""Tests for the sup-inf solver, continuation and observables.

Frozen reference numbers were produced by independent re-solves at tighter
settings and by closed-form series evaluation (Bose functions).
"""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pairboson import bose, pressure, solver
from pairboson import quadrature
from pairboson.errors import (
    BracketFailure, ConfigError, ContinuationDiverged, ModelError,
    PairBosonError, QuadratureFailure,
)
from pairboson.model import (
    Model, gaussian_profile, delta_profile, power_profile,
)
from pairboson.pressure import (
    ThermoPoint, OrderPoint, el_residuals, feasible, grad_q, grad_rho,
    grad_rho_slope, outer_grads,
)
from pairboson.solver import (
    inf_rho, outer_opt, eta_continuation, _extrapolate, _inner_solver,
    bose_density, critical_density, mf_density, mf_pressure,
    excitation_spectrum, classify_phase, variational_limit,
    PHASE_NORMAL, PHASE_PAIR_ONLY, PHASE_CONDENSED, PHASE_MF_CONDENSED,
    STATUS_BOUNDARY,
)

GAUSS = gaussian_profile(1.0)


def model(u=0.5, v=1.0, dim=3):
    return Model(dim=dim, mass=0.5, u=u, v=v, lambda_profile=GAUSS)


class TestInnerMinimum:
    def test_stationarity(self):
        m = model()
        tp = ThermoPoint(beta=2.0, mu=-0.3)
        rho_bar, boundary, _ = inf_rho(m, tp, 0.3, 0.1)
        assert not boundary
        assert abs(grad_rho(m, tp, OrderPoint(0.3, rho_bar, 0.1))) < 1e-9

    def test_boundary_detection(self):
        # large positive mu with small eta pins the minimum to sigma = 0
        m = model(u=-0.5)
        tp = ThermoPoint(beta=2.0, mu=1.0)
        rho_bar, boundary, _ = inf_rho(m, tp, 0.05, 1e-4)
        sigma = m.v * rho_bar - tp.mu - abs(m.u) * 0.05
        if boundary:
            assert sigma == pytest.approx(0.0, abs=1e-12)
        else:
            assert sigma > 0.0


def _boundary_by_scan(m, tp, q, eta):
    """The descending 11-probe scan that decided the boundary before the
    two-probe test: boundary unless some probe has a negative slope."""
    rho_lo = max(0.0, (tp.mu + abs(m.u) * q) / m.v)
    scale = max(1.0, rho_lo)
    delta = 1e-3 * scale
    while delta > 1e-14 * scale:
        op = OrderPoint(q, rho_lo + delta, eta)
        if feasible(m, tp, op) and grad_rho(m, tp, op) < 0:
            return False
        delta *= 0.1
    return True


class TestInnerSolve:
    # (u, mu, q, eta): normal, condensed near sigma = 0, repulsive
    POINTS = [(0.5, -0.3, 0.3, 0.1), (0.5, 0.4, 0.8, 1e-4),
              (-0.5, 1.0, 0.0, 1e-4)]

    @pytest.mark.parametrize("u, mu, q, rho, eta", [
        (0.5, -0.3, 0.3, 0.4, 0.1), (0.5, 0.4, 0.8, 0.9, 1e-3),
        (-0.5, 0.4, 0.01, 0.5, 0.0)])
    def test_slope_helper(self, u, mu, q, rho, eta):
        m = model(u=u)
        tp = ThermoPoint(beta=2.0, mu=mu)
        g, slope = grad_rho_slope(m, tp, OrderPoint(q, rho, eta))
        assert g == grad_rho(m, tp, OrderPoint(q, rho, eta))
        h = 1e-5
        fd = (grad_rho(m, tp, OrderPoint(q, rho + h, eta))
              - grad_rho(m, tp, OrderPoint(q, rho - h, eta))) / (2.0 * h)
        assert abs(slope - fd) <= 1e-6 * abs(fd)

    @pytest.mark.parametrize("u, mu, q, eta", POINTS)
    def test_hint_does_not_move_the_minimizer(self, u, mu, q, eta):
        m = model(u=u)
        tp = ThermoPoint(beta=2.0, mu=mu)
        rho_cold, boundary, _ = inf_rho(m, tp, q, eta)
        assert not boundary
        rho_lo = max(0.0, (mu + abs(u) * q) / m.v)
        hints = {"below": 0.5 * (rho_lo + rho_cold), "above": 2.0 * rho_cold,
                 "infeasible": rho_lo - 0.1}
        for name, hint in hints.items():
            rho_bar, boundary, _ = inf_rho(m, tp, q, eta, rho_hint=hint)
            assert not boundary, name
            assert rho_bar == pytest.approx(rho_cold, rel=1e-12), name
            assert abs(grad_rho(m, tp, OrderPoint(q, rho_bar, eta))) < 1e-9

    def test_boundary_decision_matches_probe_scan(self):
        decided = []
        for u, mu, q, eta in itertools.product(
                (0.5, -0.5), (-0.3, 0.4, 1.0), (0.0, 0.05, 0.5),
                (0.0, 1e-4, 0.1)):
            m = model(u=u)
            tp = ThermoPoint(beta=2.0, mu=mu)
            boundary = inf_rho(m, tp, q, eta)[1]
            assert boundary == _boundary_by_scan(m, tp, q, eta), \
                (u, mu, q, eta)
            decided.append(boundary)
        assert any(decided) and not all(decided)


class TestKKTBoundaryTest:
    """inf_rho decides a boundary minimum by the sign of grad_rho at rho_b
    where rho_b can be evaluated, and that call's gradients are the
    boundary slope in q."""

    # ROADMAP's condensed point at eta = 0, where every q > 0 has a
    # boundary minimum, and its mean-field condensed point at eta = 1e-3;
    # at mu = -0.1 the eta = 0 minimum reaches the boundary at q ~ 0.2
    @pytest.mark.parametrize("u, mu, eta, qs, outcomes", [
        (0.5, 0.4, 0.0, np.geomspace(1e-4, 4.0, 12), {True}),
        (-0.5, 0.4, 1e-3, np.geomspace(1e-10, 0.05, 12), {False, True}),
        (0.5, -0.1, 0.0, np.geomspace(1e-4, 4.0, 12), {False, True})],
        ids=["condensed", "mf_condensed", "eta0_mu-0.1"])
    def test_matches_the_reference_rule(self, u, mu, eta, qs, outcomes):
        m, tp = model(u=u), ThermoPoint(2.0, mu)
        inner, _, _ = _inner_solver(m, tp, eta)
        decided = []
        for q in qs:
            rho_lo = max(0.0, (tp.mu + abs(u) * q) / m.v)
            probe = OrderPoint(q, rho_lo + 1e-14 * max(1.0, rho_lo), eta)
            expected = grad_rho(m, tp, probe) >= 0
            rho_bar, boundary, _ = inner(q)
            assert boundary == expected == inf_rho(m, tp, q, eta)[1], q
            if boundary:
                gr, gq = outer_grads(m, tp, OrderPoint(q, rho_bar, eta))
                want = gq + gr * abs(u) / m.v
            else:
                want = pressure.total_dq(m, tp, q, eta, rho_bar)
            got = solver._slope_in_q(m, tp, eta, inner, q)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), q
            decided.append(boundary)
        assert set(decided) == outcomes

    @pytest.mark.parametrize("mu", [0.4, 1.0])
    @pytest.mark.parametrize("eta", [0.1, 1e-3, 1e-5])
    def test_cold_start_balances_the_source(self, monkeypatch, mu, eta):
        # the first inner solve of a repulsive outer_opt, at q = 1e-8
        # q_bound with no hint: a plain Newton step on grad_rho grows sigma
        # only about 1.5x per step from the top probe and took up to 22
        # calls
        m, tp = model(u=-0.5), ThermoPoint(2.0, mu)
        q = 1e-8 * (eta * eta / (2.0 * 0.5)) ** (1.0 / 3.0)
        calls = _counting(monkeypatch, "grad_rho_slope")
        rho_bar, boundary, _ = inf_rho(m, tp, q, eta)
        assert not boundary and len(calls) <= 6
        rho_lo = (tp.mu + 0.5 * q) / m.v
        root = brentq(lambda rho: grad_rho(m, tp, OrderPoint(q, rho, eta)),
                      rho_lo + 1e-14, rho_lo + 1.0, xtol=1e-15, rtol=8.9e-16)
        assert rho_bar == pytest.approx(root, rel=1e-13)

    def test_no_row_is_evaluated_where_it_diverges(self, monkeypatch):
        # dim 2: the density row diverges at sigma = 0, i.e. foff = habs
        calls = _counting(monkeypatch, "radial_rows", pressure)
        eta_continuation(model(u=-0.5, dim=2), ThermoPoint(2.0, 0.4),
                         floor=1e-4)
        assert calls and all(np.all(np.asarray(args[4]) != args[5])
                             for args, _ in calls)
        # q = 0: the pair row diverges at sigma = 0
        m, tp = model(u=0.5), ThermoPoint(2.0, 0.4)
        calls = _counting(monkeypatch, "outer_grads")
        assert outer_opt(m, tp, 0.0).status == STATUS_BOUNDARY
        assert calls
        for args, _ in calls:
            # one point, or a batch of the outer scan
            op = args[2]
            assert np.all((np.asarray(op.q) > 0.0)
                          | (pressure.sigma_gap(m, tp, op) > 0.0))


def _counting(monkeypatch, name, module=solver):
    """Replace module.<name> by a wrapper; returns its list of calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestInnerMemo:
    def test_repeated_q_solves_once(self, monkeypatch):
        calls = _counting(monkeypatch, "inf_rho")
        inner, _, _ = _inner_solver(model(), ThermoPoint(2.0, -0.3), 0.05)
        first = inner(0.3)
        assert inner(0.3) == first
        assert len(calls) == 1
        inner(0.4)
        assert len(calls) == 2

    def test_errors_are_not_stored(self, monkeypatch):
        # inner(q) solves a batch of one: per q, the result or its error
        outcomes = [[BracketFailure("first try")], [(0.5, False, None)]]

        def flaky(*args, **kwargs):
            return outcomes.pop(0)

        monkeypatch.setattr(solver, "inf_rho", flaky)
        inner, _, _ = _inner_solver(model(), ThermoPoint(2.0, -0.3), 0.05)
        with pytest.raises(BracketFailure):
            inner(0.3)
        assert inner(0.3) == (0.5, False, None)
        assert not outcomes

    def test_value_and_slope_are_computed_once_when_read(self, monkeypatch):
        m, tp, eta = model(), ThermoPoint(2.0, -0.3), 0.05
        values = _counting(monkeypatch, "pressure_tl")
        slopes = _counting(monkeypatch, "total_dq")
        inner, value, tdq = _inner_solver(m, tp, eta)
        rho_bar = inner(0.3)[0]
        assert values == [] and slopes == []
        assert value(0.3) == value(0.3) == pressure.pressure_tl(
            m, tp, OrderPoint(0.3, rho_bar, eta))
        assert tdq(0.3) == tdq(0.3) == pressure.total_dq(m, tp, 0.3, eta,
                                                         rho_bar)
        assert len(values) == 1 and len(slopes) == 1


class TestLockstep:
    """inf_rho over an array of q runs the solves together, one batched
    quadrature per kind of request and round; each agrees with its scalar
    solve within the radial tolerance, and a failing q fails alone."""

    @pytest.mark.parametrize("dim, u, mu, eta, q_top", [
        (3, 0.5, -0.3, 0.0, 4.0),     # normal: interior and boundary minima
        (3, 0.5, 0.4, 0.0, 4.0),      # condensed: every minimum on sigma = 0
        (3, -0.5, 0.4, 1e-3, 0.05),   # repulsive, with a source
        (1, 0.5, 0.4, 1e-3, 4.0)],    # the continued case
        ids=["normal", "condensed", "repulsive", "dim1"])
    def test_batch_matches_scalar_solves(self, dim, u, mu, eta, q_top):
        m, tp = model(u=u, dim=dim), ThermoPoint(2.0, mu)
        qs = np.geomspace(1e-6 * q_top, q_top, 12)
        batch = inf_rho(m, tp, qs, eta)
        assert len(batch) == len(qs)
        for q, got in zip(qs, batch):
            want = inf_rho(m, tp, q, eta)
            assert got[1] == want[1], q
            # the batch's slopes meet the radial tolerance on their own
            # mesh: rho_bar moves by at most about 1e-10 rho_bar
            assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-14), q

    def test_one_point_fails_alone(self):
        # dim 2: the density row diverges on sigma = 0, so the outer
        # gradients of the boundary point (q, rho) = (0.5, 0.75), where
        # sigma is exactly 0, cannot converge; batched with three interior
        # points, only that point fails
        m, tp = model(u=0.5, dim=2), ThermoPoint(2.0, 0.5)
        qs = [0.25, 0.5, 0.75, 1.0]
        rhos = [(tp.mu + 0.5 * q) / m.v + 0.05 for q in qs]
        rhos[1] = 0.75
        assert pressure.sigma_gap(m, tp, OrderPoint(qs[1], rhos[1])) == 0.0
        with pytest.raises(QuadratureFailure):
            outer_grads(m, tp, OrderPoint(np.array(qs), np.array(rhos)))
        out = solver._evaluate(m, tp, 0.0, outer_grads, qs, rhos)
        assert isinstance(out[1], QuadratureFailure)
        for k in (0, 2, 3):
            want = outer_grads(m, tp, OrderPoint(qs[k], rhos[k]))
            assert out[k] == pytest.approx(want, rel=1e-9, abs=1e-12), k

    def test_a_failing_solve_is_returned_not_raised(self):
        # q = inf leaves the floating-point range in its first line; the
        # batch reports that error in its place and solves the others
        m, tp = model(), ThermoPoint(2.0, -0.3)
        out = inf_rho(m, tp, np.array([0.1, math.inf, 0.3]), 0.0)
        assert isinstance(out[1], ContinuationDiverged)
        assert out[0] == inf_rho(m, tp, 0.1, 0.0)
        with pytest.raises(ContinuationDiverged):
            inf_rho(m, tp, math.inf, 0.0)


class TestNewtonLoop:
    """Every inner solve is one safeguarded Newton loop, inside its own
    request generator: none re-enters the lockstep, and each interior
    minimizer agrees with a scalar brentq on grad_rho to the inner
    tolerance."""

    def test_continuation_solves_agree_with_brentq(self, monkeypatch):
        # dim 1, u = 0.5: four of these inner solves once handed their
        # bracket to a scalar brentq that ran its own lockstep
        m, tp = model(u=0.5, dim=1), ThermoPoint(2.0, 0.4)
        depth, depths, solved = [0], [], []
        lockstep, solve = solver._lockstep, solver.inf_rho

        def tracked(*args):
            depths.append(depth[0])
            depth[0] += 1
            try:
                return lockstep(*args)
            finally:
                depth[0] -= 1

        def recorded(model, tp, q, eta, **kwargs):
            out = solve(model, tp, q, eta, **kwargs)
            outs = out if np.ndim(q) else [out]
            solved.extend((qq, eta, one)
                          for qq, one in zip(np.atleast_1d(q), outs))
            return out

        monkeypatch.setattr(solver, "_lockstep", tracked)
        monkeypatch.setattr(solver, "inf_rho", recorded)
        eta_continuation(m, tp, floor=1e-2)
        assert depths and set(depths) == {0}
        interior = [(q, eta, out[0]) for q, eta, out in solved
                    if not isinstance(out, PairBosonError) and not out[1]]
        assert interior
        for q, eta, rho_bar in interior:
            rho_lo = max(0.0, (tp.mu + m.u * q) / m.v)
            want = brentq(
                lambda rho: grad_rho(m, tp, OrderPoint(q, rho, eta)),
                rho_lo + 1e-14 * max(1.0, rho_lo), rho_bar + 1.0,
                xtol=solver._RHO_XTOL, rtol=solver._RHO_RTOL)
            assert abs(rho_bar - want) <= \
                solver._RHO_XTOL + solver._RHO_RTOL * rho_bar, (q, eta)


class TestOuterOptimum:
    def test_u_zero_fixes_q(self):
        res = outer_opt(model(u=0.0), ThermoPoint(2.0, -0.3), 0.05)
        assert res.q_bar == 0.0

    def test_attractive_stationarity(self):
        m = model(u=0.5)
        tp = ThermoPoint(beta=2.0, mu=1.0)
        res = outer_opt(m, tp, 0.05)
        assert res.q_bar > 0.1  # condensed regime, macroscopic pairing
        assert abs(res.residual_el1) < 1e-8
        assert abs(res.residual_el2) < 1e-8

    def test_repulsive_bound(self):
        # u = -w < 0: the minimizer obeys q_bar < (eta^2 / 2w)^(1/3)
        m = model(u=-0.5)
        for mu in (-0.3, 1.0):
            res = outer_opt(m, ThermoPoint(2.0, mu), 0.05)
            assert res.q_bar < (0.05 ** 2 / (2.0 * 0.5)) ** (1.0 / 3.0)

    def test_result_dominates_the_scan(self, monkeypatch):
        # normal point of the benchmark's solve_mix seed 1 at the 14th eta
        # step, where q_bar ~ 1.6e-9 lies below the log scan and the
        # objective is flat to rounding: the result is the stationary root,
        # at least as high as every scanned value and the q = 0 slice
        values = {}

        def recorded(model, tp, q, eta, **kwargs):
            # one q, or the scan's batch with a result or error per q
            out = inf_rho(model, tp, q, eta, **kwargs)
            outs = out if np.ndim(q) else [out]
            for qq, one in zip(np.atleast_1d(q), outs):
                if not isinstance(one, PairBosonError):
                    values[qq] = pressure.pressure_tl(
                        model, tp, OrderPoint(qq, one[0], eta))
            return out

        monkeypatch.setattr(solver, "inf_rho", recorded)
        res = outer_opt(model(u=0.5), ThermoPoint(1.998468, -0.299807),
                        0.1 * 0.5 ** 13)
        assert 0.0 < res.q_bar < 1e-8
        assert res.pressure >= max(values.values())
        assert res.pressure >= values[0.0]
        assert abs(res.residual_el2) < 1e-10

    def test_small_source_stationary_point_found(self):
        # normal phase: the maximizer scales like eta^2 and sits far below
        # any coarse scan; the solver must still land on it
        m = model(u=0.2)
        tp = ThermoPoint(beta=1.0, mu=-0.5)
        res = outer_opt(m, tp, 1e-4)
        assert 0.0 < res.q_bar < 1e-6
        assert abs(res.residual_el2) < 1e-10


class TestContinuation:
    def test_condensed_point(self):
        m = model(u=0.5)
        tp = ThermoPoint(beta=2.0, mu=1.0)
        cont = eta_continuation(m, tp, eta0=0.1, floor=1e-6)
        assert cont.q_limit > 0.5
        assert cont.m0 > 0.1
        gaps = [r.gap for r in cont.results]
        assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
        assert cont.gap_limit < 1e-4
        assert classify_phase(m, tp, cont) == PHASE_CONDENSED

    def test_normal_point(self):
        m = model(u=0.2)
        tp = ThermoPoint(beta=1.0, mu=-0.5)
        cont = eta_continuation(m, tp, eta0=0.1, floor=1e-5)
        assert cont.q_limit < 1e-6
        assert cont.m0 < 1e-6
        assert classify_phase(m, tp, cont) == PHASE_NORMAL

    def test_mf_reduction_u_zero(self):
        m = model(u=0.0)
        for mu in (-0.3, 0.3):
            tp = ThermoPoint(beta=2.0, mu=mu)
            cont = eta_continuation(m, tp, eta0=0.1, floor=1e-6)
            assert cont.p_limit == pytest.approx(mf_pressure(m, tp),
                                                 abs=1e-9)
            assert cont.q_limit <= 1e-6

    @pytest.mark.parametrize("u, share", [(-0.5, 0.5), (-0.1, 0.5),
                                          (0.0, 1.0)])
    def test_m0_non_attractive(self, u, share):
        # Documents today's limit: for u < 0 the k = 0 condensate m0 carries
        # half of the mean-field excess mu/v - rho_c, for u = 0 all of it.
        m = model(u=u)
        tp = ThermoPoint(beta=2.0, mu=0.4)
        excess = tp.mu / m.v - critical_density(m, tp.beta)
        cont = eta_continuation(m, tp)
        assert cont.m0 == pytest.approx(share * excess, abs=2e-5)

    @pytest.mark.parametrize("eta0, factor", [(math.inf, 0.5), (0.1, 1.0)])
    def test_rejects_bad_schedule(self, eta0, factor):
        with pytest.raises(ConfigError):
            eta_continuation(model(), ThermoPoint(2.0, -0.3), eta0=eta0,
                             factor=factor)

    def test_extrapolation_detects_order(self):
        # synthetic sequence y_n = y* + c k^n with k = factor^a
        factor = 0.5
        for a in (0.5, 1.0, 2.0):
            k = factor ** a
            seq = [1.3 + 0.7 * k ** n for n in range(12)]
            limit, err, order = _extrapolate(seq, factor)
            assert limit == pytest.approx(1.3, abs=1e-10)
            assert order == pytest.approx(a, rel=1e-6)


class TestVariationalLimit:
    """The sup-inf solved at eta = 0, against the continuation's limits."""

    def test_boundary_path_derivative(self):
        # condensed seed-0 point: the eta = 0 inner minimum sits on
        # sigma = 0, so q_bar is stationary along the boundary path
        # rho_b(q) = (mu + u q)/v.  The bare grad_q missed it by 8.7e-9 in
        # q_bar, a path derivative of 2.2e-9.
        m, tp = model(u=0.5), ThermoPoint(2.0, 0.4)
        res = outer_opt(m, tp, 0.0)
        assert res.status == STATUS_BOUNDARY
        gr, gq = outer_grads(m, tp, OrderPoint(res.q_bar, res.rho_bar, 0.0))
        assert abs(gq + gr * m.u / m.v) <= 1e-11

    @pytest.mark.parametrize("u, grad_rho_calls", [(0.5, 0), (0.0, 1),
                                                   (-0.5, 1)])
    def test_m0_is_the_boundary_tests_multiplier(self, monkeypatch, u,
                                                 grad_rho_calls):
        # condensed points: m0 = grad_rho / v at the boundary optimum, read
        # from the KKT test's gradients where q_bar > 0; for u <= 0 (q = 0)
        # no test ran, and one grad_rho call computes it.  For u < 0, m0 is
        # the quasi-average, half the multiplier.
        m, tp = model(u=u), ThermoPoint(2.0, 0.4)
        calls = _counting(monkeypatch, "grad_rho")
        lim = variational_limit(m, tp)
        assert lim.result.status == STATUS_BOUNDARY
        assert len(calls) == grad_rho_calls
        assert lim.m0 == lim.result.rho0 > 0.1
        op = OrderPoint(lim.q_limit, lim.rho_limit, 0.0)
        want = pressure.grad_rho(m, tp, op) / (m.v * (2.0 if u < 0 else 1.0))
        assert abs(lim.m0 - want) <= 1e-12

    @pytest.mark.parametrize("profile", [gaussian_profile(1.0),
                                         delta_profile(),
                                         power_profile(1.0, 4.0)],
                             ids=["gaussian:1", "delta", "power:1:4"])
    def test_agrees_with_continuation(self, profile):
        # dim 3, mu on both sides of the transition (u <= 0:
        # mu = v rho_c = 0.021; u = 0.5: between -0.1 and 0.4); for u < 0
        # both read m0 as the quasi-average (mu/v - rho_c)/2
        phases = set()
        for u, mu in itertools.product((-0.5, 0.0, 0.5), (-0.1, 0.4)):
            m = Model(dim=3, mass=0.5, u=u, v=1.0, lambda_profile=profile)
            tp = ThermoPoint(2.0, mu)
            cont = eta_continuation(m, tp)
            lim = variational_limit(m, tp)
            assert abs(lim.p_limit - cont.p_limit) <= 1e-9
            assert abs(lim.q_limit - cont.q_limit) <= 1e-6
            assert abs(lim.m0 - cont.m0) <= max(2e-5,
                                                cont.error_estimates["m0"])
            phase = classify_phase(m, tp, lim)
            assert phase == classify_phase(m, tp, cont)
            phases.add(phase)
        assert phases == {PHASE_NORMAL, PHASE_CONDENSED, PHASE_MF_CONDENSED}
        # dim 1, u = 0.5, where solve takes the eta = 0 path too: normal at
        # mu = 0.2 and pair-ordered at mu = 0.6 (condensed for delta, whose
        # pairing is the k = 0 mode's alone); each within the
        # continuation's own estimate
        for mu in (0.2, 0.6):
            m = Model(dim=1, mass=0.5, u=0.5, v=1.0, lambda_profile=profile)
            tp = ThermoPoint(2.0, mu)
            cont = eta_continuation(m, tp)
            lim = variational_limit(m, tp)
            for key, got, want in (("p", lim.p_limit, cont.p_limit),
                                   ("q", lim.q_limit, cont.q_limit),
                                   ("m0", lim.m0, cont.m0)):
                assert abs(got - want) <= max(1e-9,
                                              cont.error_estimates[key]), key
            phase = classify_phase(m, tp, lim)
            assert phase == classify_phase(m, tp, cont)
            assert (phase == PHASE_NORMAL) == (mu < 0.4)


class TestNonAttractive:
    """For u <= 0 the eta = 0 sup-inf is the mean-field Bose gas, and solve
    takes it in every dimension."""

    @pytest.mark.parametrize("profile", ["gaussian:1", "power:1:4"])
    @pytest.mark.parametrize("u", [0.0, -0.5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_solve_is_mean_field(self, dim, u, profile, capsys):
        # q_bar = 0 and p = mf_pressure; m0 = 0 in dim <= 2, and in dim 3
        # the excess mu/v - rho_c above the transition, halved for u < 0
        from pairboson import cli
        for mu in (-0.3, 0.2, 0.6, 0.7, 0.8):
            assert cli.main(["solve", "--beta", "2", "--mu", str(mu),
                             "--u", str(u), "--dim", str(dim),
                             "--profile", profile]) == cli.EXIT_OK
            doc = json.loads(capsys.readouterr().out)
            m = Model(dim=dim, mass=0.5, u=u, v=1.0,
                      lambda_profile=cli._parse_profile(profile))
            tp = ThermoPoint(2.0, mu)
            assert doc["q_bar"] == 0.0
            assert abs(doc["pressure"] - mf_pressure(m, tp)) <= 1e-14
            excess = mu / m.v - critical_density(m, tp.beta)
            if excess > 0:
                want = excess * (0.5 if u < 0 else 1.0)
                assert abs(doc["m0"] - want) <= 1e-12
                assert doc["phase"] == PHASE_MF_CONDENSED
            else:
                assert doc["m0"] == 0.0
                assert doc["phase"] == PHASE_NORMAL

    @pytest.mark.parametrize("profile", ["gaussian:1", "power:1:4"])
    def test_dim_2_repulsive_rows_solve(self, profile, monkeypatch, capsys):
        # dim 2, u = -0.5, mu in {0.6, 0.7, 0.8}: the continuation ended
        # these scan rows in StationarityViolated, at eta > 0; rho_bar sits
        # within 1e-6 of the boundary, where d2_mu ~ 1/sigma
        from pairboson import cli
        monkeypatch.setenv("PBH_THREADS", "1")
        assert cli.main(["scan", "--beta", "2", "--mu-range=0.6:0.8:3",
                         "--u=-0.5", "--dim", "2",
                         "--profile", profile]) == cli.EXIT_OK
        rows = [row.split(",") for row in
                capsys.readouterr().out.strip().split("\n")[1:]]
        m = Model(dim=2, mass=0.5, u=-0.5, v=1.0,
                  lambda_profile=cli._parse_profile(profile))
        assert [row[-1] for row in rows] == [PHASE_NORMAL] * 3
        for row in rows:
            tp = ThermoPoint(2.0, float(row[1]))
            assert abs(float(row[2]) - mf_pressure(m, tp)) <= 1e-14
            assert float(row[3]) == float(row[5]) == 0.0


class TestDensities:
    def test_critical_density_closed_form(self):
        # zeta(3/2) (m / (2 pi beta))^(3/2) in three dimensions
        from scipy.special import zeta
        m = model(u=0.0)
        for beta in (1.0, 2.0, 4.0):
            expected = zeta(1.5) * (m.mass / (2.0 * math.pi * beta)) ** 1.5
            assert critical_density(m, beta) == pytest.approx(expected,
                                                              rel=1e-8)

    @pytest.mark.parametrize("nu", range(3, 11))
    def test_zeta_matches_scipy(self, nu):
        from scipy.special import zeta
        assert bose.zeta(nu / 2.0) == pytest.approx(zeta(nu / 2.0),
                                                    rel=1e-15, abs=0.0)

    def test_critical_density_infinite_low_dim(self):
        assert math.isinf(critical_density(model(dim=2), 2.0))
        assert math.isinf(critical_density(model(dim=1), 2.0))

    def test_bose_density_series(self):
        # sum over the standard Bose series g_{3/2}(z)
        m = model(u=0.0)
        beta, mu_eff = 2.0, -0.4
        z = math.exp(beta * mu_eff)
        expected = sum(z ** j / j ** 1.5 for j in range(1, 400))
        expected *= (m.mass / (2.0 * math.pi * beta)) ** 1.5
        assert bose_density(m, beta, mu_eff) == pytest.approx(expected,
                                                              rel=1e-10)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_closed_forms_in_dims_3_to_5(self, dim):
        # rho_c = zeta(nu/2) lambda^-nu and, at z = e^-1, the Bose series
        # lambda^-nu sum z^k / k^(nu/2), with lambda^-nu = (m/2 pi beta)^(nu/2)
        from scipy.special import zeta
        m = model(u=0.0, dim=dim)
        for beta in (0.7, 2.0, 5.0):
            thermal = (m.mass / (2.0 * math.pi * beta)) ** (dim / 2.0)
            assert critical_density(m, beta) == pytest.approx(
                zeta(dim / 2.0) * thermal, rel=1e-13, abs=0.0)
            # critical_density is bose_density at mu_eff = 0
            assert bose_density(m, beta, 0.0) == pytest.approx(
                critical_density(m, beta), rel=1e-13, abs=0.0)
            series = math.fsum(math.exp(-k) / k ** (dim / 2.0)
                               for k in range(1, 60))
            assert bose_density(m, beta, -1.0 / beta) == pytest.approx(
                series * thermal, rel=1e-13, abs=0.0)

    def test_positive_mu_eff_is_a_model_error(self):
        with pytest.raises(PairBosonError) as info:
            bose_density(model(), 1.0, 0.5)
        assert info.type is ModelError

    def test_mf_density_fixed_point(self):
        m = model(u=0.0)
        tp = ThermoPoint(beta=2.0, mu=-0.3)
        rho = mf_density(m, tp)
        assert rho == pytest.approx(bose_density(m, tp.beta,
                                                 tp.mu - m.v * rho),
                                    rel=1e-10)

    def test_mf_density_saturates(self):
        m = model(u=0.0)
        tp = ThermoPoint(beta=2.0, mu=0.5)
        assert tp.mu > m.v * critical_density(m, tp.beta)
        assert mf_density(m, tp) == pytest.approx(tp.mu / m.v, rel=1e-12)


def _outcome(call):
    """call()'s value, or its exception's type and message."""
    try:
        return call()
    except Exception as exc:  # the exception itself is the outcome
        return type(exc), str(exc)


class TestBrent:
    """`solver._brentq` against SciPy's `brentq`: the same float at every
    root and the same exception on every failure."""

    CASES = [
        (lambda x: x ** 3 - 2.0 * x - 5.0, 0.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 3.0, -2.0, 4.0),
        (lambda x: (x - 0.3) ** 5, 0.0, 1.0),  # a flat, odd root
        (lambda x: math.atan(x - 1e-9), -10.0, 10.0),
        (lambda x: x * math.exp(-x * x) - 0.1, 0.05, 1.0),
        (lambda x: math.log(x) + x, 0.01, 2.0),
        (lambda x: x - 0.25, 0.25, 1.0),           # a root at an end
        (lambda x: -1.0 if x < 0.123 else 1.0, 0.0, 1.0),   # a jump
        (lambda x: -1.0 if x < 0.123 else 1.0, 0.0, 1e300),  # 100 steps
        (lambda x: x * x + 1.0, -1.0, 1.0),        # no sign change
        (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0),
    ]

    @pytest.mark.parametrize("f, a, b", CASES)
    @pytest.mark.parametrize("xtol", [1e-300, 1e-30, 1e-14, 1e-3])
    def test_matches_scipy(self, f, a, b, xtol):
        got = _outcome(lambda: solver._brentq(f, a, b, xtol, 8.9e-16))
        want = _outcome(lambda: brentq(f, a, b, xtol=xtol, rtol=8.9e-16))
        assert got == want

    def test_random_smooth_functions(self):
        rng = np.random.default_rng(7)
        for c0, c1, c2, c3, a, b in rng.uniform(-3.0, 3.0, (400, 6)):
            def f(x):
                return c0 + c1 * x + c2 * x ** 3 + c3 * math.sin(3.0 * x)
            lo, hi = sorted((float(a), float(b)))
            for xtol in (1e-30, 1e-14):
                assert (_outcome(lambda: solver._brentq(f, lo, hi, xtol,
                                                        8.9e-16))
                        == _outcome(lambda: brentq(f, lo, hi, xtol=xtol,
                                                   rtol=8.9e-16)))

    def test_an_error_of_f_propagates(self):
        def f(x):
            raise BracketFailure("from f")
        with pytest.raises(BracketFailure, match="from f"):
            solver._brentq(f, 0.0, 1.0, 1e-14, 8.9e-16)


class TestObservables:
    def test_spectrum_at_q_zero_equals_f(self):
        m = model(u=0.2)
        tp = ThermoPoint(beta=1.0, mu=-0.5)
        cont = eta_continuation(m, tp, eta0=0.1, floor=1e-5)
        ks = np.linspace(0.0, 3.0, 7)
        for k, e in excitation_spectrum(m, tp, cont, ks):
            f = k * k / (2.0 * m.mass) - tp.mu + m.v * cont.rho_limit
            assert e == pytest.approx(f, abs=1e-10)

    def test_phase_labels_u_nonpositive(self):
        m = model(u=-0.5)
        cont_lo = eta_continuation(m, ThermoPoint(2.0, -0.3),
                                   eta0=0.1, floor=1e-4)
        cont_hi = eta_continuation(m, ThermoPoint(2.0, 0.5),
                                   eta0=0.1, floor=1e-4)
        assert classify_phase(m, ThermoPoint(2.0, -0.3),
                              cont_lo) == PHASE_NORMAL
        assert classify_phase(m, ThermoPoint(2.0, 0.5),
                              cont_hi) == PHASE_MF_CONDENSED


class TestLazyResiduals:
    """The Euler-Lagrange residuals of a solve are computed on first read."""

    # ROADMAP's condensed and mean-field condensed solve points
    ARGV = ["solve", "--beta", "2.0", "--mu", "0.4", "--dim", "3",
            "--v", "1.0", "--mass", "0.5", "--profile", "gaussian:1.0"]

    def test_continuation_computes_none(self, monkeypatch):
        calls = _counting(monkeypatch, "el_residuals")
        cont = eta_continuation(model(u=0.5), ThermoPoint(2.0, 0.4),
                                eta0=0.1, floor=1e-3)
        assert len(cont.results) == 7 and calls == []

    def test_first_read_computes_both(self, monkeypatch):
        m, tp = model(u=0.5), ThermoPoint(2.0, 1.0)
        calls = _counting(monkeypatch, "el_residuals")
        res = outer_opt(m, tp, 0.05)
        assert calls == []
        r1 = res.residual_el1
        assert len(calls) == 1
        r2 = res.residual_el2
        assert len(calls) == 1 and res.residual_el1 == r1
        want = el_residuals(m, tp, OrderPoint(res.q_bar, res.rho_bar,
                                              res.eta))
        assert (r1, r2) == want

    # ids read u-expected; mu = 0.4 at u = 0.5 is the condensed point,
    # whose eta = 0 minimum sits on the boundary, and mu = -0.3 an interior
    # (normal) one
    @pytest.mark.parametrize("u, mu, expected", [
        pytest.param("0.5", "-0.3", 1, id="0.5-1"),
        pytest.param("0.5", "0.4", 0, id="0.5-0"),
        pytest.param("-0.5", "0.4", 0, id="-0.5-0"),
    ])
    def test_solve_reads_the_last_step_only(self, u, mu, expected,
                                            monkeypatch, capsys):
        # solve reads the residuals of the eta = 0 solve (u < 0 at
        # mu = 0.4 is mf_condensed, whose minimum sits on the boundary); on
        # the boundary they are printed as null
        from pairboson import cli
        calls = _counting(monkeypatch, "el_residuals")
        argv = self.ARGV[:self.ARGV.index("--mu")] + ["--mu", mu] \
            + self.ARGV[self.ARGV.index("--mu") + 2:]
        assert cli.main(argv + ["--u", u]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(calls) == expected
        assert (doc["residuals"]["el1"] is None) == (expected == 0)

    def test_scan_computes_none(self, monkeypatch, capsys):
        from pairboson import cli
        monkeypatch.setenv("PBH_THREADS", "1")
        calls = _counting(monkeypatch, "el_residuals")
        assert cli.main(["scan", "--beta", "2.0", "--mu-range=-0.2:0.4:2",
                         "--u", "0.5", "--dim", "3",
                         "--eta-floor", "1e-3"]) == cli.EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert calls == []


def test_mf_condensed_quadrature_budget(monkeypatch, capsys):
    """Quadrature calls of ROADMAP's mean-field condensed solve (seed 0 of
    perfbench's solve_mix).  The count repeats exactly: none since the
    q = 0 rows are closed form, 4 before, and 5 since solve takes the
    eta = 0 sup-inf for u < 0.  On the continuation it was 1,778 while
    the outer gradients shared the inner Newton steps' plan key, 1,147 with
    their own, and 343 since a boundary minimum costs one quadrature, no
    inner value is computed that is not read and the Newton steps at
    eta > 0 balance the source."""
    from pairboson import cli
    calls = _counting(monkeypatch, "radial_rows", pressure)
    assert cli.main(TestLazyResiduals.ARGV + ["--u", "-0.5"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["phase"] == PHASE_MF_CONDENSED
    assert calls == []
    calls.clear()
    eta_continuation(model(u=-0.5), ThermoPoint(2.0, 0.4))
    assert len(calls) <= 450


def test_scan_quadrature_budget(monkeypatch, capsys):
    """Quadrature calls of perfbench's seed-0 scan_line, serial.  The count
    repeats exactly: 54 since every inner solve tests the boundary first
    where it can, 58 when the outer scan's inner solves first ran in
    lockstep, 451 when each scan point solved alone, and 8,450 from a
    continuation per point."""
    from pairboson import cli
    monkeypatch.setenv("PBH_THREADS", "1")
    calls = _counting(monkeypatch, "radial_rows", pressure)
    assert cli.main(["scan", "--beta", "2", "--mu-range=-0.2:0.4:4",
                     "--u", "0.5", "--dim", "3"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert len(calls) <= 54


@pytest.mark.parametrize("mu, phase, budget", [
    ("-0.3", PHASE_NORMAL, 8), ("0.4", PHASE_CONDENSED, 11)],
    ids=["normal", "condensed"])
def test_solve_quadrature_budget(monkeypatch, capsys, mu, phase, budget):
    """Quadrature calls of perfbench's seed-0 normal and condensed solves.
    The counts repeat exactly: 8 and 11 since the q = 0 rows are closed
    form, 12 and 14 since every inner solve tests the boundary first where
    it can, 14 each when the outer scan's 32 inner solves first ran in
    lockstep, and 160 and 75 when each solved alone."""
    from pairboson import cli
    calls = _counting(monkeypatch, "radial_rows", pressure)
    argv = ["solve", "--beta", "2.0", "--mu", mu, "--u", "0.5", "--dim",
            "3", "--v", "1.0", "--mass", "0.5", "--profile", "gaussian:1.0"]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["phase"] == phase
    assert len(calls) <= budget


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("mu", ["-0.3", "0.4", "1.5"])
def test_repulsive_solve_evaluates_no_kernel(monkeypatch, capsys, dim, mu):
    """A u <= 0 solve is the mean-field ideal Bose gas at q = 0: every row
    it reads is closed form, so neither binding of `kernels.eval_rows` (the
    quadrature's, the finite-volume pressure's) is called.  The seed-0
    mf_condensed solve made 4 quadrature calls on 1,230 kernel points
    before."""
    from pairboson import cli
    calls = []
    for module in (quadrature, pressure):
        monkeypatch.setattr(module, "eval_rows",
                            lambda *args: calls.append(args))
    for u in ("-0.5", "0"):
        assert cli.main(["solve", "--dim", str(dim), "--u", u, "--mu", mu,
                         "--beta", "2"]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["q_bar"] == 0.0
    assert calls == []


def test_power_profile_kernel_budget(monkeypatch):
    """The eta = 0 solve at dim 3, beta = 2, u = 0.5, mu = -0.1 with the
    power:1:4 profile, which no benchmark workload runs: it solves, hands
    the kernel no more than _CHUNK nodes at once, and evaluates 46,050
    kernel points (39,525 when each scan point solved alone; an earlier
    record of this point read 2,001,720)."""
    sizes = []
    evaluate = quadrature.eval_rows

    def counted(r, *args):
        sizes.append(len(r))
        return evaluate(r, *args)

    monkeypatch.setattr(quadrature, "eval_rows", counted)
    m = Model(dim=3, mass=0.5, u=0.5, v=1.0,
              lambda_profile=power_profile(1.0, 4.0))
    lim = variational_limit(m, ThermoPoint(2.0, -0.1))
    assert lim.p_limit == pytest.approx(0.003921739666280985, rel=1e-12)
    assert lim.q_limit == 0.0 and lim.result.status == "converged"
    assert max(sizes) == quadrature._CHUNK  # a batch was split
    assert sum(sizes) <= 46_050
