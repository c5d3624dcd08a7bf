"""Tests for the sup-inf solver, continuation and observables.

Frozen reference numbers were produced by independent re-solves at tighter
settings and by closed-form series evaluation (Bose functions).
"""

import dataclasses
import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pairboson import bose, pressure, solver
from pairboson import quadrature
from pairboson.errors import (
    BracketFailure, ConfigError, ContinuationDiverged, ModelError,
    PairBosonError, QuadratureFailure, StationarityViolated,
)
from pairboson.model import (
    Model, gaussian_profile, delta_profile, power_profile,
)
from pairboson.pressure import (
    ThermoPoint, OrderPoint, el_residuals, feasible, grad_q, grad_rho,
    grad_rho_slope, outer_grads,
)
from pairboson.solver import (
    inf_rho, outer_opt, eta_continuation, _extrapolate,
    bose_density, critical_density, mf_density, mf_pressure,
    excitation_spectrum, classify_phase, variational_limit,
    PHASE_NORMAL, PHASE_PAIR_ONLY, PHASE_CONDENSED, PHASE_MF_CONDENSED,
    STATUS_BOUNDARY, STATUS_CONVERGED,
)

GAUSS = gaussian_profile(1.0)


def model(u=0.5, v=1.0, dim=3):
    return Model(dim=dim, mass=0.5, u=u, v=v, lambda_profile=GAUSS)


def _inner_solver(m, tp, eta):
    """`solver._inner_solver`'s (inner, value, tdq), each request
    generator run to its end at the one point (`solver._run`)."""
    def run(steps_of):
        return lambda q: solver._run(m, tp.beta, eta, steps_of(q))
    return tuple(run(fn) for fn in solver._inner_solver(m, tp, eta))


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
        # the minimizer is read at the gap it carries: sigma = 0 exactly on
        # the boundary
        m, tp = model(u=u), ThermoPoint(2.0, mu)
        inner, _, tdq = _inner_solver(m, tp, eta)
        decided = []
        for q in qs:
            rho_lo = max(0.0, (tp.mu + abs(u) * q) / m.v)
            probe = OrderPoint(q, rho_lo + 1e-14 * max(1.0, rho_lo), eta)
            expected = grad_rho(m, tp, probe) >= 0
            rho_bar, boundary, found = inner(q)
            assert boundary == expected == inf_rho(m, tp, q, eta)[1], q
            op = solver._order_point(q, rho_bar, eta, found)
            if boundary:
                assert op.sigma == 0.0, q
                gr, gq = outer_grads(m, tp, op)
                want = gq + gr * abs(u) / m.v
            else:
                want = pressure.total_dq(m, tp, q, eta, rho_bar, op.sigma)
            got = tdq(q)
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
        calls = _counting(monkeypatch, "_inner_requests")
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
            # a request generator that returns at once
            return outcomes.pop(0)
            yield

        monkeypatch.setattr(solver, "_inner_requests", flaky)
        inner, _, _ = _inner_solver(model(), ThermoPoint(2.0, -0.3), 0.05)
        with pytest.raises(BracketFailure):
            inner(0.3)
        assert inner(0.3) == (0.5, False, None)
        assert not outcomes

    def test_value_and_slope_are_computed_once_when_read(self, monkeypatch):
        m, tp, eta = model(), ThermoPoint(2.0, -0.3), 0.05
        values = _counting(monkeypatch, "pressure_tl")
        slopes = _counting(monkeypatch, "outer_grads")
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
        out = solver._evaluate(m, tp.beta, 0.0, outer_grads,
                               [(tp.mu, q, rho, None)
                                for q, rho in zip(qs, rhos)])
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
    request generator: none re-enters the serving loop `_run`, and each
    interior minimizer agrees with a scalar brentq on grad_rho to the
    inner tolerance."""

    def test_continuation_solves_agree_with_brentq(self, monkeypatch):
        # dim 1, u = 0.5: four of these inner solves once handed their
        # bracket to a scalar brentq that ran its own lockstep
        m, tp = model(u=0.5, dim=1), ThermoPoint(2.0, 0.4)
        depth, depths, solved = [0], [], []
        run, solve = solver._run, solver._inner_requests

        def tracked(*args):
            depths.append(depth[0])
            depth[0] += 1
            try:
                return run(*args)
            finally:
                depth[0] -= 1

        def recorded(model, tp, eta, qs, hints):
            outs = yield from solve(model, tp, eta, qs, hints)
            solved.extend((q, eta, out) for q, out in zip(qs, outs))
            return outs

        monkeypatch.setattr(solver, "_run", tracked)
        monkeypatch.setattr(solver, "_inner_requests", recorded)
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
        solve = solver._inner_requests

        def recorded(model, tp, eta, qs, hints):
            # one q, or the scan's batch, with a result or error per q
            outs = yield from solve(model, tp, eta, qs, hints)
            for q, out in zip(qs, outs):
                if not isinstance(out, PairBosonError):
                    values[q] = pressure.pressure_tl(
                        model, tp, OrderPoint(q, out[0], eta))
            return outs

        monkeypatch.setattr(solver, "_inner_requests", recorded)
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


class TestVariationalRow:
    """The mu points of one beta solved in lockstep, batched across the
    row: a point that raises fails alone, and each agrees with its solve
    alone within the radial tolerance."""

    MUS = (-0.2, 0.0, 0.2, 0.4)

    def _failing_at(self, monkeypatch, mu, exc):
        # outer_grads raises exc at mu, in a batch across the row and alone
        real = solver.outer_grads

        def grads(model, tp, op):
            if np.any(np.asarray(tp.mu) == mu):
                raise exc(f"injected at {mu}")
            return real(model, tp, op)

        monkeypatch.setattr(solver, "outer_grads", grads)

    def test_a_point_that_raises_fails_alone(self, monkeypatch):
        m = model()
        tps = [ThermoPoint(2.0, mu) for mu in self.MUS]
        self._failing_at(monkeypatch, 0.2, BracketFailure)
        limits = solver.variational_row(m, tps)
        assert isinstance(limits[2], BracketFailure)
        monkeypatch.undo()
        for tp, limit in zip(tps, limits):
            if tp.mu == 0.2:
                continue
            want = variational_limit(m, tp)
            assert limit.p_limit == pytest.approx(want.p_limit, rel=1e-10)
            assert abs(limit.q_limit - want.q_limit) <= 1e-8
            assert abs(limit.m0 - want.m0) <= 1e-8

    def test_other_errors_propagate(self, monkeypatch):
        self._failing_at(monkeypatch, 0.2, ValueError)
        with pytest.raises(ValueError, match="injected at 0.2"):
            solver.variational_row(
                model(), [ThermoPoint(2.0, mu) for mu in self.MUS])

    def test_points_share_one_beta(self):
        with pytest.raises(ValueError, match="one beta"):
            solver.variational_row(model(), [ThermoPoint(2.0, 0.1),
                                             ThermoPoint(1.0, 0.1)])


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
        # from the KKT test's gradients at the carried sigma = 0: where
        # q_bar > 0 from its outer_grads call, and at q_bar = 0 (u <= 0)
        # from its grad_rho call.  The solve makes one grad_rho call, the
        # q = 0 solve's KKT test, and none at q_bar > 0.  For u < 0, m0 is
        # the quasi-average, half the multiplier.
        m, tp = model(u=u), ThermoPoint(2.0, 0.4)
        calls = _counting(monkeypatch, "grad_rho")
        lim = variational_limit(m, tp)
        assert lim.result.status == STATUS_BOUNDARY
        assert [(args[2].q, args[2].sigma) for args, _ in calls] == \
            [(0.0, 0.0)]
        assert len([args for args, _ in calls
                    if args[2].q == lim.q_limit]) == grad_rho_calls
        assert lim.m0 == lim.result.rho0 > 0.1
        op = lim.result.residual_at[2]
        assert op.sigma == 0.0
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


class TestGapSolve:
    """Dim 2 at eta = 0: the inner solve runs on s = ln sigma, so that a
    minimizer far below rho's resolution is found and carried."""

    @pytest.mark.parametrize("profile", [gaussian_profile(1.0),
                                         power_profile(1.0, 4.0),
                                         delta_profile()],
                             ids=["gaussian:1", "power:1:4", "delta"])
    def test_agrees_with_continuation(self, profile):
        # u = 0.5, mu = 0.6: sigma* falls from 2.5e-6 to 6e-171 (gaussian:1)
        # over the three temperatures.  The continuation's m0 there, 0 to
        # 1.2, falls linearly in ln eta; the density row's ln(1/sigma)
        # leaves no condensate at eta = 0 (Hohenberg-Mermin-Wagner).  The
        # delta profile's pair field leaves the row finite on sigma = 0:
        # its minima sit there, with the continuation's m0
        for beta in (0.5, 2.0, 8.0):
            m = Model(dim=2, mass=0.5, u=0.5, v=1.0, lambda_profile=profile)
            tp = ThermoPoint(beta, 0.6)
            lim = variational_limit(m, tp)
            cont = eta_continuation(m, tp)
            assert abs(lim.p_limit - cont.p_limit) <= \
                cont.error_estimates["p"], beta
            assert abs(lim.q_limit - cont.q_limit) <= 1e-4, beta
            if profile.kind == delta_profile().kind:
                assert lim.result.status == STATUS_BOUNDARY
                assert abs(lim.m0 - cont.m0) <= max(
                    2e-5, cont.error_estimates["m0"])
                continue
            assert lim.result.status == STATUS_CONVERGED
            assert lim.m0 == 0.0
            assert classify_phase(m, tp, lim) == PHASE_PAIR_ONLY
            lim.result.checked_residuals()

    @pytest.mark.parametrize("profile, q", [
        (gaussian_profile(1.0), 0.77), (power_profile(1.0, 4.0), 0.77),
        (gaussian_profile(1.0), 0.0)])
    def test_lorentz_coefficient_is_sigma_i3(self, profile, q):
        # b = sigma I3(sigma) at sigma = 1e-16, from the converged
        # curvature row, for both forms of the coefficient
        m = Model(dim=2, mass=0.5, u=0.5, v=1.0, lambda_profile=profile)
        tp = ThermoPoint(2.0, 0.2)
        sigma = 1e-16
        op = OrderPoint(q, (0.2 + 0.5 * q + sigma), 0.0, sigma)
        want = sigma * pressure.d2_mu(m, tp, op)
        got = solver._lorentz_coefficient(m, 2.0, 0.5 * q)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("prof, v, u, mass, beta, mu", [
        (power_profile(1.9, 2.26), 1.0, 0.5, 0.9, 1.44, 1.31),
        (power_profile(0.7, 2.29), 1.55, 0.7, 0.3, 5.0, 1.06)])
    def test_power_profile_near_p_2(self, prof, v, u, mass, beta, mu):
        # 1 - lambda ~ (c r)^p in f - h fades against r^2/(2m) only like
        # sigma^((p-2)/2), so sigma I3 reaches b far below 1e-16: the
        # anchor moves down until it does (sigma* = 1e-31 and 3e-116
        # here); from 1e-16 the asymptote missed the density row by
        # 0.15 and 1.3e-3
        m = Model(dim=2, mass=mass, u=u, v=v, lambda_profile=prof)
        tp = ThermoPoint(beta, mu)
        lim = variational_limit(m, tp)
        assert lim.result.status == STATUS_CONVERGED and lim.m0 == 0.0
        lim.result.checked_residuals()
        cont = eta_continuation(m, tp)
        assert abs(lim.p_limit - cont.p_limit) <= cont.error_estimates["p"]
        assert abs(lim.q_limit - cont.q_limit) <= 1e-4

    def test_checked_residuals_stay_strict(self, monkeypatch):
        # sigma* = 1.9e-42: the slack is the el1 that the root's tolerance
        # on ln sigma allows, about b 1e-15, so an el1 of 1e-9 fails
        m, tp = model(dim=2), ThermoPoint(2.0, 0.6)
        res = variational_limit(m, tp).result
        assert 1e-43 < res.residual_at[2].sigma < 1e-41
        res.checked_residuals()
        assert res._el1_slack() < 1e-13
        el1, el2 = res._residuals
        monkeypatch.setattr(solver, "el_residuals",
                            lambda *args: (el1 + 1e-9, el2))
        with pytest.raises(StationarityViolated, match="not stationary"):
            dataclasses.replace(res).checked_residuals()

    @pytest.mark.parametrize("beta, mu", [(2.0, 0.6), (8.0, 0.5)])
    def test_q0_gap_against_mpmath(self, beta, mu):
        # u < 0: q_bar = 0 and the gap is sigma*, the root of
        # (mu + sigma)/v = lambda^-2 g_1(e^-beta sigma), here at 40 digits
        # in s = ln sigma; two solves once printed 1.41241405e-7 and
        # 1.41241404e-7 at beta = 2, and the second point ended on sigma = 0
        import mpmath
        lim = variational_limit(model(u=-0.5, dim=2), ThermoPoint(beta, mu))
        assert lim.result.status == STATUS_CONVERGED
        with mpmath.workdps(40):
            c = mpmath.mpf(0.5) / (2 * mpmath.pi * beta)

            def resid(s):
                sigma = mpmath.exp(s)
                return mu + sigma + c * mpmath.log(-mpmath.expm1(-beta * sigma))

            want = float(mpmath.exp(mpmath.findroot(resid,
                                                    math.log(lim.gap_limit))))
        assert lim.gap_limit == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_underflowed_gap_stays_interior(self):
        # beta = 16: sigma* ~ 1e-340 underflows.  The solve carries
        # ln sigma: the minimum is interior, not a boundary minimum, its
        # gap E(0) = sqrt(sigma* 2|u|q) is read from ln sigma, and its
        # residuals, which cannot be formed, end in StationarityViolated
        m, tp = model(dim=2), ThermoPoint(16.0, 0.6)
        lim = variational_limit(m, tp)
        assert lim.result.status == STATUS_CONVERGED
        assert lim.result.residual_at[2].sigma == 0.0
        assert 0.0 < lim.gap_limit < 1e-150 and lim.m0 == 0.0
        assert lim.p_limit >= mf_pressure(m, tp)
        with pytest.raises(StationarityViolated, match="float range"):
            lim.result.checked_residuals()

    def test_subnormal_gap_is_below_the_float_range(self):
        # power:1:4 at beta = 24, mu = 0.6: sigma* = 2.0e-317 is subnormal,
        # not 0; el_residuals cannot resolve it either (it read el1 = el2 =
        # -inf), so the check raises as for an underflowed gap
        m = Model(dim=2, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=power_profile(1.0, 4.0))
        lim = variational_limit(m, ThermoPoint(24.0, 0.6))
        assert lim.result.status == STATUS_CONVERGED
        assert 0.0 < lim.result.residual_at[2].sigma < 1e-316
        with pytest.raises(StationarityViolated, match="float range"):
            lim.result.checked_residuals()


class TestEtaZeroSweep:
    """A fixed-seed random sweep of `variational_limit`, the path the CLI
    takes at every point, with the checks `solve` makes."""

    PROFILES = {"gaussian:1": gaussian_profile(1.0), "delta": delta_profile(),
                "power": None}

    @staticmethod
    def _draw(rng):
        # dims 1-4, three profiles (power:1:4, or power:1:5 in dim 4, where
        # p must exceed 4), u < 0, u = 0 and u > 0, beta log-uniform in
        # [0.1, 16], mu uniform in [-1, 1.5]
        dim = int(rng.integers(1, 5))
        name = str(rng.choice(list(TestEtaZeroSweep.PROFILES)))
        profile = (power_profile(1.0, 5.0 if dim == 4 else 4.0)
                   if name == "power" else TestEtaZeroSweep.PROFILES[name])
        u = float(rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.05, 0.9))
        v = max(float(rng.uniform(0.3, 2.0)), u + 0.1)
        mass = float(rng.uniform(0.3, 2.0))
        beta = float(np.exp(rng.uniform(np.log(0.1), np.log(16.0))))
        mu = float(rng.uniform(-1.0, 1.5))
        return (Model(dim=dim, mass=mass, u=u, v=v, lambda_profile=profile),
                ThermoPoint(beta, mu))

    def test_sweep(self):
        rng = np.random.default_rng(31)
        points = [self._draw(rng) for _ in range(400)]
        # the point whose gap solve cycled between two adjacent floats
        # with F = +-5.6e-17 while only a bisection could end the loop
        points.append((Model(dim=3, mass=1.6077, u=-0.1164, v=1.8655,
                             lambda_profile=power_profile(1.136, 3.259)),
                       ThermoPoint(2.12275, 0.19021)))
        # (model, tp, error, carried sigma or None) of each point whose
        # solve or residual check raised a PairBosonError; any other
        # exception fails the sweep
        failures = []
        for m, tp in points:
            try:
                lim = variational_limit(m, tp)
            except PairBosonError as exc:
                failures.append((m, tp, exc, None))
                continue
            if m.u <= 0.0:
                assert lim.q_limit == 0.0, (m, tp)
                assert abs(lim.p_limit - mf_pressure(m, tp)) <= \
                    1e-12 * max(1.0, abs(lim.p_limit)), (m, tp)
            if lim.result.status == STATUS_CONVERGED:
                try:
                    lim.result.checked_residuals()
                except PairBosonError as exc:
                    failures.append((m, tp, exc,
                                     lim.result.residual_at[2].sigma))
        # the draw meets one kind of failure, four times: a dim-2 optimum
        # whose sigma* lies below the float range
        assert len(failures) == 4
        for m, tp, exc, sigma in failures:
            assert m.dim == 2 and type(exc) is StationarityViolated, (m, tp)
            assert "below the float range" in str(exc)
            assert sigma < sys.float_info.min


class TestEtaZeroProperties:
    """Properties of the eta = 0 path, the CLI's at every point, over a
    derandomized Hypothesis draw of dims 1-4, three profiles, u < 0, u = 0
    and u > 0, beta in [0.1, 16], mu in [-1, 1.5] and random v and m.

    The one failure the draw may meet, and which is not filtered out, is
    a dim-2 optimum whose carried gap sigma* lies far below the anchor
    (underflowed to 0, or as small as 2.4e-170): the solve finds it, but
    its residuals cannot be formed there, so `checked_residuals` raises
    StationarityViolated (ROADMAP item 1)."""

    H = 1e-5  # the step of the difference quotient of p in mu

    @staticmethod
    def _known_failure(m, lim, exc):
        sigma = lim.result.residual_at[2].sigma
        return (m.dim == 2 and type(exc) is StationarityViolated
                and sigma < solver._SIGMA0)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(dim=st.integers(1, 4),
           profile=st.sampled_from(["gaussian:1", "power", "delta"]),
           sign=st.sampled_from([-1.0, 0.0, 1.0]),
           strength=st.floats(0.05, 0.9),
           v=st.floats(0.3, 2.0), mass=st.floats(0.3, 2.0),
           log_beta=st.floats(math.log(0.1), math.log(16.0)),
           mu=st.floats(-1.0, 1.5))
    def test_properties(self, dim, profile, sign, strength, v, mass,
                        log_beta, mu):
        lam = {"gaussian:1": GAUSS, "delta": delta_profile(),
               "power": power_profile(1.0, 5.0 if dim == 4 else 4.0)}
        u = sign * strength
        m = Model(dim=dim, mass=mass, u=u, v=max(v, u + 0.1),
                  lambda_profile=lam[profile])
        beta = math.exp(log_beta)
        # no solve raises: the one failure expected is the residual check's
        stencil = {k: variational_limit(m, ThermoPoint(beta, mu + k * self.H))
                   for k in (-2, -1, 0, 1, 2)}
        lim, tp = stencil[0], ThermoPoint(beta, mu)
        outputs = (lim.p_limit, lim.q_limit, lim.rho_limit, lim.m0,
                   lim.gap_limit)
        assert all(math.isfinite(x) for x in outputs), outputs
        assert lim.gap_limit >= 0.0 and lim.m0 >= 0.0
        p, p_mf = lim.p_limit, mf_pressure(m, tp)
        if u <= 0.0:
            assert lim.q_limit == 0.0
            assert abs(p - p_mf) <= 1e-12 * max(1.0, abs(p))
        else:
            assert p >= p_mf - 1e-10 * max(1.0, abs(p))
        phase = classify_phase(m, tp, lim)
        if dim <= 2 and profile != "delta":
            # Hohenberg-Mermin-Wagner: no condensate in dim <= 2
            assert phase != PHASE_CONDENSED
        if lim.result.status == STATUS_CONVERGED:
            try:
                lim.result.checked_residuals()
            except PairBosonError as exc:
                assert self._known_failure(m, lim, exc), exc
        # p'(mu) = rho_bar, by the fourth-order central difference, whose
        # error falls like H^4: the second-order one's H^2 term alone
        # reaches 7e-9 max(1, rho_bar) at a sharp pair_only point.  A
        # stencil that straddles a phase or status change is left out,
        # where p' may jump
        kinds = {(classify_phase(m, ThermoPoint(beta, mu + k * self.H), s),
                  s.result.status) for k, s in stencil.items()}
        if len(kinds) == 1:
            ps = {k: s.p_limit for k, s in stencil.items()}
            slope = (8.0 * (ps[1] - ps[-1]) - (ps[2] - ps[-2])) / (12.0 * self.H)
            assert abs(slope - lim.rho_limit) <= \
                1e-9 * max(1.0, lim.rho_limit), (slope, lim.rho_limit)


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

    # a mean-field condensed point where rho_b = mu/v = 1.5 rounds sigma to
    # -1 ulp: the rho solve nudged rho_bar to 1.5000000000000002 and read
    # the multiplier at sigma = 1.1e-16, and mf_pressure raised
    # InfeasiblePoint there
    MF_CONDENSED = dict(dim=3, mass=0.5, u=-0.5, v=0.6,
                        lambda_profile=GAUSS)

    def test_mf_condensed_m0_is_half_the_excess(self):
        # m0 = (mu/v - rho_c)/2 = 0.739633174417936112 (30 digits, from
        # zeta(3/2)); the multiplier read 1.1e-16 off sigma = 0 was
        # 2.8e-10 high
        lim = variational_limit(Model(**self.MF_CONDENSED),
                                ThermoPoint(2.0, 0.9))
        assert lim.result.status == STATUS_BOUNDARY
        assert lim.rho_limit == 1.5
        assert lim.m0 == pytest.approx(0.739633174417936112, rel=1e-15,
                                       abs=0.0)

    def test_mf_pressure_on_the_condensed_boundary(self):
        m, tp = Model(**self.MF_CONDENSED), ThermoPoint(2.0, 0.9)
        p_mf = mf_pressure(m, tp)
        assert math.isfinite(p_mf)
        p = variational_limit(m, tp).p_limit
        assert abs(p_mf - p) <= 1e-14 * max(1.0, abs(p))

    def test_mf_pressure_finds_a_gap_below_1e_13(self):
        # the fixed point's sigma* = 7.8e-14 lay below the bottom probe
        # sigma = 1e-13 of the rho solve, which then read mf_pressure on
        # sigma = 0, 1.7e-14 relative above the solve's p
        m = model(u=-0.5, dim=2)
        tp = ThermoPoint(7.4575, 0.30065)
        lim = variational_limit(m, tp)
        assert lim.result.status == STATUS_CONVERGED
        assert 7e-14 < lim.gap_limit < 8e-14
        assert mf_pressure(m, tp) == pytest.approx(lim.p_limit, rel=1e-15,
                                                   abs=0.0)


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


@pytest.mark.parametrize("dim", [3, 4])
def test_boundary_residuals_are_the_condensate(dim):
    """At a u > 0 boundary minimum (sigma* = 0; in dim 3 the seed-0
    condensed point, m0 = 0.78914) both Euler-Lagrange residuals, read
    through the API, are the condensate density m0, the multiplier that
    the boundary carries.  They read -inf (nan in dim 4) while the
    residuals' tanh-sinh span started at t = -6 at sigma = 0, whose nodes
    put E^2 below the normal range."""
    res = variational_limit(model(dim=dim), ThermoPoint(2.0, 0.4)).result
    assert res.status == STATUS_BOUNDARY and res.gap == 0.0
    if dim == 3:
        assert res.rho0 == pytest.approx(0.78914, abs=1e-5)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        el1, el2 = res.residual_el1, res.residual_el2
    assert el1 == pytest.approx(res.rho0, rel=0.0, abs=1e-9)
    assert el2 == pytest.approx(res.rho0, rel=0.0, abs=1e-9)


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
    """Quadrature work of perfbench's seed-0 scan_line, serial: 19
    `radial_rows` calls, in 32 kernel calls on 91,605 kernel points, since
    the four points of its one beta row run in lockstep, one batched call
    per kind of request and round (each point waits for the others before
    its bracket and before it reads its scan's values).  The count
    repeats exactly.  Before, each point solved alone: 38 calls in 53
    kernel calls on 91,500 points since the q = 0 rows are closed form,
    54 since every inner solve tests the boundary first where it can, 58
    when the outer scan's inner solves first ran in lockstep, 451 when
    each of those solved alone, and 8,450 from a continuation per
    point."""
    from pairboson import cli
    monkeypatch.setenv("PBH_THREADS", "1")
    calls = _counting(monkeypatch, "radial_rows", pressure)
    sizes = []
    evaluate = quadrature.eval_rows

    def counted(r, lam, lam_c, beta, inv_2m, sigma, habs, rows):
        sizes.append(np.broadcast(r, sigma).size)
        return evaluate(r, lam, lam_c, beta, inv_2m, sigma, habs, rows)

    monkeypatch.setattr(quadrature, "eval_rows", counted)
    assert cli.main(["scan", "--beta", "2", "--mu-range=-0.2:0.4:4",
                     "--u", "0.5", "--dim", "3"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert (len(calls), len(sizes), sum(sizes)) == (19, 32, 91_605)


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


@pytest.mark.parametrize("mu, u, phase, calls, batches, points", [
    ("-0.3", "0.5", PHASE_NORMAL, 8, 9, 25_905),
    ("0.4", "0.5", PHASE_CONDENSED, 11, 15, 17_520),
    ("0.4", "-0.5", PHASE_MF_CONDENSED, 0, 0, 0)],
    ids=["normal", "condensed", "mf_condensed"])
def test_solve_mix_work_budget(monkeypatch, capsys, mu, u, phase, calls,
                               batches, points):
    """The quadrature work of perfbench's three seed-0 solve_mix points:
    `radial_rows` calls, kernel calls ("batches") and kernel points, which
    count nodes times evaluation points, the size the kernel broadcasts
    to.  The counts repeat exactly.  No cold call splits a panel, since a
    cold mesh starts with the splits that its first pass made before: the
    normal and condensed solves made 11 and 17 kernel calls on 28,110 and
    18,720 points then, with 5 split passes at cold starts between them."""
    from pairboson import cli
    radial = _counting(monkeypatch, "radial_rows", pressure)
    sizes, cold_splits, state = [], [], {}
    evaluate = quadrature.eval_rows
    fresh, refine = quadrature._initial_breaks, quadrature._refine

    def counted(r, lam, lam_c, beta, inv_2m, sigma, habs, rows):
        sizes.append(np.broadcast(r, sigma).size)
        return evaluate(r, lam, lam_c, beta, inv_2m, sigma, habs, rows)

    def ladder(*args):
        state["cold"] = True
        return fresh(*args)

    def refined(panel_integrals, *args):
        cold = state.pop("cold", False)

        def split(*where):
            if cold:
                cold_splits.append(where)
            return panel_integrals(*where)

        return refine(split, *args)

    monkeypatch.setattr(quadrature, "eval_rows", counted)
    monkeypatch.setattr(quadrature, "_initial_breaks", ladder)
    monkeypatch.setattr(quadrature, "_refine", refined)
    argv = ["solve", "--beta", "2.0", "--mu", mu, "--u", u, "--dim", "3",
            "--v", "1.0", "--mass", "0.5", "--profile", "gaussian:1.0"]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["phase"] == phase
    assert len(radial) == calls
    assert (len(sizes), sum(sizes)) == (batches, points)
    assert cold_splits == []


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
    the kernel no more than _CHUNK kernel points (nodes times evaluation
    points) at once, splits a batch into several calls, and evaluates
    31,605 kernel points (37,170 before a cold mesh started split, 39,525
    when each scan point solved alone; an earlier record of this point read
    2,001,720).  The budget stays 46,050."""
    sizes, firsts, call = [], [], {}
    evaluate, integrate = quadrature.eval_rows, pressure.radial_rows

    def counted(r, lam, lam_c, beta, inv_2m, sigma, habs, rows):
        sizes.append(np.broadcast(r, sigma).size)
        if call.pop("first", False):
            firsts.append((call["K"], len(sigma)))
        return evaluate(r, lam, lam_c, beta, inv_2m, sigma, habs, rows)

    def batched(profile, nu, mass, beta, sigma, habs, *rows):
        call.update(K=np.size(sigma), first=True)
        return integrate(profile, nu, mass, beta, sigma, habs, *rows)

    monkeypatch.setattr(quadrature, "eval_rows", counted)
    monkeypatch.setattr(pressure, "radial_rows", batched)
    m = Model(dim=3, mass=0.5, u=0.5, v=1.0,
              lambda_profile=power_profile(1.0, 4.0))
    lim = variational_limit(m, ThermoPoint(2.0, -0.1))
    assert lim.p_limit == pytest.approx(0.003921739666280985, rel=1e-12)
    assert lim.q_limit == 0.0 and lim.result.status == "converged"
    assert max(sizes) <= quadrature._CHUNK
    # a batch was split: the first kernel call of some quadrature call saw
    # fewer than its K points
    assert any(n < k for k, n in firsts)
    assert sum(sizes) <= 46_050
