"""Tests for the sup-inf solver, continuation and observables.

Frozen reference numbers were produced by independent re-solves at tighter
settings and by closed-form series evaluation (Bose functions).
"""

import itertools
import json
import math

import numpy as np
import pytest

from pairboson import pressure, solver
from pairboson.errors import (
    BracketFailure, ConfigError, ModelError, PairBosonError,
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
        rho_bar, _val, boundary = inf_rho(m, tp, 0.3, 0.1, None)
        assert not boundary
        assert abs(grad_rho(m, tp, OrderPoint(0.3, rho_bar, 0.1))) < 1e-9

    def test_boundary_detection(self):
        # large positive mu with small eta pins the minimum to sigma = 0
        m = model(u=-0.5)
        tp = ThermoPoint(beta=2.0, mu=1.0)
        rho_bar, _val, boundary = inf_rho(m, tp, 0.05, 1e-4, None)
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
        rho_cold, _, boundary = inf_rho(m, tp, q, eta, None)
        assert not boundary
        rho_lo = max(0.0, (mu + abs(u) * q) / m.v)
        hints = {"below": 0.5 * (rho_lo + rho_cold), "above": 2.0 * rho_cold,
                 "infeasible": rho_lo - 0.1}
        for name, hint in hints.items():
            rho_bar, _, boundary = inf_rho(m, tp, q, eta, None,
                                           rho_hint=hint)
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
            boundary = inf_rho(m, tp, q, eta, None)[2]
            assert boundary == _boundary_by_scan(m, tp, q, eta), \
                (u, mu, q, eta)
            decided.append(boundary)
        assert any(decided) and not all(decided)


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
        diagnostics = {"inner_solves": 0}
        inner = _inner_solver(model(), ThermoPoint(2.0, -0.3), 0.05, None,
                              diagnostics)
        first = inner(0.3)
        assert inner(0.3) == first
        assert len(calls) == 1 and diagnostics["inner_solves"] == 1
        inner(0.4)
        assert len(calls) == 2 and diagnostics["inner_solves"] == 2

    def test_errors_are_not_stored(self, monkeypatch):
        outcomes = [BracketFailure("first try"), (0.5, -1.0, False)]

        def flaky(*args, **kwargs):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(solver, "inf_rho", flaky)
        diagnostics = {"inner_solves": 0}
        inner = _inner_solver(model(), ThermoPoint(2.0, -0.3), 0.05, None,
                              diagnostics)
        with pytest.raises(BracketFailure):
            inner(0.3)
        assert inner(0.3) == (0.5, -1.0, False)
        assert diagnostics["inner_solves"] == 2 and not outcomes


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

    def test_escape_keeps_the_window_count(self, monkeypatch):
        # the optimum (q_bar ~ 0.9) lies far above the window 0.01 [1/4, 4]:
        # the solves of the abandoned window count with the redo's
        calls = _counting(monkeypatch, "inf_rho")
        res = outer_opt(model(u=0.5), ThermoPoint(2.0, 0.4), 0.05,
                        q_hint=0.01)
        assert res.q_bar > 0.04 and "bracket_expansions" in res.diagnostics
        assert res.diagnostics["inner_solves"] == len(calls)

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

    def test_window_follows_the_eta_trend(self, monkeypatch):
        # normal phase, q_bar ~ eta^2: a window centred on the last q_bar
        # would escape at every step (13 outer calls for 7 steps); the
        # predicted centre q_n (q_n / q_{n-1}) keeps all but the second
        # step inside
        calls = _counting(monkeypatch, "outer_opt")
        cont = eta_continuation(model(u=0.5), ThermoPoint(2.0, -0.3),
                                floor=1e-3)
        assert len(cont.results) == 7
        assert len(calls) <= 8
        hints = {}
        for args, kwargs in calls:
            hints.setdefault(args[2], kwargs["q_hint"])
        q = [r.q_bar for r in cont.results]
        for n in range(2, len(q)):
            predicted = q[n - 1] * (q[n - 1] / q[n - 2])
            assert hints[cont.eta_sequence[n]] == predicted

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

    @pytest.mark.parametrize("profile", [gaussian_profile(1.0),
                                         delta_profile(),
                                         power_profile(1.0, 4.0, 3)],
                             ids=["gaussian:1", "delta", "power:1:4"])
    def test_agrees_with_continuation(self, profile):
        # dim 3, u >= 0, mu on both sides of the transition (u = 0:
        # mu = v rho_c = 0.021; u = 0.5: between -0.1 and 0.4)
        phases = set()
        for u, mu in itertools.product((0.0, 0.5), (-0.1, 0.4)):
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


class TestDensities:
    def test_critical_density_closed_form(self):
        # zeta(3/2) (m / (2 pi beta))^(3/2) in three dimensions
        from scipy.special import zeta
        m = model(u=0.0)
        for beta in (1.0, 2.0, 4.0):
            expected = zeta(1.5) * (m.mass / (2.0 * math.pi * beta)) ** 1.5
            assert critical_density(m, beta) == pytest.approx(expected,
                                                              rel=1e-8)

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

    @pytest.mark.parametrize("u, expected", [("0.5", 1), ("-0.5", 0)])
    def test_solve_reads_the_last_step_only(self, u, expected, monkeypatch,
                                            capsys):
        # at mf_condensed (u = -0.5) the last step ends on the boundary,
        # where the residuals are printed as null
        from pairboson import cli
        calls = _counting(monkeypatch, "el_residuals")
        assert cli.main(self.ARGV + ["--u", u]) == cli.EXIT_OK
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
    perfbench's solve_mix).  The count repeats exactly: 1,778 while the
    outer gradients shared the inner Newton steps' plan key, 1,147 with
    their own."""
    from pairboson import cli
    calls = _counting(monkeypatch, "radial_rows", pressure)
    assert cli.main(TestLazyResiduals.ARGV + ["--u", "-0.5"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["phase"] == PHASE_MF_CONDENSED
    assert len(calls) <= 1300


def test_scan_quadrature_budget(monkeypatch, capsys):
    """Quadrature calls of perfbench's seed-0 scan_line, serial.  The count
    repeats exactly: 573 from the eta = 0 solve, 8,450 from a continuation
    per point."""
    from pairboson import cli
    monkeypatch.setenv("PBH_THREADS", "1")
    calls = _counting(monkeypatch, "radial_rows", pressure)
    assert cli.main(["scan", "--beta", "2", "--mu-range=-0.2:0.4:4",
                     "--u", "0.5", "--dim", "3"]) == cli.EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert len(calls) <= 800
