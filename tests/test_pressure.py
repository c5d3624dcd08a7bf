"""Tests for the thermodynamic-limit pressure and its derivatives.

Reference values come from independent oracles: central finite differences
of pressure_tl, a brute-force Riemann sum over momentum space, the
residual path's own double-exponential integrator, and SciPy's `quad` as
that integrator's reference.
"""

import importlib
import inspect
import itertools
import math
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairboson.errors import (
    InfeasiblePoint, ModelError, PairBosonError, StationarityViolated,
)
from pairboson import kernels, pressure, quadrature
from pairboson.model import Model, LatticeSpec, gaussian_profile
from pairboson.pressure import (
    ThermoPoint, OrderPoint, sigma_gap, feasible, source_terms,
    pressure_tl, pressure_fv, pressure_fv_modes,
    grad_rho, grad_q, outer_grads, total_dq, d_mu, d2_mu, el_residuals,
)

MODEL = Model(dim=3, mass=0.5, u=0.5, v=1.0,
              lambda_profile=gaussian_profile(1.0))
TP = ThermoPoint(beta=2.0, mu=-0.3)
OP = OrderPoint(q=0.4, rho=0.9, eta=0.15)


def fd(fun, x, h):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


class TestFeasibility:
    @pytest.mark.parametrize("field", ["q", "rho", "eta"])
    def test_negative_order_point_is_a_model_error(self, field):
        with pytest.raises(PairBosonError) as info:
            OrderPoint(**{field: -1.0})
        assert info.type is ModelError

    def test_sigma_gap(self):
        # v rho - mu - |u| q
        assert sigma_gap(MODEL, TP, OP) == pytest.approx(
            1.0 * 0.9 + 0.3 - 0.5 * 0.4)

    def test_infeasible_raises(self):
        bad = OrderPoint(q=4.0, rho=0.5, eta=0.1)
        with pytest.raises(InfeasiblePoint):
            pressure_tl(MODEL, TP, bad)

    @pytest.mark.parametrize("u", [0.5, -0.5])
    @pytest.mark.parametrize("eta", [0.0, 0.15])
    def test_feasible_iff_pressure_finite(self, u, eta):
        # rho on both sides of sigma = 0 (exact in binary at these values)
        # and at sigma~ = 0, which for u < 0 lies below sigma = 0 because
        # sigma~ = sigma + 2 |u| q there
        model = Model(dim=3, mass=0.5, u=u, v=1.0,
                      lambda_profile=gaussian_profile(1.0))
        tp, q = ThermoPoint(beta=2.0, mu=0.25), 0.5
        rho_sigma0 = tp.mu + abs(u) * q
        rhos = [rho_sigma0 + d for d in (-0.5, -1e-3, 0.0, 1e-3, 0.5)]
        rhos.append(tp.mu + u * q)
        seen = set()
        for rho in rhos:
            op = OrderPoint(q=q, rho=rho, eta=eta)
            ok = feasible(model, tp, op)
            seen.add(ok)
            if ok:
                assert math.isfinite(pressure_tl(model, tp, op))
                src = source_terms(model, tp, op)
                assert (src == (0.0, 0.0, 0.0)) == (eta == 0.0)
            else:
                with pytest.raises(InfeasiblePoint):
                    pressure_tl(model, tp, op)
                with pytest.raises(InfeasiblePoint):
                    source_terms(model, tp, op)
        assert seen == {True, False}
        # on sigma = 0 a source makes the pressure infinite only when
        # sigma~ = sigma, that is for u > 0
        edge = OrderPoint(q=q, rho=rho_sigma0, eta=eta)
        assert feasible(model, tp, edge) == (eta == 0.0 or u < 0)

    @pytest.mark.parametrize("u", [0.5, -0.5])
    def test_source_reads_the_carried_gap(self, u):
        # sigma~ = sigma + (|u| - u) q from the gap the point carries: where
        # rho resolves sigma (exact in binary at these values, and not) the
        # source terms are those formed from rho
        model = Model(dim=3, mass=0.5, u=u, v=1.0,
                      lambda_profile=gaussian_profile(1.0))
        tp, q, eta = ThermoPoint(beta=2.0, mu=0.25), 0.5, 0.15
        for rho, exact in ((0.75, True), (0.9, False), (2.3, False)):
            formed = OrderPoint(q, rho, eta)
            carried = OrderPoint(q, rho, eta, sigma_gap(model, tp, formed))
            want = source_terms(model, tp, formed)
            got = source_terms(model, tp, carried)
            if exact:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_source_keeps_a_gap_below_rho_resolution(self):
        # sigma = 1e-20 at rho = 1: rho rounds it away, and the sigma~
        # formed from rho is 0, where the source is infinite; the carried
        # gap keeps eta^2/sigma~^2 to full precision
        tp, q, eta, sigma = ThermoPoint(beta=2.0, mu=0.75), 0.5, 1e-12, 1e-20
        rho = (tp.mu + 0.5 * q + sigma) / MODEL.v
        assert rho == 1.0
        assert not feasible(MODEL, tp, OrderPoint(q, rho, eta))
        got = source_terms(MODEL, tp, OrderPoint(q, rho, eta, sigma))
        want = (eta ** 2 / sigma, eta ** 2 / sigma ** 2,
                2.0 * eta ** 2 / sigma ** 3)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_boundary_sigma_zero_eta_zero_finite(self):
        # gapless point: evaluation exactly at sigma = 0 must succeed
        op = OrderPoint(q=0.6, rho=(TP.mu + 0.5 * 0.6) / 1.0, eta=0.0)
        assert sigma_gap(MODEL, TP, op) == pytest.approx(0.0, abs=1e-15)
        assert math.isfinite(pressure_tl(MODEL, TP, op))


class TestBruteForceOracle:
    def test_pressure_matches_riemann_sum(self):
        # independent 3d Riemann sum of the integrand on a cube
        n, kmax = 120, 12.0
        ks = (np.arange(n) + 0.5) / n * kmax
        kx, ky, kz = np.meshgrid(ks, ks, ks, indexing="ij", sparse=True)
        r = np.sqrt(kx ** 2 + ky ** 2 + kz ** 2).ravel()
        lam = MODEL.lambda_profile.value_radial(r)
        f = r * r / (2.0 * MODEL.mass) + MODEL.v * OP.rho - TP.mu
        h = abs(MODEL.u) * OP.q * lam
        E = np.sqrt(f * f - h * h)
        integrand = (-np.log1p(-np.exp(-TP.beta * E)) / TP.beta
                     - 0.5 * (E - f))
        cell = (kmax / n) ** 3
        # octant sum -> full space via symmetry
        integral = 8.0 * integrand.sum() * cell / (2.0 * math.pi) ** 3
        expected = (integral
                    + OP.eta ** 2 / (MODEL.v * OP.rho - TP.mu - MODEL.u * OP.q)
                    - MODEL.u * OP.q ** 2 / 2.0 + MODEL.v * OP.rho ** 2 / 2.0)
        assert pressure_tl(MODEL, TP, OP) == pytest.approx(expected, rel=2e-6)


class TestDerivatives:
    def test_grad_rho_fd(self):
        fun = lambda x: pressure_tl(MODEL, TP, OrderPoint(OP.q, x, OP.eta))
        assert grad_rho(MODEL, TP, OP) == pytest.approx(
            fd(fun, OP.rho, 1e-6), rel=1e-8)

    def test_grad_q_fd(self):
        fun = lambda x: pressure_tl(MODEL, TP, OrderPoint(x, OP.rho, OP.eta))
        assert grad_q(MODEL, TP, OP) == pytest.approx(
            fd(fun, OP.q, 1e-6), rel=1e-8)

    def test_d_mu_fd(self):
        fun = lambda x: pressure_tl(MODEL, ThermoPoint(TP.beta, x), OP)
        assert d_mu(MODEL, TP, OP) == pytest.approx(
            fd(fun, TP.mu, 1e-6), rel=1e-8)

    def test_d2_mu_fd(self):
        fun = lambda x: d_mu(MODEL, ThermoPoint(TP.beta, x), OP)
        assert d2_mu(MODEL, TP, OP) == pytest.approx(
            fd(fun, TP.mu, 1e-6), rel=1e-7)

    def test_d_mu_printed_reading_disagrees_with_fd(self):
        # the printed source coefficient v instead of 1: with v != 1 it
        # fails the finite-difference check that d_mu passes
        model = Model(dim=3, mass=0.5, u=0.5, v=2.0,
                      lambda_profile=gaussian_profile(1.0))
        fun = lambda x: pressure_tl(model, ThermoPoint(TP.beta, x), OP)
        ref = fd(fun, TP.mu, 1e-6)
        assert d_mu(model, TP, OP) == pytest.approx(ref, rel=1e-8)
        printed = (d_mu(model, TP, OP)
                   + (model.v - 1.0) * source_terms(model, TP, OP)[1])
        assert abs(printed - ref) > 1e-4

    def test_d2_mu_nonnegative(self):
        assert d2_mu(MODEL, TP, OP) > 0.0


def _quad_residuals(model, tp, op):
    """el_residuals with scalar integrands and SciPy's `quad` on [0, L]
    and [L, inf), L = 8 scale, at epsabs 1e-13 and epsrel 1e-12; f(0) is
    formed from the gap the point carries, if any."""
    import warnings
    from scipy.integrate import IntegrationWarning, quad
    nu, beta, prof = model.dim, tp.beta, model.lambda_profile
    habs = abs(model.u) * op.q
    foff = sigma_gap(model, tp, op) + habs
    c_nu = (2.0 * math.pi ** (nu / 2.0) / math.gamma(nu / 2.0)
            / (2.0 * math.pi) ** nu)
    L = 8.0 * math.sqrt(2.0 * model.mass * max(1.0 / beta, abs(foff), 1.0))

    def spec(r):
        lam = float(prof.value_radial(r))
        f = r * r / (2.0 * model.mass) + foff
        h = habs * lam
        return f, h, math.sqrt(max((f - h) * (f + h), 0.0)), lam

    def g1(r):
        # (f coth - E)/(2E) without the large-r cancellation
        f, h, E, _ = spec(r)
        t = math.tanh(beta * E / 2.0)
        return (h * h / (E + f) + f * (1.0 - t) / t) / (2.0 * E) if E else 0.0

    def g2(r):
        _, _, E, lam = spec(r)
        return lam * lam / (2.0 * E * math.tanh(beta * E / 2.0)) if E else 0.0

    def integral(g):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            return sum(quad(lambda r: c_nu * r ** (nu - 1) * g(r), lo, hi,
                            epsabs=1e-13, epsrel=1e-12, limit=400)[0]
                       for lo, hi in ((0.0, L), (L, math.inf)))

    src = source_terms(model, tp, op)[1]
    r2 = -src if op.q == 0.0 else op.q - model.u * op.q * integral(g2) - src
    return op.rho - integral(g1) - src, r2


class TestResiduals:
    def test_residual_identities(self):
        # r1 = grad_rho / v and r2 = -grad_q / u, via independent quadrature
        r1, r2 = el_residuals(MODEL, TP, OP)
        assert r1 == pytest.approx(grad_rho(MODEL, TP, OP) / MODEL.v,
                                   rel=1e-10, abs=1e-12)
        assert r2 == pytest.approx(-grad_q(MODEL, TP, OP) / MODEL.u,
                                   rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("dim, u, mu, eta_q", [
        (3, 0.5, -0.3, None),    # the normal point
        (1, 0.5, 0.4, None),
        (2, -0.5, 0.2, None),
        (2, -0.5, 0.6, None),    # sigma = 1.4e-7: the infrared peak
        (2, 0.5, 0.2, (0.05, 0.3)),
    ])
    def test_residuals_match_scalar_quad(self, dim, u, mu, eta_q):
        """The double-exponential rule against SciPy's adaptive `quad`
        (the former residual integrator) at the eta = 0 optimum, or for
        dim 2 with u > 0, where that solve fails, at a feasible point with
        q > 0 and a source."""
        model = Model(dim=dim, mass=0.5, u=u, v=1.0,
                      lambda_profile=gaussian_profile(1.0))
        tp = ThermoPoint(beta=2.0, mu=mu)
        if eta_q is None:
            from pairboson.solver import variational_limit
            res = variational_limit(model, tp).result
            assert res.status == "converged"
            op = res.residual_at[2]
        else:
            eta, q = eta_q
            op = OrderPoint(q=q, rho=(mu + u * q) / model.v + 0.05, eta=eta)
        if (dim, mu) == (2, 0.6):
            assert sigma_gap(model, tp, op) == pytest.approx(1.4e-7, rel=0.01)
        want = _quad_residuals(model, tp, op)
        got = el_residuals(model, tp, op)
        assert got == pytest.approx(want, rel=0.0, abs=1e-13)

    def test_el1_near_the_boundary_matches_mpmath(self):
        """el1 at a float (q, rho) of the dim-1 optimum of `solve --dim 1
        --profile gaussian:1 --u 0.9 --beta 8 --mu 0.4`, sigma = 9.3e-6,
        against a 40-digit mpmath integral of the same input (exact
        el1 = 1.50e-10: rho rounds the solve's sigma* by 6e-16, and
        d2_mu = 2.4e5 there).  f - h rounded from foff - habs, as
        el_residuals formed it before, is 8.4e-11 off, a thousand times the
        1e-14 that the split form meets: foff and habs each carry an ulp of
        f(0) ~ 4.2."""
        import mpmath
        from pairboson.solver import variational_limit
        model = Model(dim=1, mass=0.5, u=0.9, v=1.0,
                      lambda_profile=gaussian_profile(1.0))
        tp = ThermoPoint(beta=8.0, mu=0.4)
        # the optimum as the solve returned it, kept as the input: how foff
        # and habs round there sets the negative control below, and later
        # solves may land some ulps away
        op = OrderPoint(4.6991326482992, 4.629228689643489)
        solved = variational_limit(model, tp).result.residual_at[2]
        assert (solved.q, solved.rho) == pytest.approx((op.q, op.rho),
                                                       rel=1e-14)
        assert sigma_gap(model, tp, op) == pytest.approx(9.3e-6, rel=0.01)
        with mpmath.workdps(40):
            q, rho = mpmath.mpf(op.q), mpmath.mpf(op.rho)
            mu, u = mpmath.mpf(tp.mu), mpmath.mpf(model.u)

            def g1(r):
                f = r * r + rho - mu
                h = u * q * mpmath.exp(-r * r)
                E = mpmath.sqrt(f * f - h * h)
                return (f * mpmath.coth(4 * E) - E) / (2 * E)

            i1 = mpmath.quad(g1, [0, 0.05, 0.2, 1, 3, mpmath.inf]) / mpmath.pi
            exact = float(rho - i1)
        assert exact == pytest.approx(1.50e-10, rel=1e-3)
        el1 = el_residuals(model, tp, op)[0]
        assert abs(el1 - exact) <= 1e-14

        # negative control: the integrand with f - h rounded from foff - habs
        foff, habs = op.rho - tp.mu, model.u * op.q

        def g1_rounded(r):
            f, h = r * r + foff, habs * np.exp(-r * r)
            E = np.sqrt((f - h) * (f + h))
            t = np.tanh(4.0 * E)
            return (h * h / (E + f) + f * (1.0 - t) / t) / (2.0 * E)

        rounded = op.rho - pressure._radial_quad(g1_rounded, 1, 0.5, 8.0, foff)
        assert abs(rounded - exact) > 1e-11

    def test_total_dq_combines_partials(self):
        # along the inner optimum grad_rho = 0, so total_dq == grad_q there;
        # here we only check it is finite and has the sign of grad_q far
        # from stationarity when grad_rho is forced small
        from pairboson.solver import inf_rho
        rho_bar, _, _ = inf_rho(MODEL, TP, OP.q, OP.eta)
        op = OrderPoint(OP.q, rho_bar, OP.eta)
        t = total_dq(MODEL, TP, OP.q, OP.eta, rho_bar)
        assert t == pytest.approx(grad_q(MODEL, TP, op), rel=1e-6, abs=1e-9)


class TestResidualsReachTheGap:
    """el_residuals reads the gap a point carries, and its tanh-sinh nodes
    reach down to r ~ 1e-275 L where the gap needs it, so its density row
    resolves the dim-2 infrared peak at any sigma the gap solve carries."""

    MODEL = Model(dim=2, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
    TP = ThermoPoint(beta=2.0, mu=0.2)
    Q = 0.77

    def _density_row(self, sigma):
        # I1 = rho - el1 at eta = 0, at a point that carries sigma
        rho = (self.TP.mu + self.MODEL.u * self.Q + sigma) / self.MODEL.v
        op = OrderPoint(self.Q, rho, 0.0, sigma)
        return op.rho - el_residuals(self.MODEL, self.TP, op)[0]

    def _radial(self, sigma, row):
        return quadrature.radial_rows(
            self.MODEL.lambda_profile, 2, 0.5, self.TP.beta, sigma,
            self.MODEL.u * self.Q, (row,))[0]

    @pytest.mark.parametrize("sigma", [1e-24, 1e-80])
    def test_density_row_matches_the_quadrature(self, sigma):
        want = self._radial(sigma, 1)
        assert self._density_row(sigma) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("sigma", [1e-160, 1e-300])
    def test_density_row_meets_the_asymptote(self, sigma):
        # below sigma0 = 1e-16 the row is I1(sigma0) + b ln(sigma0/sigma),
        # b = sigma0 I3(sigma0); the Gauss-Kronrod quadrature itself fails
        # near sigma = 1e-160, and with 8 step halvings the rule was 5e-9
        # off at 1e-300
        s0 = 1e-16
        want = (self._radial(s0, 1)
                + s0 * self._radial(s0, 3) * math.log(s0 / sigma))
        assert self._density_row(sigma) == pytest.approx(want, rel=1e-10)

    def test_span_reaches_as_far_as_the_peak_needs(self, monkeypatch):
        # t0 = -4 (r ~ 6e-38 L) at ordinary gaps, -6 only far below, and
        # at sigma = 0 the first half step that keeps beta r^2/2m normal
        starts, nodes = [], []
        de_sum = pressure._de_sum

        def traced(fn, node, lo, hi):
            starts.append(lo)
            return de_sum(lambda r: nodes.append(np.size(r)) or fn(r),
                          node, lo, hi)

        monkeypatch.setattr(pressure, "_de_sum", traced)
        for sigma, t0 in ((0.3, -4.0), (1e-30, -4.0), (1e-120, -6.0),
                          (1e-300, -6.0), (0.0, -5.0)):
            starts.clear()
            pressure._radial_quad(lambda r: np.exp(-r * r), 3, 0.5, 2.0,
                                  sigma, sigma)
            assert starts == [t0, -4.0], sigma
        # the seed-0 normal point (sigma = 0.31, q = 0): 542 nodes, where
        # the span [-6, 4] took 670
        op = OrderPoint(0.0, 0.005523073315497062, 0.0, 0.30552307331549705)
        nodes.clear()
        el_residuals(MODEL, TP, op)
        assert sum(nodes) == 542

    def test_tanh_sinh_weight_stays_in_range(self):
        # at t = -6 the nodes reach r ~ 1e-275 L, where e/(1 + e)^2 would
        # overflow in the square
        t = np.array([-6.0, 0.0, 4.0])
        with np.errstate(over="raise"):
            r, w = pressure._tanh_sinh(8.0)(t)
        assert 0.0 < r[0] < 1e-270 and r[-1] == 8.0
        assert np.isfinite(w).all() and (w > 0.0).all()


class TestOuterGradients:
    """outer_grads: (grad_rho, grad_q) from one quadrature of both rows."""

    @pytest.mark.parametrize("u", [0.5, -0.5])
    def test_matches_the_partials_and_finite_differences(self, u):
        model = Model(dim=3, mass=0.5, u=u, v=1.0,
                      lambda_profile=gaussian_profile(1.0))
        gr, gq = outer_grads(model, TP, OP)
        # each row converges to 1e-10 relative to the larger of the two
        assert gr == pytest.approx(grad_rho(model, TP, OP), rel=1e-9,
                                   abs=1e-11)
        assert gq == pytest.approx(grad_q(model, TP, OP), rel=1e-9,
                                   abs=1e-11)
        p_rho = lambda x: pressure_tl(model, TP, OrderPoint(OP.q, x, OP.eta))
        p_q = lambda x: pressure_tl(model, TP, OrderPoint(x, OP.rho, OP.eta))
        assert gr == pytest.approx(fd(p_rho, OP.rho, 1e-6), rel=1e-8)
        assert gq == pytest.approx(fd(p_q, OP.q, 1e-6), rel=1e-8)

    def test_total_dq_rejects_a_density_off_the_optimum(self):
        # at rho_bar + 0.05 grad_rho = 6.3e-2, far above the 1e-5 gate
        from pairboson.solver import inf_rho
        q, eta = 0.2, 0.05
        rho_bar, boundary, _ = inf_rho(MODEL, TP, q, eta)
        assert not boundary
        assert math.isfinite(total_dq(MODEL, TP, q, eta, rho_bar))
        with pytest.raises(StationarityViolated, match="not stationary"):
            total_dq(MODEL, TP, q, eta, rho_bar + 0.05)

    def test_total_dq_is_their_sum(self):
        from pairboson.solver import inf_rho
        rho_bar, _, _ = inf_rho(MODEL, TP, OP.q, OP.eta)
        gr, gq = outer_grads(MODEL, TP, OrderPoint(OP.q, rho_bar, OP.eta))
        assert total_dq(MODEL, TP, OP.q, OP.eta, rho_bar) == gq + gr

    def test_leaves_the_newton_mesh_alone(self):
        # an inner solve carries a rows (1,) mesh; outer gradients next to
        # the boundary, where that mesh would have to refine, use their own
        from pairboson.solver import inf_rho
        tp = ThermoPoint(beta=2.0, mu=0.4)
        with quadrature.plan_scope():
            rho_bar, _, _ = inf_rho(MODEL, tp, OP.q, OP.eta)
            plan = quadrature._PLAN.get()
            newton, = [k for k in plan if k[-1] == (1,)]
            entry = plan[newton]
            total_dq(MODEL, tp, OP.q, OP.eta, rho_bar)
            rho_lo = (tp.mu + MODEL.u * OP.q) / MODEL.v
            for margin in (1e-2, 1e-5, 1e-8):
                outer_grads(MODEL, tp, OrderPoint(OP.q, rho_lo + margin,
                                                  OP.eta))
            assert plan[newton] is entry
            assert (1, 2) in {k[-1] for k in plan}


class TestFiniteVolume:
    def test_fv_converges_to_tl(self):
        op = OrderPoint(q=0.2, rho=0.9, eta=0.1)
        prev = None
        for L in (8.0, 16.0, 32.0):
            lat = LatticeSpec(L=L, s_max=int(L))
            diff = abs(pressure_fv(MODEL, TP, op, lat)
                       - pressure_tl(MODEL, TP, op))
            if prev is not None:
                assert diff < prev / 2.0
            prev = diff

    def test_fv_modes_single_zero_mode(self):
        # one k = 0 mode: closed geometric form of the quadratic pressure
        model = Model(dim=1, mass=0.5, u=0.0, v=1.0,
                      lambda_profile=gaussian_profile(1.0))
        tp = ThermoPoint(beta=1.5, mu=-0.2)
        op = OrderPoint(q=0.0, rho=0.4, eta=0.0)
        f0 = model.v * op.rho - tp.mu
        V = 2.0
        expected = (-math.log1p(-math.exp(-tp.beta * f0)) / (tp.beta * V)
                    + model.v * op.rho ** 2 / 2.0)
        got = pressure_fv_modes(model, tp, op, [0.0], V)
        assert got == pytest.approx(expected, rel=1e-14)


def _tracer_wraps():
    """WRAPS of perfbench/tracer.py, run from its source text so that no
    bytecode is written beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         tracer.__dict__)
    return tracer.WRAPS


class TestKernels:
    @pytest.mark.parametrize("modname, attr",
                             [wrap[:2] for wrap in _tracer_wraps()],
                             ids=lambda x: x)
    def test_tracer_wraps_resolve(self, modname, attr):
        # `perfbench/run.py --trace 1` wraps each (module, name) of
        # tracer.WRAPS where its callers bind it; a deleted name breaks it
        assert callable(getattr(importlib.import_module(modname), attr))

    def test_names_the_benchmark_reads(self):
        # perfbench records BACKEND; the tracer's window count reads a
        # q_hint keyword or a fifth positional argument of outer_opt, and
        # outer_opt takes neither
        from pairboson import solver
        assert kernels.BACKEND == "numpy"
        assert quadrature.eval_rows is pressure.eval_rows is kernels.eval_rows
        assert pressure.radial_rows is solver.radial_rows is quadrature.radial_rows
        for name in ("pressure_tl", "grad_rho", "grad_q", "total_dq",
                     "el_residuals"):
            assert getattr(solver, name) is getattr(pressure, name), name
        params = inspect.signature(solver.outer_opt).parameters
        assert tuple(params) == ("model", "tp", "eta")

    def test_rows_against_naive_formulas(self):
        # moderate arguments where the textbook expressions are stable
        r = np.linspace(0.3, 3.0, 7)
        lam = np.exp(-0.5 * r * r)
        beta, inv_2m, foff, habs = 1.7, 1.0, 0.9, 0.4
        f = inv_2m * r * r + foff
        h = habs * lam
        E = np.sqrt(f * f - h * h)
        nb = 1.0 / np.expm1(beta * E)
        naive = np.stack([
            -np.log(1.0 - np.exp(-beta * E)) / beta + 0.5 * (f - E),
            nb * f / E + 0.5 * (f / E - 1.0),
            lam * lam * (nb + 0.5) / E,
            beta * nb * (nb + 1.0) * (f / E) ** 2 + (nb + 0.5) * h * h / E ** 3,
        ])
        rows = kernels.eval_rows(r, lam, 1.0 - lam, beta, inv_2m,
                                 foff - habs, habs, (0, 1, 2, 3))
        # the naive forms cancel catastrophically once values shrink, so
        # allow a small absolute floor
        np.testing.assert_allclose(rows, naive, rtol=1e-12, atol=1e-13)

    def test_large_argument_overflow_guard(self):
        rows = kernels.eval_rows(np.array([80.0]), np.array([0.0]),
                                 np.array([1.0]), 10.0, 1.0, 0.5, 0.0,
                                 (0, 1, 2, 3))
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize("subset", [
        s for n in range(1, 5) for s in itertools.combinations(range(4), n)])
    def test_rows_on_demand(self, subset):
        # the x >= 700 branch of n_B included; exactly the rows asked for
        # come back, in the order asked
        r = np.concatenate([np.linspace(0.0, 6.0, 40), [80.0]])
        lam = np.exp(-0.5 * r * r)
        args = (r, lam, -np.expm1(-0.5 * r * r), 1.7, 1.0, 0.5, 0.4)
        full = kernels.eval_rows(*args, (0, 1, 2, 3))
        for order in (subset, subset[::-1]):
            part = kernels.eval_rows(*args, order)
            assert part.shape == (len(order), len(r))
            assert np.array_equal(part, full[list(order)])

    @given(beta=st.floats(0.1, 20.0), foff=st.floats(0.05, 5.0),
           hfrac=st.floats(0.0, 0.95), r=st.floats(0.0, 60.0))
    @settings(max_examples=120, deadline=None)
    def test_rows_finite_and_positive(self, beta, foff, hfrac, r):
        lam = np.array([math.exp(-r * r)])
        habs = hfrac * foff  # keeps f > |h| everywhere
        rows = kernels.eval_rows(np.array([r]), lam, 1.0 - lam, beta, 1.0,
                                 foff - habs, habs, (0, 1, 2, 3))
        assert np.all(np.isfinite(rows))
        assert np.all(rows >= 0.0)
