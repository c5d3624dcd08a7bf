"""Tests for the thermodynamic-limit pressure and its derivatives.

Reference values come from independent oracles: central finite differences
of pressure_tl, a brute-force Riemann sum over momentum space, and the
scalar-quadrature residual path.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairboson.errors import InfeasiblePoint
from pairboson import kernels, pressure, quadrature
from pairboson.model import Model, LatticeSpec, gaussian_profile
from pairboson.pressure import (
    ThermoPoint, OrderPoint, sigma_gap, feasible, source_terms,
    pressure_tl, pressure_fv, pressure_fv_modes,
    grad_rho, grad_q, total_dq, d_mu, d2_mu, el_residuals,
)

MODEL = Model(dim=3, mass=0.5, u=0.5, v=1.0,
              lambda_profile=gaussian_profile(1.0))
TP = ThermoPoint(beta=2.0, mu=-0.3)
OP = OrderPoint(q=0.4, rho=0.9, eta=0.15)


def fd(fun, x, h):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


class TestFeasibility:
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


class TestResiduals:
    def test_residual_identities(self):
        # r1 = grad_rho / v and r2 = -grad_q / u, via independent quadrature
        r1, r2 = el_residuals(MODEL, TP, OP)
        assert r1 == pytest.approx(grad_rho(MODEL, TP, OP) / MODEL.v,
                                   rel=1e-10, abs=1e-12)
        assert r2 == pytest.approx(-grad_q(MODEL, TP, OP) / MODEL.u,
                                   rel=1e-10, abs=1e-12)

    def test_total_dq_combines_partials(self):
        # along the inner optimum grad_rho = 0, so total_dq == grad_q there;
        # here we only check it is finite and has the sign of grad_q far
        # from stationarity when grad_rho is forced small
        from pairboson.solver import inf_rho
        rho_bar, _, _ = inf_rho(MODEL, TP, OP.q, OP.eta, None)
        op = OrderPoint(OP.q, rho_bar, OP.eta)
        t = total_dq(MODEL, TP, OP.q, OP.eta, rho_bar, None)
        assert t == pytest.approx(grad_q(MODEL, TP, op), rel=1e-6, abs=1e-9)


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


class TestKernels:
    def test_names_the_benchmark_reads(self):
        # perfbench records BACKEND and wraps eval_rows where callers bind it
        assert kernels.BACKEND == "numpy"
        assert quadrature.eval_rows is pressure.eval_rows is kernels.eval_rows

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
        rows = kernels.eval_rows(r, lam, beta, inv_2m, foff, habs)
        # the naive forms cancel catastrophically once values shrink, so
        # allow a small absolute floor
        np.testing.assert_allclose(rows, naive, rtol=1e-12, atol=1e-13)

    def test_large_argument_overflow_guard(self):
        rows = kernels.eval_rows(np.array([80.0]), np.array([0.0]),
                                 10.0, 1.0, 0.5, 0.0)
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize("subset", [
        s for n in range(1, 5) for s in itertools.combinations(range(4), n)])
    def test_rows_on_demand(self, subset):
        # the x >= 700 branch of n_B included
        r = np.concatenate([np.linspace(0.0, 6.0, 40), [80.0]])
        lam = np.exp(-0.5 * r * r)
        args = (r, lam, 1.7, 1.0, 0.9, 0.4)
        full = kernels.eval_rows(*args)
        part = kernels.eval_rows(*args, rows=subset)
        skipped = [i for i in range(4) if i not in subset]
        assert np.array_equal(part[list(subset)], full[list(subset)])
        assert np.isnan(part[skipped]).all()

    @given(beta=st.floats(0.1, 20.0), foff=st.floats(0.05, 5.0),
           hfrac=st.floats(0.0, 0.95), r=st.floats(0.0, 60.0))
    @settings(max_examples=120, deadline=None)
    def test_rows_finite_and_positive(self, beta, foff, hfrac, r):
        lam = np.array([math.exp(-r * r)])
        habs = hfrac * foff  # keeps f > |h| everywhere
        rows = kernels.eval_rows(np.array([r]), lam, beta, 1.0, foff, habs)
        assert np.all(np.isfinite(rows))
        assert np.all(rows >= 0.0)
