"""Acceptance suite: ten independently checkable correctness criteria.

Each test prints one PASS/FAIL line with its measured figure of merit, then
asserts.  Tolerances are pinned; reference values come from finite
differences, closed-form series, brute-force truncated-trace computations
and re-solves — never from the code paths under test.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import zeta

from pairboson.model import (
    Model, LatticeSpec, gaussian_profile, delta_profile,
)
from pairboson.pressure import (
    ThermoPoint, OrderPoint, pressure_tl, pressure_fv, pressure_fv_modes,
    grad_rho, grad_q, d_mu, d2_mu, el_residuals,
)
from pairboson.solver import (
    eta_continuation, classify_phase, critical_density, mf_pressure,
    PHASE_CONDENSED,
)
from pairboson.oracle import (
    FockSpec, build_hamiltonian, trace_pressure,
    check_superstability, check_variational_chain,
)

DATA = Path(__file__).parent / "data"

MODES = ((0.0,), (1.0,), (-1.0,))
DESK_MODEL = Model(dim=1, mass=0.5, u=0.5, v=1.0,
                   lambda_profile=gaussian_profile(0.5))
DESK_TP = ThermoPoint(beta=1.0, mu=-0.4)
DESK_V = 3.0


def report(num, name, passed, detail):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'}: {name} ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_gradient_suite():
    """grad_rho, grad_q, d_mu, d2_mu vs central finite differences."""
    rng = np.random.default_rng(20260826)
    model = Model(dim=3, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
    worst = 0.0
    for _ in range(20):
        beta = rng.uniform(0.5, 3.0)
        mu = rng.uniform(-1.0, 0.5)
        q = rng.uniform(0.01, 0.8)  # keep q - 2h >= 0 for the stencil
        eta = rng.uniform(0.01, 0.3)
        # keep sigma = v rho - mu - |u| q comfortably positive
        rho = max(0.0, (mu + abs(model.u) * q) / model.v) + rng.uniform(0.2, 1.0)
        tp = ThermoPoint(beta=beta, mu=mu)
        op = OrderPoint(q=q, rho=rho, eta=eta)
        h = 1e-3

        p_rho = lambda x: pressure_tl(model, tp, OrderPoint(q, x, eta))
        p_q = lambda x: pressure_tl(model, tp, OrderPoint(x, rho, eta))
        p_mu = lambda x: pressure_tl(model, ThermoPoint(beta, x), op)

        def d1(f, x):
            # five-point first derivative: O(h^4) truncation, and h large
            # enough that subtraction roundoff stays near 1e-13
            return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h)
                    - f(x + 2 * h)) / (12 * h)

        def d2(f, x):
            return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
                    + 16 * f(x + h) - f(x + 2 * h)) / (12 * h ** 2)

        pairs = [
            (grad_rho(model, tp, op), d1(p_rho, rho)),
            (grad_q(model, tp, op), d1(p_q, q)),
            (d_mu(model, tp, op), d1(p_mu, mu)),
            (d2_mu(model, tp, op), d2(p_mu, mu)),
        ]
        for got, ref in pairs:
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-12))
    report(1, "gradient suite vs finite differences", worst <= 1e-6,
           f"worst relative error {worst:.3e}, tol 1e-6, 20 points")


def test_criterion_02_closed_form_vs_trace():
    """Finite-volume closed form vs truncated-Fock trace pressure, both
    signs of u."""
    q, rho, eta = 0.3, 0.8, 0.2
    model_neg = Model(dim=1, mass=0.5, u=-0.5, v=1.0,
                      lambda_profile=gaussian_profile(0.5))
    ok, details = True, []
    for model in (DESK_MODEL, model_neg):
        closed = pressure_fv_modes(model, DESK_TP, OrderPoint(q, rho, eta),
                                   [0.0, 1.0, 1.0], DESK_V)
        errs = []
        for n_max in (6, 9, 12):
            spec = FockSpec(modes=MODES, n_max=n_max)
            ptr = trace_pressure(
                build_hamiltonian(spec, "approx2", model, DESK_V,
                                  q=q, rho=rho, eta=eta), spec, DESK_TP, DESK_V)
            errs.append(abs(ptr - closed) / abs(closed))
        ok = ok and errs[0] > errs[1] > errs[2] and errs[2] <= 1e-4
        details.append(f"u={model.u}: {errs[0]:.2e} > {errs[1]:.2e} > "
                       f"{errs[2]:.2e}")
    report(2, "closed form vs trace oracle", ok,
           "relative errors " + "; ".join(details) + ", tol 1e-4 at n_max=12")


def test_criterion_03_inequality_chain():
    """Trace-pressure inequality chain on an 8x8 grid, both signs of u."""
    spec = FockSpec(modes=MODES, n_max=6)
    q_grid = np.linspace(0.0, 0.8, 8)
    rho_grid = np.linspace(0.1, 1.5, 8)
    rep_pos = check_variational_chain(spec, DESK_MODEL, DESK_TP, DESK_V,
                                      q_grid, rho_grid, eta=0.2)
    model_neg = Model(dim=1, mass=0.5, u=-0.5, v=1.0,
                      lambda_profile=gaussian_profile(0.5))
    rep_neg = check_variational_chain(spec, model_neg, DESK_TP, DESK_V,
                                      q_grid, rho_grid, eta=0.2)
    slacks = (rep_pos["min_slack_full_vs_approx1"],
              rep_pos["min_slack_approx2_vs_approx1"],
              rep_neg["min_slack_full_vs_approx1"],
              rep_neg["min_slack_approx2_vs_approx1"])
    ok = rep_pos["passed"] and rep_neg["passed"] and min(slacks) >= -1e-10
    report(3, "finite-volume inequality chain", ok,
           f"min slack {min(slacks):.3e} over 2x64 grid points, tol -1e-10")


def test_criterion_04_superstability():
    """Pair-operator bound and quartic lower bound as matrix inequalities."""
    spec = FockSpec(modes=MODES, n_max=6)
    model_neg = Model(dim=1, mass=0.5, u=-0.5, v=1.0,
                      lambda_profile=gaussian_profile(0.5))
    delta_spec = FockSpec(modes=((0.0,),), n_max=10)
    delta_model = Model(dim=1, mass=0.5, u=0.5, v=1.0,
                        lambda_profile=delta_profile())
    reps = [check_superstability(spec, DESK_MODEL, DESK_V),
            check_superstability(spec, model_neg, DESK_V),
            check_superstability(delta_spec, delta_model, 2.0)]
    min_eig = min(min(r["min_eig_pair_bound"], r["min_eig_quartic_bound"])
                  for r in reps)
    ok = all(r["passed"] for r in reps)
    report(4, "superstability bounds", ok,
           f"min eigenvalue {min_eig:.3e} over 3 instances, tol -1e-10")


def test_criterion_05_euler_lagrange():
    """Converged solves have machine-small stationarity residuals."""
    model = Model(dim=3, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
    worst_res = 0.0
    worst_agree = 0.0
    for beta, mu in ((2.0, 1.0), (1.0, -0.5), (2.0, 0.1)):
        tp = ThermoPoint(beta=beta, mu=mu)
        cont = eta_continuation(model, tp, eta0=0.1, floor=1e-6)
        for res in cont.results:
            worst_res = max(worst_res, abs(res.residual_el1),
                            abs(res.residual_el2))
            op = OrderPoint(res.q_bar, res.rho_bar, res.eta)
            r1, r2 = el_residuals(model, tp, op)
            worst_agree = max(
                worst_agree,
                abs(r1 - grad_rho(model, tp, op) / model.v),
                abs(r2 + grad_q(model, tp, op) / model.u))
    ok = worst_res <= 1e-8 and worst_agree <= 1e-10
    report(5, "Euler-Lagrange consistency", ok,
           f"max residual {worst_res:.3e} tol 1e-8; derivative agreement "
           f"{worst_agree:.3e} tol 1e-10")


def test_criterion_06_mean_field_reduction():
    """u <= 0 continuation reproduces the mean-field pressure."""
    worst_p = 0.0
    worst_q = 0.0
    bound_ok = True
    for u in (0.0, -0.5):
        model = Model(dim=3, mass=0.5, u=u, v=1.0,
                      lambda_profile=gaussian_profile(1.0))
        # five points spanning both sides of mu = v rho_c(beta)
        for beta, mu in ((2.0, -0.5), (2.0, -0.05), (2.0, 0.05),
                         (2.0, 0.5), (1.0, 0.2)):
            tp = ThermoPoint(beta=beta, mu=mu)
            cont = eta_continuation(model, tp, eta0=0.1, floor=1e-6)
            worst_p = max(worst_p,
                          abs(cont.p_limit - mf_pressure(model, tp)))
            worst_q = max(worst_q, cont.q_limit)
            if u < 0:
                w = -u
                for res in cont.results:
                    if res.q_bar >= (res.eta ** 2 / (2 * w)) ** (1 / 3):
                        bound_ok = False
    ok = worst_p <= 1e-8 and worst_q <= 1e-6 and bound_ok
    report(6, "mean-field reduction for u <= 0", ok,
           f"max |p - p_mf| {worst_p:.3e} tol 1e-8; max q_limit "
           f"{worst_q:.3e} tol 1e-6; pairing bound held: {bound_ok}")


def test_criterion_07_gaplessness():
    """Condensed phase: the excitation gap closes as eta -> 0."""
    model = Model(dim=3, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
    tp = ThermoPoint(beta=2.0, mu=1.0)
    cont = eta_continuation(model, tp, eta0=0.1, floor=1e-6)
    gaps = [r.gap for r in cont.results]
    monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    condensed = (classify_phase(model, tp, cont) == PHASE_CONDENSED
                 and cont.m0 > 1e-3)
    ok = condensed and monotone and cont.gap_limit <= 1e-4
    report(7, "gaplessness in the condensed phase", ok,
           f"gap(eta) monotone: {monotone}; extrapolated gap "
           f"{cont.gap_limit:.3e} tol 1e-4; m0 = {cont.m0:.4f}")


def test_criterion_08_critical_density():
    """critical_density matches zeta(3/2) (m / 2 pi beta)^(3/2)."""
    model = Model(dim=3, mass=0.5, u=0.0, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
    worst = 0.0
    for beta in (0.5, 1.0, 2.0, 4.0):
        expected = zeta(1.5) * (model.mass / (2 * math.pi * beta)) ** 1.5
        got = critical_density(model, beta)
        worst = max(worst, abs(got - expected) / expected)
    # scaling law rho_c ~ beta^(-3/2)
    ratio = critical_density(model, 1.0) / critical_density(model, 4.0)
    scaling = abs(ratio - 8.0) / 8.0
    ok = worst <= 1e-8 and scaling <= 1e-8
    report(8, "critical density closed form", ok,
           f"worst relative error {worst:.3e} tol 1e-8; beta^-3/2 scaling "
           f"deviation {scaling:.3e}")


def test_criterion_09_finite_volume_convergence():
    """|pressure_fv - pressure_tl| halves (at least) per doubling of L.

    The lattice sum of a Gaussian profile converges faster than any power
    of L, so by L = 32 the difference is rounding: there it must be within
    4 ulp of p, and the ratios are taken on L = 4, 8, 16."""
    model = Model(dim=3, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
    tp = ThermoPoint(beta=2.0, mu=-0.3)
    op = OrderPoint(q=0.2, rho=0.9, eta=0.1)
    assert model.v * op.rho - tp.mu - abs(model.u) * op.q >= 0.5
    p_inf = pressure_tl(model, tp, op)
    diffs = []
    for L in (4.0, 8.0, 16.0, 32.0):
        lat = LatticeSpec(L=L, s_max=int(L))
        diffs.append(abs(pressure_fv(model, tp, op, lat) - p_inf))
    ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
    rounding = 4.0 * np.spacing(abs(p_inf))
    ok = all(r >= 2.0 for r in ratios) and diffs[3] <= rounding
    report(9, "finite-volume convergence", ok,
           "error ratios per doubling "
           + ", ".join(f"{r:.1f}" for r in ratios) + ", tol >= 2.0 each; "
           f"L = 32 off by {diffs[3]:.1e}, tol {rounding:.1e}")


def test_criterion_10_scan_determinism(tmp_path):
    """cmd_scan output is byte-identical across runs and thread counts."""
    cfg = str(DATA / "scan_example.ini")
    blobs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"scan_{tag}.csv"
        env = dict(os.environ, PBH_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "pairboson.cli", "scan",
             "--config", cfg, "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    report(10, "scan determinism", ok,
           f"3 runs (PBH_THREADS=1,1,4), {len(blobs[0])} bytes each, "
           "byte-identical")
