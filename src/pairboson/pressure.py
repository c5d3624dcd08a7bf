"""Approximating pressure of the pair boson model and its derivatives.

The quadratic approximant at variational point (q, rho) with zero-mode source
eta has Bogoliubov spectrum E(k) = sqrt(f^2 - |h|^2), f = eps(k) - mu + v rho,
|h| = |u| q |lambda(k)|.  Its pressure in the thermodynamic limit is

  p(q, rho, eta) = int d^nu k/(2 pi)^nu { -(1/beta) ln(1 - e^{-beta E})
                   - (E - f)/2 } + eta^2 / (v rho - mu - u q)
                   - u q^2 / 2 + v rho^2 / 2,

finite exactly when the feasibility gap sigma = v rho - mu - |u| q is
nonnegative and, for eta > 0, the source denominator
sigma~ = v rho - mu - u q is positive.  `feasible` and `source_terms` are
the one home of that rule and of the source term's mu-derivatives; every
other function here and the solver go through them.  Everything here is a
pure function; the finite-volume variant replaces the integral by a lattice
sum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import InfeasiblePoint, ModelError
from .kernels import eval_rows
from .model import LatticeSpec, Model, lattice_norms
from .quadrature import QuadratureConfig, radial_rows

__all__ = [
    "ThermoPoint", "OrderPoint", "QuadratureConfig", "sigma_gap",
    "feasible", "source_terms", "excitation_energy", "pressure_tl",
    "pressure_fv",
    "pressure_fv_modes", "grad_rho", "grad_rho_slope", "grad_q", "total_dq",
    "d_mu", "d2_mu", "el_residuals",
]


@dataclass(frozen=True)
class ThermoPoint:
    """Grand-canonical state point (inverse temperature, chemical potential)."""

    beta: float
    mu: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ModelError("beta must be positive")


@dataclass(frozen=True)
class OrderPoint:
    """Variational pair (q, rho) plus source strength eta.

    Gauge convention: eta real >= 0 and the pair phase absorbed, so q is a
    nonnegative magnitude throughout.
    """

    q: float = 0.0
    rho: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        if self.q < 0 or self.rho < 0 or self.eta < 0:
            raise ValueError("q, rho and eta must be nonnegative")


def sigma_gap(model: Model, tp: ThermoPoint, op: OrderPoint) -> float:
    """Feasibility gap sigma = v rho - mu - |u| q = inf_k (f - |h|)."""
    return model.v * op.rho - tp.mu - abs(model.u) * op.q


def _sigma_tilde(model: Model, tp: ThermoPoint, op: OrderPoint) -> float:
    """Source denominator f(0, rho) - u q (equals sigma for u >= 0)."""
    return model.v * op.rho - tp.mu - model.u * op.q


def feasible(model: Model, tp: ThermoPoint, op: OrderPoint) -> bool:
    """Whether pressure_tl is finite at op: sigma >= 0, and sigma~ > 0 if eta > 0."""
    return (sigma_gap(model, tp, op) >= 0
            and (op.eta == 0.0 or _sigma_tilde(model, tp, op) > 0))


def source_terms(model: Model, tp: ThermoPoint, op: OrderPoint):
    """The source term eta^2/sigma~ and its first two mu-derivatives,
    (eta^2/sigma~, eta^2/sigma~^2, 2 eta^2/sigma~^3); zeros at eta = 0.

    Raises InfeasiblePoint exactly where `feasible` is False.
    """
    sg = sigma_gap(model, tp, op)
    if sg < 0:
        raise InfeasiblePoint(f"feasibility gap sigma = {sg} < 0")
    if op.eta == 0.0:
        return 0.0, 0.0, 0.0
    st = _sigma_tilde(model, tp, op)
    if st <= 0:
        raise InfeasiblePoint(f"source denominator f(0) - u q = {st} <= 0")
    return op.eta ** 2 / st, op.eta ** 2 / st ** 2, 2.0 * op.eta ** 2 / st ** 3


def excitation_energy(model: Model, tp: ThermoPoint, q: float, rho: float,
                      r: float) -> float:
    """Bogoliubov energy E(k) = sqrt(f^2 - |h|^2) at ||k|| = r, clipped at 0."""
    f = r * r / (2.0 * model.mass) - tp.mu + model.v * rho
    h = abs(model.u) * q * abs(float(model.lambda_profile.value_radial(r)))
    return math.sqrt(max(f * f - h * h, 0.0))


def _rows(model, tp, op, cfg, need=(0, 1, 2, 3), rows=None):
    """The radial integrals shared by the pressure and its derivatives."""
    foff = model.v * op.rho - tp.mu
    habs = abs(model.u) * op.q
    return radial_rows(model.lambda_profile, model.dim, model.mass, tp.beta,
                       foff, habs, cfg, need=need, rows=rows)


def pressure_tl(model: Model, tp: ThermoPoint, op: OrderPoint,
                quad_cfg: QuadratureConfig | None = None) -> float:
    """Thermodynamic-limit pressure of the quadratic approximant."""
    src = source_terms(model, tp, op)[0]
    ip = _rows(model, tp, op, quad_cfg, need=(0,))[0]
    return float(ip + src
                 - model.u * op.q ** 2 / 2.0 + model.v * op.rho ** 2 / 2.0)


def pressure_fv_modes(model: Model, tp: ThermoPoint, op: OrderPoint,
                      norms, V: float) -> float:
    """Finite-volume pressure from an explicit list of mode radii ||k||.

    The volume V is independent of the mode list so the same closed form
    serves both the box lattice and small exact-diagonalization instances.
    """
    sg = sigma_gap(model, tp, op)
    if sg <= 0:
        raise InfeasiblePoint(f"sigma = {sg} <= 0: finite-volume pressure infinite")
    src = source_terms(model, tp, op)[0]
    norms = np.asarray(norms, dtype=float)
    lam = model.lambda_profile.value_radial(norms)
    foff = model.v * op.rho - tp.mu
    habs = abs(model.u) * op.q
    rows = eval_rows(norms, lam, tp.beta, 0.5 / model.mass, foff, habs,
                     rows=(0,))
    return float(rows[0].sum() / V + src
                 - model.u * op.q ** 2 / 2.0 + model.v * op.rho ** 2 / 2.0)


def pressure_fv(model: Model, tp: ThermoPoint, op: OrderPoint,
                lat: LatticeSpec) -> float:
    """Pressure of the quadratic approximant in a finite box."""
    return pressure_fv_modes(model, tp, op, lattice_norms(model, lat),
                             lat.volume(model.dim))


def grad_rho_slope(model: Model, tp: ThermoPoint, op: OrderPoint,
                   quad_cfg: QuadratureConfig | None = None):
    """grad_rho and its rho-derivative v (v d2_mu + 1), from one quadrature.

    Only the density row is converged; the curvature row comes at whatever
    accuracy its mesh gave it (it diverges at sigma = 0 for nu <= 3), so the
    slope is fit to propose Newton steps, not to be reported.
    """
    _, src, d2_src = source_terms(model, tp, op)
    rows = _rows(model, tp, op, quad_cfg, need=(1,), rows=(1, 3))
    v = model.v
    return (float(-v * (rows[1] + src) + v * op.rho),
            float(v * (v * (rows[3] + d2_src) + 1.0)))


def grad_rho(model: Model, tp: ThermoPoint, op: OrderPoint,
             quad_cfg: QuadratureConfig | None = None) -> float:
    """Partial derivative of pressure_tl with respect to rho."""
    return grad_rho_slope(model, tp, op, quad_cfg)[0]


def grad_q(model: Model, tp: ThermoPoint, op: OrderPoint,
           quad_cfg: QuadratureConfig | None = None) -> float:
    """Partial derivative of pressure_tl with respect to q."""
    src = source_terms(model, tp, op)[1]
    iq = _rows(model, tp, op, quad_cfg, need=(2,))[2]
    return float(model.u ** 2 * op.q * iq + model.u * src - model.u * op.q)


def total_dq(model: Model, tp: ThermoPoint, q: float, eta: float,
             rho_bar: float, quad_cfg: QuadratureConfig | None = None,
             stat_tol: float = 1e-8) -> float:
    """Total q-derivative along the constrained density path rho_bar(q).

    Because rho_bar is a stationary point of the inner minimization, the
    total derivative reduces to the partial one; the grad_rho term only
    carries the stationarity residual.
    """
    from .errors import StationarityViolated

    op = OrderPoint(q=q, rho=rho_bar, eta=eta)
    gr = grad_rho(model, tp, op, quad_cfg)
    if abs(gr) > 10.0 * stat_tol:
        raise StationarityViolated(
            f"rho_bar is not stationary: grad_rho = {gr:.3e}")
    return float(grad_q(model, tp, op, quad_cfg) + gr)


def d_mu(model: Model, tp: ThermoPoint, op: OrderPoint,
         quad_cfg: QuadratureConfig | None = None) -> float:
    """Partial derivative of pressure_tl with respect to mu (the density).

    The source coefficient is 1, not the printed v; finite differences agree.
    """
    src = source_terms(model, tp, op)[1]
    ife = _rows(model, tp, op, quad_cfg, need=(1,))[1]
    return float(ife + src)


def d2_mu(model: Model, tp: ThermoPoint, op: OrderPoint,
          quad_cfg: QuadratureConfig | None = None) -> float:
    """Second mu-derivative of pressure_tl (compressibility; nonnegative)."""
    src = source_terms(model, tp, op)[2]
    id2 = _rows(model, tp, op, quad_cfg, need=(3,))[3]
    return float(id2 + src)


def _radial_quad(g, nu, mass, beta, foff):
    """Scalar adaptive quadrature used only by the stationarity residuals.

    Deliberately a separate code path from the batched kernel: the residual
    check is meant to validate the gradients, so it must not share their
    integrator.
    """
    c_nu = 2.0 * math.pi ** (nu / 2.0) / math.gamma(nu / 2.0) / (2.0 * math.pi) ** nu
    scale = math.sqrt(2.0 * mass * max(1.0 / beta, abs(foff), 1.0))
    with warnings.catch_warnings():
        # boundary-grazing integrands trip the roundoff heuristic; the
        # returned value is still the best attainable and is checked by tests
        warnings.simplefilter("ignore", IntegrationWarning)
        val1, _ = quad(lambda r: c_nu * r ** (nu - 1) * g(r), 0.0, 8.0 * scale,
                       epsabs=1e-13, epsrel=1e-12, limit=400)
        val2, _ = quad(lambda r: c_nu * r ** (nu - 1) * g(r), 8.0 * scale,
                       np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return val1 + val2


def el_residuals(model: Model, tp: ThermoPoint, op: OrderPoint,
                 quad_cfg: QuadratureConfig | None = None):
    """Residuals of the two stationarity equations at (q, rho, eta).

    r1 = rho - (1/2) int {(f/E) coth(beta E/2) - 1} - eta^2/(f(0)-u q)^2
    r2 = q - (u q/2) int (lam^2/E) coth(beta E/2) - eta^2/(f(0)-u q)^2

    Both vanish at an interior optimum.  Algebraically r1 = grad_rho / v and
    r2 = -grad_q / u, but the integrals here are evaluated with an
    independent scalar integrator in coth form.
    """
    src = source_terms(model, tp, op)[1]
    foff = model.v * op.rho - tp.mu
    habs = abs(model.u) * op.q
    inv_2m = 0.5 / model.mass
    prof = model.lambda_profile
    beta = tp.beta

    def spec_at(r):
        lam = float(prof.value_radial(r))
        f = inv_2m * r * r + foff
        h = habs * lam
        E = math.sqrt(max((f - h) * (f + h), 0.0))
        return f, h, E, lam

    def g1(r):
        f, h, E, _ = spec_at(r)
        if E == 0.0:
            return 0.0
        t = math.tanh(beta * E / 2.0)
        # (f coth - E)/(2E), written to avoid the large-r cancellation
        return (h * h / (E + f) + f * (1.0 - t) / t) / (2.0 * E)

    def g2(r):
        f, h, E, lam = spec_at(r)
        if E == 0.0:
            return 0.0
        return lam * lam / (2.0 * E * math.tanh(beta * E / 2.0))

    i1 = _radial_quad(g1, model.dim, model.mass, beta, foff)
    r1 = op.rho - i1 - src
    if op.q == 0.0:
        r2 = -src
    else:
        i2 = _radial_quad(g2, model.dim, model.mass, beta, foff)
        r2 = op.q - model.u * op.q * i2 - src
    return float(r1), float(r2)
