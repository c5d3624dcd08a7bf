"""Approximating pressure of the pair boson model and its derivatives.

The quadratic approximant at variational point (q, rho) with zero-mode source
eta has Bogoliubov spectrum E(k) = sqrt(f^2 - |h|^2), f = eps(k) - mu + v rho,
|h| = |u| q |lambda(k)|.  Its pressure in the thermodynamic limit is

  p(q, rho, eta) = int d^nu k/(2 pi)^nu { -(1/beta) ln(1 - e^{-beta E})
                   - (E - f)/2 } + eta^2 / (v rho - mu - u q)
                   - u q^2 / 2 + v rho^2 / 2,

finite exactly when the feasibility gap sigma = v rho - mu - |u| q is
nonnegative and, for eta > 0, the source denominator
sigma~ = v rho - mu - u q = sigma + (|u| - u) q is positive.  `sigma_gap`
is the one home of sigma: every row the kernel integrates reads it there,
and an `OrderPoint` may carry it when it lies below rho's float
resolution; the solver's points always do, at every eta, and the source
term forms sigma~ from it.  `feasible` and `source_terms` are the one home
of the feasibility rule and of the source term's mu-derivatives; every
other function here and the solver go through them.  The inner density
solve reads `grad_rho_slope`, and `outer_grads` (both partials from one
quadrature) for its boundary test; the outer q search reads
`outer_grads`, and `total_dq` as `stationary_dq` of them.
Where the pair field vanishes (q = 0 or u = 0) the
approximant is the ideal Bose gas, and the rows without lambda^2 are its
Bose functions in closed form (`bose.ideal_rows`).  Everything here is a
pure function; the finite-volume variant replaces the integral by a
lattice sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bose import IDEAL_ROWS, ideal_rows
from .errors import InfeasiblePoint, ModelError, StationarityViolated
from .kernels import eval_rows
from .model import LatticeSpec, Model, lattice_norms
from .quadrature import radial_rows

__all__ = [
    "ThermoPoint", "OrderPoint", "sigma_gap",
    "feasible", "source_terms", "excitation_energy", "pressure_tl",
    "pressure_fv",
    "pressure_fv_modes", "grad_rho", "grad_rho_slope", "grad_q", "outer_grads",
    "total_dq", "stationary_dq",
    "d_mu", "d2_mu", "el_residuals",
]


@dataclass(frozen=True)
class ThermoPoint:
    """Grand-canonical state point (inverse temperature, chemical potential).

    mu may also be an array, each point's mu of a batch at one beta: a scan
    row's points, whose requests go to the pressure functions together
    (`solver._evaluate`).  Every such point carries its gap, which is all
    the rows and the source term read of mu.
    """

    beta: float
    mu: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ModelError("beta must be positive")


@dataclass(frozen=True)
class OrderPoint:
    """Variational pair (q, rho) plus source strength eta, and optionally
    the feasibility gap sigma itself.

    Gauge convention: eta real >= 0 and the pair phase absorbed, so q is a
    nonnegative magnitude throughout.  q and rho may also be arrays of
    equal length, a batch of points at one eta, which `pressure_tl`,
    `grad_rho_slope`, `outer_grads` and `d2_mu` evaluate in one
    quadrature.

    sigma, when given, is v rho - mu - |u| q to full relative precision:
    the solver's inner solve iterates on the gap and carries it here, at
    every eta, since rho = (mu + |u| q + sigma)/v rounds away a sigma
    below an ulp of rho.  The source denominator sigma~ is formed from it
    too.  Without it `sigma_gap` forms it from rho.
    """

    q: float = 0.0
    rho: float = 0.0
    eta: float = 0.0
    sigma: float = None

    def __post_init__(self):
        if _least(self.q) < 0 or _least(self.rho) < 0 or self.eta < 0:
            raise ModelError("q, rho and eta must be nonnegative")
        if self.sigma is not None and not _least(self.sigma) >= 0:
            raise ModelError("a carried gap sigma must be nonnegative")


def _least(x):
    """x, or its smallest entry if x is an array of points."""
    return x.min() if isinstance(x, np.ndarray) else x


def _real(x):
    """x as a float at one point, as the array at a batch."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def sigma_gap(model: Model, tp: ThermoPoint, op: OrderPoint,
              rounded_once: bool = False) -> float:
    """Feasibility gap sigma = v rho - mu - |u| q = inf_k (f - |h|).

    The gap the point carries, if any.  Else it is formed from rho in float
    arithmetic, elementwise at a batch; or, with rounded_once (one point
    only: the residual check's reading of it), as the exact value of
    v rho - mu - |u| q at the float inputs, rounded once.  Near sigma = 0
    that matters: v rho and |u| q each carry an ulp of f(0), a large part
    of sigma there."""
    if op.sigma is not None:
        return op.sigma
    if rounded_once:
        return _rounded_once((model.v, op.rho), (-1.0, tp.mu),
                             (-abs(model.u), op.q))
    return model.v * op.rho - tp.mu - abs(model.u) * op.q


def _rounded_once(*pairs) -> float:
    """sum of x y over the float pairs (x, y), rounded once: a float is a
    dyadic rational, and int / int rounds correctly."""
    terms = [(a * c, b * d) for (a, b), (c, d) in
             ((x.as_integer_ratio(), y.as_integer_ratio()) for x, y in pairs)]
    den = max(d for _, d in terms)      # every denominator a power of two
    return sum(n * (den // d) for n, d in terms) / den


def _sigma_tilde(model: Model, tp: ThermoPoint, op: OrderPoint) -> float:
    """Source denominator f(0, rho) - u q = sigma + (|u| - u) q (equals
    sigma for u >= 0): from the gap the point carries, if any, so that it
    keeps sigma's digits, else formed from rho."""
    if op.sigma is not None:
        return op.sigma + (abs(model.u) - model.u) * op.q
    return model.v * op.rho - tp.mu - model.u * op.q


def feasible(model: Model, tp: ThermoPoint, op: OrderPoint) -> bool:
    """Whether pressure_tl is finite at op: sigma >= 0, and sigma~ > 0 if eta > 0."""
    return (sigma_gap(model, tp, op) >= 0
            and (op.eta == 0.0 or _sigma_tilde(model, tp, op) > 0))


def source_terms(model: Model, tp: ThermoPoint, op: OrderPoint):
    """The source term eta^2/sigma~ and its first two mu-derivatives,
    (eta^2/sigma~, eta^2/sigma~^2, 2 eta^2/sigma~^3); zeros at eta = 0.

    Raises InfeasiblePoint exactly where `feasible` is False, at a batch
    where it is False at any point.
    """
    sg = _least(sigma_gap(model, tp, op))
    if sg < 0:
        raise InfeasiblePoint(f"feasibility gap sigma = {sg} < 0")
    if op.eta == 0.0:
        return 0.0, 0.0, 0.0
    st = _sigma_tilde(model, tp, op)
    if _least(st) <= 0:
        raise InfeasiblePoint(
            f"source denominator f(0) - u q = {_least(st)} <= 0")
    return op.eta ** 2 / st, op.eta ** 2 / st ** 2, 2.0 * op.eta ** 2 / st ** 3


def excitation_energy(model: Model, tp: ThermoPoint, op: OrderPoint,
                      r: float) -> float:
    """Bogoliubov energy E(k) = sqrt((f - |h|)(f + |h|)) at ||k|| = r, both
    factors summed from sigma as in `kernels.eval_rows`: E(0) is
    sqrt(sigma (sigma + 2 |u| q)) to full relative precision."""
    prof = model.lambda_profile
    kin = r * r / (2.0 * model.mass)
    sigma = max(float(sigma_gap(model, tp, op)), 0.0)
    habs = abs(model.u) * op.q
    lam = float(prof.value_radial(r))
    return math.sqrt((kin + sigma + habs * float(prof.complement_radial(r)))
                     * (kin + sigma + habs + habs * lam))


def _rows(model, tp, op, rows, extra=()):
    """The radial integrals of the kernel rows `rows` (converged) and
    `extra` (summed on the same mesh), in that order.

    Where the pair field vanishes at every point (habs = 0) and every row
    is one of the ideal gas's, the rows are its Bose functions in closed
    form (`bose.ideal_rows`): good to about 1e-15 where the quadrature
    is held to 1e-10."""
    sigma = sigma_gap(model, tp, op)
    habs = abs(model.u) * op.q
    every = rows + extra
    if IDEAL_ROWS.issuperset(every) and not np.any(habs):
        # f(0) = sigma where the pair field vanishes
        return ideal_rows(model.dim, model.mass, tp.beta, sigma, every)
    return radial_rows(model.lambda_profile, model.dim, model.mass, tp.beta,
                       sigma, habs, rows, extra)


def pressure_tl(model: Model, tp: ThermoPoint, op: OrderPoint) -> float:
    """Thermodynamic-limit pressure of the quadratic approximant."""
    src = source_terms(model, tp, op)[0]
    ip, = _rows(model, tp, op, (0,))
    return _real(ip + src
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
    prof = model.lambda_profile
    terms, = eval_rows(norms, prof.value_radial(norms),
                       prof.complement_radial(norms), tp.beta,
                       0.5 / model.mass, sg, abs(model.u) * op.q, (0,))
    return float(terms.sum() / V + src
                 - model.u * op.q ** 2 / 2.0 + model.v * op.rho ** 2 / 2.0)


def pressure_fv(model: Model, tp: ThermoPoint, op: OrderPoint,
                lat: LatticeSpec) -> float:
    """Pressure of the quadratic approximant in a finite box."""
    return pressure_fv_modes(model, tp, op, lattice_norms(model, lat),
                             lat.volume(model.dim))


def grad_rho_slope(model: Model, tp: ThermoPoint, op: OrderPoint):
    """grad_rho and its rho-derivative v (v d2_mu + 1), from one quadrature.

    Only the density row is converged; the curvature row is an extra row
    that comes at whatever accuracy its mesh gave it (it diverges at
    sigma = 0 for nu <= 3), so the slope is fit to propose Newton steps,
    not to be reported.
    """
    _, src, d2_src = source_terms(model, tp, op)
    i1, i3 = _rows(model, tp, op, (1,), extra=(3,))
    v = model.v
    return (_real(-v * (i1 + src) + v * op.rho),
            _real(v * (v * (i3 + d2_src) + 1.0)))


def outer_grads(model: Model, tp: ThermoPoint, op: OrderPoint):
    """(grad_rho, grad_q) from one quadrature that converges both rows.

    The outer q search reads both partials at every point it tries.  Rows
    (1, 2) are their own plan key, so these calls leave alone the mesh that
    the inner Newton steps (rows (1,)) carry from call to call.
    """
    src = source_terms(model, tp, op)[1]
    i1, i2 = _rows(model, tp, op, (1, 2))
    u, v = model.u, model.v
    return (_real(-v * (i1 + src) + v * op.rho),
            _real(u ** 2 * op.q * i2 + u * src - u * op.q))


def grad_rho(model: Model, tp: ThermoPoint, op: OrderPoint) -> float:
    """Partial derivative of pressure_tl with respect to rho.

    Reads the density row alone, so it stays finite on sigma = 0, where
    `grad_rho_slope`'s curvature row diverges; the plan key (1,) is the
    same, so both share one carried mesh.
    """
    src = source_terms(model, tp, op)[1]
    i1, = _rows(model, tp, op, (1,))
    return _real(-model.v * (i1 + src) + model.v * op.rho)


def grad_q(model: Model, tp: ThermoPoint, op: OrderPoint) -> float:
    """Partial derivative of pressure_tl with respect to q."""
    src = source_terms(model, tp, op)[1]
    iq, = _rows(model, tp, op, (2,))
    return float(model.u ** 2 * op.q * iq + model.u * src - model.u * op.q)


# Stationarity tolerance of `total_dq`, which rejects |grad_rho| above ten
# times it: near the feasibility boundary the density slope is so steep that
# the float-exact minimizer still carries an O(slope * ulp) residual.
_STAT_TOL = 1e-6


def total_dq(model: Model, tp: ThermoPoint, q: float, eta: float,
             rho_bar: float, sigma: float = None) -> float:
    """Total q-derivative along the constrained density path rho_bar(q).

    Because rho_bar is a stationary point of the inner minimization, the
    total derivative reduces to the partial one; the grad_rho term only
    carries the stationarity residual.  sigma is the gap the minimizer
    carries, if any (see `OrderPoint`).
    """
    return stationary_dq(*outer_grads(model, tp,
                                      OrderPoint(q, rho_bar, eta, sigma)))


def stationary_dq(gr: float, gq: float) -> float:
    """`total_dq` from the partials (grad_rho, grad_q) at the minimizer:
    gq + gr, or StationarityViolated where |gr| shows rho_bar is not
    stationary."""
    if abs(gr) > 10.0 * _STAT_TOL:
        raise StationarityViolated(
            f"rho_bar is not stationary: grad_rho = {gr:.3e}")
    return float(gq + gr)


def d_mu(model: Model, tp: ThermoPoint, op: OrderPoint) -> float:
    """Partial derivative of pressure_tl with respect to mu (the density).

    The source coefficient is 1, not the printed v; finite differences agree.
    """
    src = source_terms(model, tp, op)[1]
    ife, = _rows(model, tp, op, (1,))
    return float(ife + src)


def d2_mu(model: Model, tp: ThermoPoint, op: OrderPoint) -> float:
    """Second mu-derivative of pressure_tl (compressibility; nonnegative)."""
    src = source_terms(model, tp, op)[2]
    id2, = _rows(model, tp, op, (3,))
    return _real(id2 + src)


# The residual integrals' double-exponential rule (H. Takahasi and M. Mori,
# Publ. RIMS Kyoto Univ. 9 (1974) 721): the trapezoid rule in t after the
# tanh-sinh map of [0, L], t in [t0, 4], or the exp-sinh map of [L, inf),
# t in [-4, 3].  The integrands fall double-exponentially in t toward the
# ends of both spans.  The tanh-sinh span starts at t0 = -4, r ~ 6e-38 L,
# where that node lies _PEAK_MARGIN below the width sqrt(2 m sigma) of the
# infrared peak (every gap above about 3e-43 L^2/2m), and else at t0 = -6,
# r ~ 1e-275 L, whose nodes resolve the peak at any gap the solve carries
# (down to sigma ~ 1e-160 and below in dim 2).  The exp-sinh span ends at
# r = L (1 + e^15.7), past every integrand's tail.  The residual integrands
# grow like f/(beta E^2) <= 1/(beta (r^2/2m + sigma)) toward r = 0, which
# overflows where E^2 leaves the normal range: at a gap that small, down to
# sigma = 0, the span starts at the first half step whose node keeps
# beta (r^2/2m + sigma) normal.  At sigma = 0 that is t0 = -5, r ~ 1e-100 L,
# and in dim 3 the integrands stay bounded toward r = 0 there, so the part
# of [0, r] left out is of order r.
_TANH_SINH_END = 4.0
_PEAK_MARGIN = 1e-16
_FLOAT_TINY = float(np.finfo(float).tiny)
_EXP_SINH_SPAN = (-4.0, 3.0)
# halvings of the step 1/2 at most: near sigma* = 1e-300 the density row's
# infrared step is about 0.003 wide in t, and 8 halvings left 5e-9 of it
_DE_LEVELS = 10
_DE_TOL = 1e-15    # two levels agree to this, relative to max(1, |sum|)


def _tanh_sinh(L):
    """r(t) = L / (1 + e^(-pi sinh t)) on [0, L] and dr/dt, of an array t;
    r keeps full relative precision toward r = 0, and dr/dt, written as
    L pi cosh t / (4 cosh^2(pi sinh t / 2)), stays in the float range at
    t = -6, where (1 + e)^2 would overflow."""
    def node(t):
        x = np.pi * np.sinh(t)
        return (L / (1.0 + np.exp(-x)),
                L * np.pi * np.cosh(t) / (4.0 * np.cosh(0.5 * x) ** 2))
    return node


def _exp_sinh(L):
    """r(t) = L (1 + e^(pi/2 sinh t)) on [L, inf) and dr/dt, of an array t."""
    def node(t):
        e = np.exp(0.5 * np.pi * np.sinh(t))
        return L * (1.0 + e), L * 0.5 * np.pi * np.cosh(t) * e
    return node


def _de_sum(fn, node, lo, hi):
    """int fn(r) dr over the image of [lo, hi] under node, by the trapezoid
    rule in t: the step halves from 1/2, each level adding the odd nodes,
    until two levels agree to _DE_TOL max(1, |sum|), or _DE_LEVELS
    times; the last sum is returned."""
    h = 0.5
    r, w = node(np.arange(lo, hi + 0.5 * h, h))
    total = h * np.dot(w, fn(r))
    for _ in range(_DE_LEVELS):
        h *= 0.5
        r, w = node(np.arange(lo + h, hi, 2.0 * h))
        prev, total = total, 0.5 * total + h * np.dot(w, fn(r))
        if abs(total - prev) <= _DE_TOL * max(1.0, abs(total)):
            break
    return float(total)


def _radial_quad(g, nu, mass, beta, f0, sigma=0.0):
    """c_nu int_0^inf r^(nu-1) g(r) dr for a vectorized g, used only by the
    stationarity residuals.

    Deliberately a separate code path from the batched kernel: the residual
    check is meant to validate the gradients, so it must not share their
    integrator.  The double-exponential rule runs on [0, 8 scale] and on
    [8 scale, inf), scale = sqrt(2 m max(1/beta, f0, 1)) with f0 = f(0).
    Its tanh-sinh nodes crowd toward r = 0 doubly exponentially, and the
    span reaches as far down as the infrared peak of width
    sqrt(2 m sigma) near the feasibility boundary needs (all the way at
    the default sigma = 0).
    """
    c_nu = 2.0 * math.pi ** (nu / 2.0) / math.gamma(nu / 2.0) / (2.0 * math.pi) ** nu
    L = 8.0 * math.sqrt(2.0 * mass * max(1.0 / beta, f0, 1.0))
    node = _tanh_sinh(L)
    width = math.sqrt(2.0 * mass * sigma)
    t0 = -4.0 if node(-4.0)[0] <= _PEAK_MARGIN * width else -6.0
    while t0 < -4.0 and beta * (
            node(t0)[0] ** 2 / (2.0 * mass) + sigma) < _FLOAT_TINY:
        t0 += 0.5

    def fn(r):
        return c_nu * r ** (nu - 1) * g(r)

    return (_de_sum(fn, node, t0, _TANH_SINH_END)
            + _de_sum(fn, _exp_sinh(L), *_EXP_SINH_SPAN))


def el_residuals(model: Model, tp: ThermoPoint, op: OrderPoint):
    """Residuals of the two stationarity equations at (q, rho, eta).

    r1 = rho - (1/2) int {(f/E) coth(beta E/2) - 1} - eta^2/(f(0)-u q)^2
    r2 = q - (u q/2) int (lam^2/E) coth(beta E/2) - eta^2/(f(0)-u q)^2

    Both vanish at an interior optimum.  Algebraically r1 = grad_rho / v and
    r2 = -grad_q / u, but the integrals here are evaluated with an
    independent integrator (`_radial_quad`) in coth form.  They read the
    gap the point carries, which may lie far below rho's resolution, or
    else the one the exact (q, rho) define (`sigma_gap`, rounded once).
    """
    src = source_terms(model, tp, op)[1]
    sigma = float(sigma_gap(model, tp, op, rounded_once=True))
    habs = abs(model.u) * op.q
    inv_2m = 0.5 / model.mass
    prof = model.lambda_profile
    beta = tp.beta

    def spec_at(r):
        # f, h, lam, and E with 1 in place of E = 0, where `gapless` is set;
        # f - h is summed from its nonnegative parts as in `kernels.eval_rows`
        lam = prof.value_radial(r)
        kin = inv_2m * r * r
        f = kin + (sigma + habs)
        h = habs * lam
        f_minus_h = kin + sigma + habs * prof.complement_radial(r)
        E = np.sqrt(np.maximum(f_minus_h * (f + h), 0.0))
        gapless = E == 0.0
        return f, h, lam, np.where(gapless, 1.0, E), gapless

    def g1(r):
        f, h, _, E, gapless = spec_at(r)
        t = np.tanh(beta * E / 2.0)
        # (f coth - E)/(2E), written to avoid the large-r cancellation
        return np.where(gapless, 0.0,
                        (h * h / (E + f) + f * (1.0 - t) / t) / (2.0 * E))

    def g2(r):
        _, _, lam, E, gapless = spec_at(r)
        return np.where(gapless, 0.0,
                        lam * lam / (2.0 * E * np.tanh(beta * E / 2.0)))

    i1 = _radial_quad(g1, model.dim, model.mass, beta, sigma + habs, sigma)
    r1 = op.rho - i1 - src
    if op.q == 0.0:
        r2 = -src
    else:
        i2 = _radial_quad(g2, model.dim, model.mass, beta, sigma + habs,
                          sigma)
        r2 = op.q - model.u * op.q * i2 - src
    return float(r1), float(r2)
