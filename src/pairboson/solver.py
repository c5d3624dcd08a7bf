"""Constrained sup-inf solver, source continuation and phase observables.

For attractive pairing (u > 0) the pressure is sup over the pair order
parameter q of the inf over densities rho of the quadratic-approximant
pressure; for u <= 0 the sup becomes an inf and the problem collapses onto
the mean-field solution as the symmetry-breaking source eta -> 0.  The
solver nests the optimizations (inner density solve per candidate q).

Two paths reach the eta -> 0 observables.  `variational_limit` solves the
sup-inf once at eta = 0 and reads the condensate m0 as the
Karush-Kuhn-Tucker multiplier of the constraint sigma >= 0 (Nocedal and
Wright, Numerical Optimization, ch. 12).  `eta_continuation` runs a
geometric eta schedule with warm starts and extrapolates to eta = 0 with a
detected-order Richardson step.  The CLI's scan and spectrum take the first
path where it is settled (dim >= 3, u >= 0) and the second elsewhere; solve
always runs the continuation, and the tests check the two against each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import (
    BracketFailure, ConfigError, ContinuationDiverged, ModelError,
    PairBosonError,
)
from .model import Model, delta_profile
from .pressure import (
    OrderPoint,
    QuadratureConfig,
    ThermoPoint,
    el_residuals,
    excitation_energy,
    feasible,
    grad_q,  # unused here; perfbench's tracer wraps this name
    grad_rho,
    grad_rho_slope,
    outer_grads,
    pressure_tl,
    sigma_gap,
    source_terms,
    total_dq,
)
from .quadrature import plan_scope, radial_rows

STATUS_CONVERGED = "converged"
STATUS_BOUNDARY = "boundary_minimum"

PHASE_NORMAL = "normal"
PHASE_PAIR_ONLY = "pair_only"
PHASE_CONDENSED = "condensed"
PHASE_MF_CONDENSED = "mf_condensed"


@dataclass(init=False)
class SolveResult:
    """Outcome of one sup-inf solve at fixed source strength.

    `residual_el1` and `residual_el2` are the Euler-Lagrange residuals of
    `el_residuals` at the optimum.  They cost two scalar integrals and only
    the last eta step's are printed, so a result made with
    residual_at=(model, tp, op, quad_cfg) computes both on first read and
    keeps them; otherwise they are the values passed to the constructor.
    """

    q_bar: float
    rho_bar: float
    pressure: float
    rho0: float
    gap: float
    eta: float
    status: str
    diagnostics: dict

    def __init__(self, q_bar, rho_bar, pressure, rho0, gap,
                 residual_el1=None, residual_el2=None, *, eta, status,
                 diagnostics=None, residual_at=None):
        self.q_bar, self.rho_bar, self.pressure = q_bar, rho_bar, pressure
        self.rho0, self.gap, self.eta, self.status = rho0, gap, eta, status
        self.diagnostics = {} if diagnostics is None else diagnostics
        self._residual_at = residual_at
        self._residuals = (None if residual_at is not None
                           else (residual_el1, residual_el2))

    def _residual(self, i):
        if self._residuals is None:
            r1, r2 = el_residuals(*self._residual_at)
            self._residuals = float(r1), float(r2)
        return self._residuals[i]

    residual_el1 = property(lambda self: self._residual(0),
                            doc="Residual of the density equation.")
    residual_el2 = property(lambda self: self._residual(1),
                            doc="Residual of the pair equation.")


@dataclass
class ContinuationResult:
    """Solves along a decreasing eta schedule plus extrapolated limits."""

    eta_sequence: list
    results: list
    p_limit: float
    q_limit: float
    rho_limit: float
    m0: float
    gap_limit: float
    extrapolation_order: float
    error_estimates: dict = field(default_factory=dict)


_NEWTON_STEPS = 8  # in inf_rho, before it hands the bracket to brentq


def inf_rho(model: Model, tp: ThermoPoint, q: float, eta: float,
            quad_cfg: QuadratureConfig | None = None,
            rho_hint: float | None = None):
    """Minimize the pressure over densities at fixed (q, eta).

    Returns (rho_bar, value, boundary): the minimizer, the pressure there,
    and whether the minimum sits on the feasibility boundary sigma = 0
    (possible only at eta = 0, or for repulsive u where the source stays
    finite on the boundary).  A feasible rho_hint is the start of the
    Newton iteration.
    """
    rho_lo = max(0.0, (tp.mu + abs(model.u) * q) / model.v)
    scale = max(1.0, rho_lo)

    def inside(rho):
        return feasible(model, tp, OrderPoint(q, rho, eta))

    seen = {}

    def g_slope(rho):
        if rho not in seen:
            seen[rho] = grad_rho_slope(model, tp, OrderPoint(q, rho, eta),
                                       quad_cfg)
        return seen[rho]

    def g(rho):
        return g_slope(rho)[0]

    # probe points rho_lo + 1e-3 scale 0.1^k just inside the feasible set;
    # grad_rho increases with rho (d2_mu >= 0), so the largest and the
    # smallest feasible probe decide whether any has a negative slope.
    # Feasibility rises with rho too, so the feasible probes are the largest.
    probes = []
    delta = 1e-3 * scale
    while delta > 1e-14 * scale:
        probes.append(rho_lo + delta)
        delta *= 0.1
    top = probes[0]
    lo = hi = None
    if inside(top):
        bottom = next(rho for rho in reversed(probes) if inside(rho))
        if g(top) < 0:
            lo = top
        elif g(bottom) < 0:
            lo, hi = bottom, top
    if lo is None:
        # slope is nonnegative all the way down: boundary minimum
        rho_b = rho_lo
        while sigma_gap(model, tp, OrderPoint(q, rho_b, eta)) < 0:
            rho_b = np.nextafter(rho_b, np.inf)  # undo rounding in rho_lo
        if not feasible(model, tp, OrderPoint(q, rho_b, eta)):
            # source diverges on the boundary; step infinitesimally inside
            rho_b = rho_lo + 1e-14 * scale
        val = pressure_tl(model, tp, OrderPoint(q, rho_b, eta), quad_cfg)
        return rho_b, val, True

    # Newton from the hint, else from the largest probe, shrinking [lo, hi]
    # by the sign of every slope seen; brentq on what is left if a step
    # leaves the bracket or the steps run out
    rho = top
    if rho_hint is not None and rho_hint > rho_lo and inside(rho_hint):
        rho = rho_hint
    rho_bar = None
    for _ in range(_NEWTON_STEPS):
        gr, slope = g_slope(rho)
        if gr < 0:
            lo = max(lo, rho)
        else:
            hi = rho if hi is None else min(hi, rho)
        if not 0 < slope < math.inf:
            break
        nxt = rho - gr / slope
        inside = lo <= nxt and (hi is None or nxt <= hi)
        if abs(nxt - rho) <= 1e-14 + 8.9e-16 * abs(nxt):
            rho_bar = nxt if inside else rho
            break
        if not inside:
            break
        rho = nxt
    if rho_bar is None:
        if hi is None:
            hi = lo + scale
            for _ in range(80):
                if g(hi) > 0:
                    break
                lo, hi = hi, hi * 2.0
            else:
                raise BracketFailure("density slope never turns positive")
        rho_bar = brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16)
    val = pressure_tl(model, tp, OrderPoint(q, rho_bar, eta), quad_cfg)
    return float(rho_bar), float(val), False


def _result_at(model, tp, q, eta, inner_result, diagnostics, quad_cfg):
    """The SolveResult at q of an `inner` result (rho_bar, value, boundary)."""
    rho, value, boundary = inner_result
    op = OrderPoint(q, rho, eta)
    return SolveResult(
        q_bar=float(q), rho_bar=float(rho), pressure=float(value),
        rho0=float(source_terms(model, tp, op)[1]),
        gap=excitation_energy(model, tp, q, rho, 0.0), eta=float(eta),
        status=STATUS_BOUNDARY if boundary else STATUS_CONVERGED,
        diagnostics=diagnostics, residual_at=(model, tp, op, quad_cfg))


def _inner_solver(model, tp, eta, quad_cfg, diagnostics):
    """inf_rho as a function of q, warm-started from its last interior
    minimizer.  The hint keeps that minimizer's distance to the boundary
    rho_lo(q) = (mu + |u| q)/v, which moves with q; the bare minimizer of
    one q is often infeasible at a larger one.

    Results are memoized by the exact float q for the life of the closure,
    that is one outer_opt call (one point, one eta): a repeated q returns
    the stored (rho_bar, value, boundary) without solving again and
    without moving the hint.  A raised error is not stored, and
    diagnostics["inner_solves"] counts only the solves that ran."""
    last = None
    memo = {}

    def inner(q):
        nonlocal last
        if q in memo:
            return memo[q]
        diagnostics["inner_solves"] += 1
        hint = None
        if last is not None:
            hint = last[1] + abs(model.u) * (q - last[0]) / model.v
        rho_bar, value, boundary = inf_rho(model, tp, q, eta, quad_cfg,
                                           rho_hint=hint)
        if not boundary:
            last = (q, rho_bar)
        memo[q] = rho_bar, value, boundary
        return memo[q]

    return inner


def _boundary_dq(model, tp, q, rho_bar, eta, quad_cfg):
    """Total q-derivative of the inner value at a boundary minimum.

    The minimum is pinned to sigma = 0, so it moves along the boundary path
    rho_b(q) = (mu + |u| q)/v at rate |u|/v, and the derivative along that
    path is grad_q + grad_rho |u|/v; grad_rho >= 0 there need not vanish.
    """
    gr, gq = outer_grads(model, tp, OrderPoint(q, rho_bar, eta), quad_cfg)
    return gq + gr * (abs(model.u) / model.v)


def _small_q_root(tdq, q_start: float):
    """Bracket and refine a stationary point below the scan resolution.

    Walks down (or up) in factors of 64 from q_start until the total
    derivative changes sign, then polishes with brentq.  Returns None if
    no bracket is found within floating-point range.
    """
    lo = q_start
    t_lo = tdq(lo)
    if t_lo > 0.0:
        # slope still positive: the root lies above; walk up
        hi = lo * 64.0
        for _ in range(60):
            t_hi = tdq(hi)
            if t_hi < 0.0:
                return brentq(tdq, lo, hi, xtol=1e-30, rtol=8.9e-16)
            lo, hi = hi, hi * 64.0
        return None
    hi, t_hi = lo, t_lo
    for _ in range(60):
        lo = hi / 64.0
        if lo < 1e-280:
            return None
        t_lo = tdq(lo)
        if t_lo > 0.0:
            return brentq(tdq, lo, hi, xtol=1e-30, rtol=8.9e-16)
        hi = lo
    return None


def outer_opt(model: Model, tp: ThermoPoint, eta: float,
              quad_cfg: QuadratureConfig | None = None,
              q_hint: float | None = None,
              tol: float = 1e-10) -> SolveResult:
    """Optimize over the pair order parameter q (sup for u>0, inf for u<=0).

    For u > 0 a positive q_hint is the centre of a warm-start window
    q_hint * [1/4, 4] on a 9-point log grid; when the best grid point lies
    on the window's edge the search is redone from the full bracket.  The
    u <= 0 branches ignore q_hint.
    """
    diagnostics = {"inner_solves": 0}
    inner = _inner_solver(model, tp, eta, quad_cfg, diagnostics)

    if model.u == 0.0 or (model.u < 0.0 and eta == 0.0):
        # no pairing term, or no source to tilt a repulsive one: q = 0
        return _result_at(model, tp, 0.0, eta, inner(0.0), diagnostics,
                          quad_cfg)

    if model.u < 0.0:
        return _outer_min_repulsive(model, tp, eta, quad_cfg, inner,
                                    diagnostics, tol)

    # attractive: maximize g(q) = inner value over q >= 0
    rho0_bar, value0, boundary0 = inner(0.0)

    def tdq(q):
        rho_bar, _, boundary = inner(q)
        if boundary:
            return _boundary_dq(model, tp, q, rho_bar, eta, quad_cfg)
        # near the feasibility boundary the density slope is so steep that
        # the float-exact minimizer still carries an O(slope * ulp) residual;
        # gate accordingly
        return total_dq(model, tp, q, eta, rho_bar, quad_cfg,
                        stat_tol=max(tol, 1e-6))

    if q_hint is not None and q_hint > 0:
        # warm start: the optimum lies near the caller's predicted centre
        qs = q_hint * np.geomspace(0.25, 4.0, 9)
        diagnostics["q_max"] = float(qs[-1])
    else:
        q_max = max(1.0, (2.0 / model.u) * (abs(tp.mu) + model.v * (rho0_bar + 1.0)))
        expansions = 0
        while tdq(q_max) > 0:
            q_max *= 2.0
            expansions += 1
            if q_max > 2.0 ** 20:
                raise BracketFailure("outer bracket expansion exceeded 2^20")
        diagnostics["q_max"] = q_max
        diagnostics["bracket_expansions"] = expansions
        # coarse log scan to dodge local maxima, then polish the best bracket
        qs = np.geomspace(q_max * 1e-6, q_max, 32)
    best_q, best_val, best_rho, best_boundary = 0.0, value0, rho0_bar, boundary0
    for qq in qs:
        try:
            rho_bar, val, boundary = inner(qq)
        except PairBosonError:
            continue
        if val > best_val:
            best_q, best_val, best_rho, best_boundary = qq, val, rho_bar, boundary

    if q_hint is not None and q_hint > 0 and best_q in (qs[0], qs[-1]):
        # optimum escaped the warm-start window: redo with the full bracket
        res = outer_opt(model, tp, eta, quad_cfg, q_hint=None, tol=tol)
        res.diagnostics["inner_solves"] += diagnostics["inner_solves"]
        return res

    if best_q > 0.0:
        step = qs[1] / qs[0]
        lo = best_q / step
        hi = min(best_q * step, float(qs[-1]))
        try:
            t_lo, t_hi = tdq(lo), tdq(hi)
            if t_lo > 0 and t_hi < 0:
                q_bar = brentq(tdq, lo, hi, xtol=1e-14, rtol=8.9e-16)
            else:
                res = minimize_scalar(lambda q: -inner(q)[1],
                                      bracket=None, bounds=(lo, hi),
                                      method="bounded",
                                      options={"xatol": 1e-12})
                q_bar = float(res.x)
        except BracketFailure:
            q_bar = best_q
        rho_bar, value, boundary = inner(q_bar)
        if value < best_val:
            q_bar, rho_bar, value, boundary = best_q, best_rho, best_val, best_boundary
    else:
        q_bar, rho_bar, value, boundary = 0.0, rho0_bar, value0, boundary0
        if eta > 0.0:
            # The source tilts the pressure so the stationary point has
            # q > 0 even when it sits far below the scan resolution
            # (q ~ eta^2 in the normal phase).  The slope at q -> 0+ is
            # u eta^2 / sigma^2 > 0, so a sign change always exists; hunt
            # for it geometrically.
            try:
                root = _small_q_root(tdq, float(qs[0]))
            except PairBosonError:
                root = None
            if root is not None:
                rho_r, val_r, bound_r = inner(root)
                if val_r >= value0 - max(tol, 1e-12):
                    q_bar, rho_bar, value, boundary = root, rho_r, val_r, bound_r

    if value + max(tol, 1e-12) < value0:
        # sup over q must dominate the q = 0 slice
        q_bar, rho_bar, value, boundary = 0.0, rho0_bar, value0, boundary0
    return _result_at(model, tp, q_bar, eta, (rho_bar, value, boundary),
                      diagnostics, quad_cfg)


def _outer_min_repulsive(model, tp, eta, quad_cfg, inner, diagnostics, tol):
    """u = -w < 0, eta > 0: minimize over q; the minimizer obeys
    q < (eta^2/(2w))^(1/3)."""
    w = -model.u
    q_bound = (eta * eta / (2.0 * w)) ** (1.0 / 3.0)
    diagnostics["q_bound"] = q_bound

    def tdq(q):
        rho_bar, _, boundary = inner(q)
        if boundary:
            return _boundary_dq(model, tp, q, rho_bar, eta, quad_cfg)
        return total_dq(model, tp, q, eta, rho_bar, quad_cfg,
                        stat_tol=max(tol, 1e-6))

    lo = q_bound * 1e-8
    hi = q_bound
    t_lo = tdq(lo)
    if t_lo >= 0:
        q_bar = 0.0
    else:
        for _ in range(60):
            if tdq(hi) > 0:
                break
            hi *= 1.5
        else:
            raise BracketFailure("repulsive outer bracket not found")
        q_bar = brentq(tdq, lo, hi, xtol=1e-16, rtol=8.9e-16)
    return _result_at(model, tp, q_bar, eta, inner(q_bar), diagnostics,
                      quad_cfg)


def _extrapolate(values, factor):
    """Detected-order Richardson step for a geometric continuation sequence.

    Models values[n] = y* + A eta_n^a with eta_n = eta_0 factor^n; the
    differences then shrink by r = factor^a per step, so
    y* = y_last + d_last r / (1 - r).  Returns (limit, error_estimate, a).
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        return float(v[-1]), math.inf, math.nan
    d = np.diff(v)
    if abs(d[-1]) < 1e-13 or abs(d[-2]) < 1e-13:
        return float(v[-1]), float(abs(d[-1])), math.nan
    r = d[-1] / d[-2]
    if not (0.0 < r < 0.97):
        return float(v[-1]), float(abs(d[-1])), math.nan
    a = math.log(r) / math.log(factor)
    corr = d[-1] * r / (1.0 - r)
    return float(v[-1] + corr), float(abs(corr) * r), float(a)


def eta_continuation(model: Model, tp: ThermoPoint, eta0: float = 1e-1,
                     factor: float = 0.5, floor: float = 1e-6,
                     quad_cfg: QuadratureConfig | None = None) -> ContinuationResult:
    """Solve along eta_n = eta0 * factor^n down to the floor and extrapolate.

    Each step centres the outer warm-start window on a prediction from the
    last two q_bar, q_n * (q_n / q_{n-1}).  Along a geometric schedule an
    optimum that scales like q ~ eta^a (a = 2 in the normal phase, a -> 0
    once q has a positive limit) moves by the same factor every step, so
    the prediction follows it where the bare q_n would fall off the
    window's edge.  Without two positive q_bar it uses q_n.
    """
    if not (math.inf > eta0 > floor > 0.0) or not (0.0 < factor < 1.0):
        raise ConfigError("require eta0 > floor > 0 and 0 < factor < 1")
    etas = []
    eta = eta0
    while eta >= floor:
        etas.append(eta)
        eta *= factor
    results = []
    q_hint = None
    # one quadrature plan per continuation: its calls reuse each other's
    # cutoff and mesh, and nothing carries over to another point
    with plan_scope():
        for eta in etas:
            res = outer_opt(model, tp, eta, quad_cfg, q_hint=q_hint)
            results.append(res)
            q_hint = res.q_bar
            if len(results) >= 2 and results[-2].q_bar > 0 and q_hint > 0:
                predicted = q_hint * (q_hint / results[-2].q_bar)
                if 0 < predicted < math.inf:
                    q_hint = predicted
            if len(results) >= 4:
                steps = [abs(results[i + 1].q_bar - results[i].q_bar)
                         + abs(results[i + 1].rho_bar - results[i].rho_bar)
                         for i in range(len(results) - 3, len(results) - 1)]
                if steps[-1] > 10.0 * steps[-2] + 1e-6:
                    raise ContinuationDiverged(
                        f"continuation iterates diverging at eta={eta}")

    p_lim, p_err, a_p = _extrapolate([r.pressure for r in results], factor)
    q_lim, q_err, a_q = _extrapolate([r.q_bar for r in results], factor)
    rho_lim, rho_err, _ = _extrapolate([r.rho_bar for r in results], factor)
    m0, m0_err, _ = _extrapolate([r.rho0 for r in results], factor)
    gap_lim, gap_err, a_gap = _extrapolate([r.gap for r in results], factor)
    q_lim = max(q_lim, 0.0)
    m0 = max(m0, 0.0)
    gap_lim = max(gap_lim, 0.0)
    order = next((a for a in (a_q, a_gap, a_p) if not math.isnan(a)), math.nan)
    return ContinuationResult(
        eta_sequence=etas, results=results, p_limit=p_lim, q_limit=q_lim,
        rho_limit=rho_lim, m0=m0, gap_limit=gap_lim,
        extrapolation_order=order,
        error_estimates={"p": p_err, "q": q_err, "rho": rho_err,
                         "m0": m0_err, "gap": gap_err})


@dataclass
class VariationalLimit:
    """The sup-inf solved at eta = 0, under ContinuationResult's names.

    m0 is the Karush-Kuhn-Tucker multiplier of the constraint sigma >= 0:
    grad_rho / v at a boundary minimum, where the inner minimum presses on
    sigma = 0, and 0 at an interior one.
    """

    p_limit: float
    q_limit: float
    rho_limit: float
    m0: float
    gap_limit: float


def variational_limit(model: Model, tp: ThermoPoint,
                      quad_cfg: QuadratureConfig | None = None
                      ) -> VariationalLimit:
    """p, q_bar, rho_bar, the gap E(0) and m0 from one outer solve at eta = 0.

    The direct solve of the two-parameter formula; it agrees with the
    extrapolated limits of `eta_continuation` where both apply (dim >= 3,
    u >= 0), at a small fraction of the cost.
    """
    with plan_scope():
        res = outer_opt(model, tp, 0.0, quad_cfg)
        m0 = 0.0
        if res.status == STATUS_BOUNDARY:
            op = OrderPoint(res.q_bar, res.rho_bar, 0.0)
            m0 = max(grad_rho(model, tp, op, quad_cfg) / model.v, 0.0)
    return VariationalLimit(p_limit=res.pressure, q_limit=res.q_bar,
                            rho_limit=res.rho_bar, m0=m0, gap_limit=res.gap)


def bose_density(model: Model, beta: float, mu_eff: float) -> float:
    """Ideal Bose gas density at effective chemical potential mu_eff <= 0."""
    if mu_eff > 0:
        raise ModelError("ideal-gas density requires mu_eff <= 0")
    if model.dim <= 2 and mu_eff == 0.0:
        return math.inf
    rows = radial_rows(delta_profile(), model.dim, model.mass, beta,
                       -mu_eff, 0.0, need=(1,))
    return float(rows[1])


def critical_density(model: Model, beta: float) -> float:
    """Ideal-gas density at zero effective potential (infinite for dim <= 2)."""
    return bose_density(model, beta, 0.0)


def mf_density(model: Model, tp: ThermoPoint) -> float:
    """Fixed point of rho = ideal-density(mu - v rho), saturating at mu/v.

    The map rho -> ideal-density(mu - v rho) is decreasing in rho, so the
    fixed point is unique; above the critical potential v rho_c the solution
    sits on the boundary mu - v rho = 0.
    """
    v = model.v
    rho_c = critical_density(model, tp.beta)
    if math.isfinite(rho_c) and tp.mu >= v * rho_c:
        return tp.mu / v

    def F(rho):
        return rho - bose_density(model, tp.beta, tp.mu - v * rho)

    lo = max(0.0, tp.mu / v)
    # just inside the non-condensed branch; F(lo+) < 0 when mu < v rho_c
    eps = 1e-13 * max(1.0, abs(lo))
    hi = lo + 1.0
    for _ in range(100):
        if F(hi) > 0:
            break
        hi *= 2.0
    else:
        raise BracketFailure("mean-field fixed point bracket not found")
    if F(lo + eps) >= 0:
        return lo
    return float(brentq(F, lo + eps, hi, xtol=1e-15, rtol=8.9e-16))


def mf_pressure(model: Model, tp: ThermoPoint,
                quad_cfg: QuadratureConfig | None = None) -> float:
    """Mean-field pressure: the quadratic approximant at q = 0, eta = 0."""
    rho_hat = mf_density(model, tp)
    return pressure_tl(model, tp, OrderPoint(0.0, rho_hat, 0.0), quad_cfg)


def excitation_spectrum(model: Model, tp: ThermoPoint,
                        cont: ContinuationResult | VariationalLimit, k_grid):
    """Quasi-particle energies E(k) at the (q, rho) limit."""
    return [(float(r), excitation_energy(model, tp, cont.q_limit,
                                         cont.rho_limit, r))
            for r in np.atleast_1d(np.asarray(k_grid, dtype=float))]


def classify_phase(model: Model, tp: ThermoPoint,
                   cont: ContinuationResult | VariationalLimit,
                   m0_tol: float = 1e-6, q_tol: float = 1e-6) -> str:
    """Label the phase from the limit condensates, extrapolated or at eta = 0."""
    if model.u <= 0.0:
        rho_c = critical_density(model, tp.beta)
        if math.isfinite(rho_c) and tp.mu > model.v * rho_c:
            return PHASE_MF_CONDENSED
        return PHASE_NORMAL
    if cont.q_limit > q_tol:
        return PHASE_CONDENSED if cont.m0 > m0_tol else PHASE_PAIR_ONLY
    return PHASE_NORMAL
