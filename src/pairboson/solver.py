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
geometric eta schedule on one quadrature plan and extrapolates to eta = 0
with a detected-order Richardson step.  The CLI's solve, scan and spectrum
take the first path where it is settled (dim >= 3, u >= 0) and the second
elsewhere; the tests check the two against each other.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .errors import (
    BracketFailure, ConfigError, ContinuationDiverged, ModelError,
    PairBosonError, StationarityViolated,
)
from .model import Model, delta_profile
from .pressure import (
    OrderPoint,
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
_ORDER_TOL = 1e-6  # q_limit and m0 above this are a nonzero order parameter
# the radial tolerance, which `SolveResult.checked_residuals` holds the
# Euler-Lagrange residuals to, relative to max(1, rho_bar) and max(1, q_bar)
_EL_TOL = 1e-10


@dataclass
class SolveResult:
    """Outcome of one sup-inf solve at fixed source strength.

    `residual_el1` and `residual_el2` are the Euler-Lagrange residuals of
    `el_residuals` at residual_at = (model, tp, op), the optimum.  They cost
    two scalar integrals and only solve prints them (a continuation's last
    eta step's, or the eta = 0 solve's), so both are computed on first read
    and kept.
    """

    q_bar: float
    rho_bar: float
    pressure: float
    rho0: float
    gap: float
    eta: float
    status: str
    residual_at: tuple

    @cached_property
    def _residuals(self):
        r1, r2 = el_residuals(*self.residual_at)
        return float(r1), float(r2)

    residual_el1 = property(lambda self: self._residuals[0],
                            doc="Residual of the density equation.")
    residual_el2 = property(lambda self: self._residuals[1],
                            doc="Residual of the pair equation.")

    def checked_residuals(self):
        """(el1, el2) of an interior optimum, or StationarityViolated
        unless |el1| <= _EL_TOL max(1, rho_bar) and
        |el2| <= _EL_TOL max(1, q_bar)."""
        el1, el2 = self._residuals
        if not (abs(el1) <= _EL_TOL * max(1.0, self.rho_bar)
                and abs(el2) <= _EL_TOL * max(1.0, self.q_bar)):
            raise StationarityViolated(
                f"the optimum is not stationary: el1 = {el1:.3e}, "
                f"el2 = {el2:.3e}")
        return el1, el2


@dataclass
class ContinuationResult:
    """Solves along a decreasing eta schedule plus extrapolated limits."""

    results: list
    p_limit: float
    q_limit: float
    rho_limit: float
    m0: float
    gap_limit: float
    extrapolation_order: float
    error_estimates: dict = field(default_factory=dict)


_NEWTON_STEPS = 8  # in inf_rho, before it hands the bracket to brentq
_VALUE_SLACK = 1e-10  # a q > 0 optimum may sit this far below the q = 0 slice


def _balanced_step(model, tp, op, gr, slope):
    """The Newton iterate from op.rho on the source-balanced residual
    sigma~ - eta / sqrt(D), D = rho - I1 with I1 the density row, or -inf
    where D <= 0.

    grad_rho = v (D - eta^2/sigma~^2), so this residual has grad_rho's root
    and sign.  Near the boundary, where eta^2/sigma~^2 dominates, a step on
    grad_rho itself grows sigma~ by only about 1.5x; this residual is
    nearly linear in sigma~ there.  Where D is small instead, grad_rho is
    the nearly linear one.  D and dD/drho = 1 + v I3 >= 1, with I3 the
    compressibility row, are read off (grad_rho, slope) less the source's
    share."""
    v, eta = model.v, op.eta
    st = v * op.rho - tp.mu - model.u * op.q
    d = gr / v + (eta / st) ** 2
    if not d > 0.0:
        return -math.inf
    d_slope = max(slope / v - 2.0 * v * eta * eta / st ** 3, 1.0)
    resid = st - eta / math.sqrt(d)
    return op.rho - resid / (v + 0.5 * eta * d_slope / d ** 1.5)


def inf_rho(model: Model, tp: ThermoPoint, q: float, eta: float,
            rho_hint: float | None = None, boundary_first: bool = False):
    """Minimize the pressure over densities at fixed (q, eta).

    Returns (rho_bar, boundary, grads): the minimizer; whether it sits on
    the feasibility boundary sigma = 0 (possible only at eta = 0, or for
    repulsive u where the source stays finite on the boundary); and at a
    boundary minimum the (grad_rho, grad_q) of `outer_grads` there, when
    the boundary test computed them, else None.  The pressure at the
    minimizer is left to the caller.  A feasible rho_hint is the start of
    the Newton iteration.

    grad_rho increases with rho (d2_mu >= 0), so the minimum is on the
    boundary exactly when grad_rho >= 0 at rho_b, the smallest feasible
    density (the Karush-Kuhn-Tucker condition).  Where rho_b can be
    evaluated (dim >= 3, q > 0, and a source finite on sigma = 0) one
    outer_grads call there decides it, first if boundary_first is set,
    else after the top probe rho_lo + 1e-3 scale.  Elsewhere the density
    row (dim <= 2), the pair row (q = 0) or the source (u > 0 with
    eta > 0) diverges at rho_b, and the smallest feasible probe above it
    stands in.
    """
    rho_lo = max(0.0, (tp.mu + abs(model.u) * q) / model.v)
    if not math.isfinite(rho_lo):
        # q overflowed without an OverflowError, as eta * eta can
        raise ContinuationDiverged("the solve left the floating-point range")
    scale = max(1.0, rho_lo)

    def inside(rho):
        return feasible(model, tp, OrderPoint(q, rho, eta))

    seen = {}

    def g_slope(rho):
        if rho not in seen:
            seen[rho] = grad_rho_slope(model, tp, OrderPoint(q, rho, eta))
        return seen[rho]

    def g(rho):
        return g_slope(rho)[0]

    rho_b = rho_lo
    while sigma_gap(model, tp, OrderPoint(q, rho_b, eta)) < 0:
        rho_b = np.nextafter(rho_b, np.inf)  # undo rounding in rho_lo
    rho_b = float(rho_b)
    kkt = (model.dim >= 3 and q > 0.0 and (eta == 0.0 or model.u < 0.0)
           and inside(rho_b))
    grads = None

    def slope_at_boundary():
        # the KKT test's grad_rho also serves g, as brentq's lower end
        nonlocal grads
        grads = outer_grads(model, tp, OrderPoint(q, rho_b, eta))
        seen[rho_b] = grads[0], math.nan
        return grads[0]

    if kkt and boundary_first and slope_at_boundary() >= 0:
        return rho_b, True, grads
    # top is feasible: sigma >= 1e-3 v scale there, and sigma~ >= sigma
    top = rho_lo + 1e-3 * scale
    lo = hi = None
    if g(top) < 0:
        lo = top
    elif kkt:
        # boundary_first already found grad_rho(rho_b) < 0, or the
        # test runs now
        if grads is not None or slope_at_boundary() < 0:
            lo, hi = rho_b, top
    else:
        # probes rho_lo + 1e-3 scale 0.1^k; feasibility rises with rho,
        # so the feasible ones are the largest
        probes = []
        delta = 1e-3 * scale
        while delta > 1e-14 * scale:
            probes.append(rho_lo + delta)
            delta *= 0.1
        bottom = next(rho for rho in reversed(probes) if inside(rho))
        if g(bottom) < 0:
            lo, hi = bottom, top
    if lo is None:
        # slope is nonnegative all the way down: boundary minimum
        if not inside(rho_b):
            # source diverges on the boundary; step infinitesimally inside
            rho_b = rho_lo + 1e-14 * scale
        return rho_b, True, grads

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
        if eta > 0.0:
            # both residuals are concave and increasing in rho, so each
            # Newton step lands at or below the root: the larger is nearer
            nxt = max(nxt, _balanced_step(model, tp, OrderPoint(q, rho, eta),
                                          gr, slope))
        in_bracket = lo <= nxt and (hi is None or nxt <= hi)
        if abs(nxt - rho) <= 1e-14 + 8.9e-16 * abs(nxt):
            rho_bar = nxt if in_bracket else rho
            break
        if not in_bracket:
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
    return float(rho_bar), False, None


def _result_at(model, tp, eta, inner, value, q):
    """The SolveResult at q of an `_inner_solver`'s inner and value.

    On the boundary sigma = 0, f(0) = |h(0)| and so the gap E(0) is 0;
    sqrt(f^2 - h^2) a few ulps off it would report rounding noise.  rho0
    is the source's eta^2/sigma~^2, which is 0 at eta = 0 except on the
    boundary: there it is the KKT multiplier max(grad_rho / v, 0), read
    from the boundary test's gradients where inf_rho made one."""
    rho, boundary, grads = inner(q)
    op = OrderPoint(q, rho, eta)
    gap = 0.0 if boundary else excitation_energy(model, tp, q, rho, 0.0)
    rho0 = source_terms(model, tp, op)[1]
    if boundary and eta == 0.0:
        gr = grad_rho(model, tp, op) if grads is None else grads[0]
        rho0 = max(gr / model.v, 0.0)
    return SolveResult(
        q_bar=float(q), rho_bar=float(rho), pressure=value(q),
        rho0=float(rho0), gap=gap, eta=float(eta),
        status=STATUS_BOUNDARY if boundary else STATUS_CONVERGED,
        residual_at=(model, tp, op))


def _inner_solver(model, tp, eta):
    """inf_rho as a function of q, with the inner value and its q-slope.

    Returns (inner, value, tdq): inner(q) is inf_rho's (rho_bar, boundary,
    grads), value(q) the pressure at (q, rho_bar) and tdq(q) the
    `_slope_in_q`.  All three are memoized by the exact float q for the
    life of the closure, that is one outer_opt call (one point, one eta),
    and each is computed only when read.  A raised error is not stored.

    inner is warm-started from its last interior minimizer.  The hint keeps
    that minimizer's distance to the boundary rho_lo(q) = (mu + |u| q)/v,
    which moves with q; the bare minimizer of one q is often infeasible at a
    larger one.  After a boundary minimum the next solve tests the boundary
    first.  A repeated q moves neither."""
    last = None
    on_boundary = False
    memo, values, slopes = {}, {}, {}

    def inner(q):
        nonlocal last, on_boundary
        if q not in memo:
            hint = None
            if last is not None:
                hint = last[1] + abs(model.u) * (q - last[0]) / model.v
            memo[q] = inf_rho(model, tp, q, eta, rho_hint=hint,
                              boundary_first=on_boundary)
            rho_bar, on_boundary, _ = memo[q]
            if not on_boundary:
                last = (q, rho_bar)
        return memo[q]

    def value(q):
        if q not in values:
            op = OrderPoint(q, inner(q)[0], eta)
            values[q] = float(pressure_tl(model, tp, op))
        return values[q]

    def tdq(q):
        if q not in slopes:
            slopes[q] = _slope_in_q(model, tp, eta, inner, q)
        return slopes[q]

    return inner, value, tdq


def _slope_in_q(model, tp, eta, inner, q):
    """The total q-derivative at q of the inner value at `inner(q)`.

    A boundary minimum moves along sigma = 0, rho_b(q) = (mu + |u| q)/v, so
    its derivative is grad_q + grad_rho |u|/v; grad_rho >= 0 need not
    vanish.  Its gradients are the boundary test's where inf_rho made one.
    """
    rho_bar, boundary, grads = inner(q)
    if boundary:
        if grads is None:
            grads = outer_grads(model, tp, OrderPoint(q, rho_bar, eta))
        gr, gq = grads
        return gq + gr * (abs(model.u) / model.v)
    return total_dq(model, tp, q, eta, rho_bar)


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


def outer_opt(model: Model, tp: ThermoPoint, eta: float) -> SolveResult:
    """Optimize over the pair order parameter q (sup for u>0, inf for u<=0).

    For u > 0: expand the bracket [0, q_max] until the slope at q_max is
    not positive, scan it on a 32-point log grid, and polish the best grid
    point with brentq where the slope changes sign around it.  Without a
    sign change, as where the objective is flat to rounding, the best grid
    point stands.
    """
    inner, value, tdq = _inner_solver(model, tp, eta)

    if model.u == 0.0 or (model.u < 0.0 and eta == 0.0):
        # no pairing term, or no source to tilt a repulsive one: q = 0
        return _result_at(model, tp, eta, inner, value, 0.0)

    if model.u < 0.0:
        q_bar = _outer_min_repulsive(model, eta, tdq)
        return _result_at(model, tp, eta, inner, value, q_bar)

    # attractive: maximize the inner value over q >= 0
    rho0_bar = inner(0.0)[0]
    value0 = value(0.0)

    q_max = max(1.0, (2.0 / model.u) * (abs(tp.mu) + model.v * (rho0_bar + 1.0)))
    while tdq(q_max) > 0:
        q_max *= 2.0
        if q_max > 2.0 ** 20:
            raise BracketFailure("outer bracket expansion exceeded 2^20")
    # coarse log scan to dodge local maxima, then polish the best bracket
    qs = np.geomspace(q_max * 1e-6, q_max, 32)
    best_q, best_val = 0.0, value0
    for qq in qs:
        try:
            val = value(qq)
        except PairBosonError:
            continue
        if val > best_val:
            best_q, best_val = qq, val

    q_bar = best_q
    if best_q > 0.0:
        step = qs[1] / qs[0]
        lo = best_q / step
        hi = min(best_q * step, float(qs[-1]))
        try:
            t_lo, t_hi = tdq(lo), tdq(hi)
            if t_lo > 0 and t_hi < 0:
                q_bar = brentq(tdq, lo, hi, xtol=1e-14, rtol=8.9e-16)
        except BracketFailure:
            pass
        if value(q_bar) < best_val:
            q_bar = best_q
    elif eta > 0.0:
        # The source tilts the pressure so the stationary point has q > 0
        # even when it sits far below the scan resolution (q ~ eta^2 in the
        # normal phase).  The slope at q -> 0+ is u eta^2 / sigma^2 > 0, so
        # a sign change always exists; hunt for it geometrically.
        try:
            root = _small_q_root(tdq, float(qs[0]))
        except PairBosonError:
            root = None
        if root is not None and value(root) >= value0 - _VALUE_SLACK:
            q_bar = root
    return _result_at(model, tp, eta, inner, value, q_bar)


def _outer_min_repulsive(model, eta, tdq):
    """u = -w < 0, eta > 0: the q minimizing the inner value, from its
    slope tdq; the minimizer obeys q < (eta^2/(2w))^(1/3)."""
    w = -model.u
    q_bound = (eta * eta / (2.0 * w)) ** (1.0 / 3.0)
    lo = q_bound * 1e-8
    hi = q_bound
    if tdq(lo) >= 0:
        return 0.0
    for _ in range(60):
        if tdq(hi) > 0:
            break
        hi *= 1.5
    else:
        raise BracketFailure("repulsive outer bracket not found")
    return brentq(tdq, lo, hi, xtol=1e-16, rtol=8.9e-16)


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


@contextlib.contextmanager
def _float_range():
    """Turn a float overflow inside the block into ContinuationDiverged."""
    try:
        yield
    except OverflowError as exc:
        raise ContinuationDiverged(
            "the solve left the floating-point range") from exc


def check_schedule(eta0: float, factor: float, floor: float) -> None:
    """ConfigError unless `eta_continuation` can run this schedule."""
    if not (math.inf > eta0 > floor > 0.0):
        raise ConfigError("requires eta0 > eta_floor > 0")
    if not (0.0 < factor < 1.0):
        raise ConfigError("requires 0 < eta_factor < 1")


def eta_continuation(model: Model, tp: ThermoPoint, eta0: float = 1e-1,
                     factor: float = 0.5,
                     floor: float = 1e-6) -> ContinuationResult:
    """Solve along eta_n = eta0 * factor^n down to the floor and extrapolate
    the observables to eta = 0."""
    check_schedule(eta0, factor, floor)
    etas = []
    eta = eta0
    while eta >= floor:
        etas.append(eta)
        eta *= factor
    results = []
    # one quadrature plan per continuation: its calls reuse each other's
    # cutoff and mesh, and nothing carries over to another point
    with plan_scope(), _float_range():
        for eta in etas:
            results.append(outer_opt(model, tp, eta))
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
        results=results, p_limit=p_lim, q_limit=q_lim,
        rho_limit=rho_lim, m0=m0, gap_limit=gap_lim,
        extrapolation_order=order,
        error_estimates={"p": p_err, "q": q_err, "rho": rho_err,
                         "m0": m0_err, "gap": gap_err})


@dataclass
class VariationalLimit:
    """The sup-inf solved at eta = 0, under ContinuationResult's names.

    m0 is the Karush-Kuhn-Tucker multiplier of the constraint sigma >= 0:
    grad_rho / v at a boundary minimum, where the inner minimum presses on
    sigma = 0, and 0 at an interior one.  `result` is the eta = 0 solve
    itself: its status is STATUS_BOUNDARY exactly when the multiplier
    applies, and its residuals are computed only if read.
    """

    p_limit: float
    q_limit: float
    rho_limit: float
    m0: float
    gap_limit: float
    result: SolveResult


def variational_limit(model: Model, tp: ThermoPoint) -> VariationalLimit:
    """p, q_bar, rho_bar, the gap E(0) and m0 from one outer solve at eta = 0.

    The direct solve of the two-parameter formula; it agrees with the
    extrapolated limits of `eta_continuation` where both apply (dim >= 3,
    u >= 0), at a small fraction of the cost.
    """
    with plan_scope(), _float_range():
        res = outer_opt(model, tp, 0.0)
    return VariationalLimit(p_limit=res.pressure, q_limit=res.q_bar,
                            rho_limit=res.rho_bar, m0=res.rho0,
                            gap_limit=res.gap, result=res)


def bose_density(model: Model, beta: float, mu_eff: float) -> float:
    """Ideal Bose gas density at effective chemical potential mu_eff <= 0."""
    if mu_eff > 0:
        raise ModelError("ideal-gas density requires mu_eff <= 0")
    if model.dim <= 2 and mu_eff == 0.0:
        return math.inf
    density, = radial_rows(delta_profile(), model.dim, model.mass, beta,
                           -mu_eff, 0.0, (1,))
    return float(density)


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


def mf_pressure(model: Model, tp: ThermoPoint) -> float:
    """Mean-field pressure: the quadratic approximant at q = 0, eta = 0."""
    rho_hat = mf_density(model, tp)
    return pressure_tl(model, tp, OrderPoint(0.0, rho_hat, 0.0))


def excitation_spectrum(model: Model, tp: ThermoPoint,
                        cont: ContinuationResult | VariationalLimit, k_grid):
    """Quasi-particle energies E(k) at the (q, rho) limit."""
    return [(float(r), excitation_energy(model, tp, cont.q_limit,
                                         cont.rho_limit, r))
            for r in np.atleast_1d(np.asarray(k_grid, dtype=float))]


def classify_phase(model: Model, tp: ThermoPoint,
                   cont: ContinuationResult | VariationalLimit) -> str:
    """Label the phase from the limit condensates, extrapolated or at eta = 0."""
    if model.u <= 0.0:
        rho_c = critical_density(model, tp.beta)
        if math.isfinite(rho_c) and tp.mu > model.v * rho_c:
            return PHASE_MF_CONDENSED
        return PHASE_NORMAL
    if cont.q_limit > _ORDER_TOL:
        return PHASE_CONDENSED if cont.m0 > _ORDER_TOL else PHASE_PAIR_ONLY
    return PHASE_NORMAL
