"""Constrained sup-inf solver, source continuation and phase observables.

For attractive pairing (u > 0) the pressure is sup over the pair order
parameter q of the inf over densities rho of the quadratic-approximant
pressure; for u <= 0 the sup becomes an inf and the problem collapses onto
the mean-field solution as the symmetry-breaking source eta -> 0.  The
solver nests the optimizations: per candidate q, the boundary test and one
safeguarded Newton loop on the gap find the inner density minimum.  Each
solve is a generator of its quadrature requests, and so is the outer search
(`_outer_steps`, with Brent's method as `_brent_steps`), at every eta.
Every request has one format, {fn: [(mu, q, rho, sigma), ...]}; one
combinator runs generators in lockstep (`_join`), each round one batched
quadrature per kind of request; and one loop serves them (`_run`).  So
the inner solves of an outer search run together, a single q as the
batch of one, each from the interior minimizer of the nearest q already
solved, and at eta = 0 the searches of every mu of one beta run together
too (`variational_row`).

Two paths reach the eta -> 0 observables.  `variational_limit` (a row of
one point) solves the sup-inf once at eta = 0 and reads the condensate m0
off the Karush-Kuhn-Tucker multiplier of the constraint sigma >= 0
(Nocedal and Wright, Numerical Optimization, ch. 12): the multiplier
itself for u >= 0, half of it (the quasi-average) for u < 0.  `eta_continuation` runs a
geometric eta schedule on one quadrature plan and extrapolates to eta = 0
with a detected-order Richardson step.  The CLI's solve, scan and spectrum
take the first path at every point; the second stays as the API's
cross-check of it, which the tests run.  Both solve the inner inf with
one routine, on the gap coordinate s = ln sigma in every dimension
(`_gap_steps`): the point carries sigma, so a minimizer far below rho's
resolution keeps its gap, the source term reads it too, and a boundary
minimum carries sigma = 0 exactly.  The mean-field reference
`mf_pressure` finds its own fixed point on the same coordinate.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bose import ideal_rows
from .errors import (
    BracketFailure, ConfigError, ContinuationDiverged, ModelError,
    PairBosonError, StationarityViolated,
)
from .model import PROFILE_DELTA_ZERO, Model
from .pressure import (
    OrderPoint,
    ThermoPoint,
    d2_mu,
    el_residuals,
    excitation_energy,
    grad_q,  # unused here; perfbench's tracer wraps this name
    grad_rho,
    grad_rho_slope,
    outer_grads,
    pressure_tl,
    source_terms,
    stationary_dq,
    total_dq,  # unused here; perfbench's tracer wraps this name
)
from .quadrature import (
    plan_scope,
    radial_rows,  # unused here; perfbench's tracer wraps this name
)

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
# the inner gap solve's tolerance on s = ln sigma: _S_XTOL + _RHO_RTOL |s|,
# _RHO_RTOL also the relative tolerance of the mean-field fixed point
_S_XTOL, _RHO_RTOL = 1e-15, 8.9e-16
# Below its anchor, at most this gap, the dim-2 density row is its
# Lorentzian asymptote I1(sigma_a) + b ln(sigma_a/sigma): near r = 0,
# E^2 ~ c^2 (sigma + kappa r^2), and the measure r dr turns that pole into
# the logarithm (P. J. Davis and P. Rabinowitz, Methods of Numerical
# Integration, 2nd ed., 1984, sec. 2.12).  From sigma_a = 1e-16 the
# asymptote matches the converged quadrature to 1e-12 (gaussian:1, down to
# 1e-80).  The anchor moves down by factors of 1e-8, to 1e-120 at most,
# while sigma I3(sigma) there is further than _B_RTOL from b: a power
# profile's (c r)^p term in f - h fades only like sigma^((p-2)/2).
_SIGMA0 = 1e-16
_LOG_SIGMA0 = math.log(_SIGMA0)
_ANCHOR_STEP = 8.0 * math.log(10.0)
_LOG_SIGMA_FLOOR = math.log(1e-120)
_B_RTOL = 1e-9
# ln of the least normal float and a bound below ln of the largest
_LOG_FLOAT_MIN = math.log(sys.float_info.min)
_LOG_FLOAT_MAX = 709.0


@dataclass
class SolveResult:
    """Outcome of one sup-inf solve at fixed source strength.

    `residual_el1` and `residual_el2` are the Euler-Lagrange residuals of
    `el_residuals` at residual_at = (model, tp, op), the optimum.  They cost
    two radial integrals and only solve prints them (a continuation's last
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
        """(el1, el2) of an interior eta = 0 optimum, or StationarityViolated
        unless |el1| <= _EL_TOL max(1, rho_bar) + slack and
        |el2| <= _EL_TOL max(1, q_bar) + (v/|u|) slack.

        slack is the el1 that the inner root's own tolerance allows (see
        `_el1_slack`).  At an interior q_bar > 0 the outer polish zeroes
        the q-slope grad_q + grad_rho = v el1 - u el2, so el2 = (v/u) el1
        inherits el1's floor.  The slack costs one quadrature, taken only
        when a residual misses its plain bound.  An optimum whose carried
        gap underflowed, to 0 or to a subnormal float, cannot be checked,
        and raises."""
        op = self.residual_at[2]
        if op.sigma < sys.float_info.min:
            raise StationarityViolated(
                "the optimum's gap sigma lies below the float range: its "
                "residuals cannot be checked")
        el1, el2 = self._residuals
        tol1 = _EL_TOL * max(1.0, self.rho_bar)
        tol2 = _EL_TOL * max(1.0, self.q_bar)
        if abs(el1) > tol1 or abs(el2) > tol2:
            model = self.residual_at[0]
            slack = self._el1_slack()
            tol1 += slack
            if self.q_bar > 0.0:
                tol2 += model.v / abs(model.u) * slack
        if not (abs(el1) <= tol1 and abs(el2) <= tol2):
            raise StationarityViolated(
                f"the optimum is not stationary: el1 = {el1:.3e}, "
                f"el2 = {el2:.3e}")
        return el1, el2

    def _el1_slack(self):
        """The el1 that the inner root's tolerance allows: d el1 / ds,
        (sigma/v + sigma I3(sigma)) on the gap coordinate s = ln sigma,
        times the tolerance on s.

        Below _SIGMA0, sigma I3(sigma) is read at _SIGMA0: in dim 2 that
        is b, the Lorentzian coefficient, so the slack is about b 1e-15
        there; in dim >= 3, where sigma I3 falls like sqrt(sigma), it is
        an upper bound."""
        model, tp, op = self.residual_at
        at = max(op.sigma, _SIGMA0)
        b = at * d2_mu(model, tp, replace(op, sigma=at))
        return ((op.sigma / model.v + b)
                * (_S_XTOL + _RHO_RTOL * abs(math.log(op.sigma))))


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


_VALUE_SLACK = 1e-10  # a q > 0 optimum may sit this far below the q = 0 slice


class _Found(NamedTuple):
    """What an inner solve knows at its minimizer besides rho_bar: grad_rho
    and grad_q there where it computed them (grad_q None at q = 0, where no
    pair row is read), and ln sigma, the gap coordinate it solved on (-inf
    on the boundary sigma = 0)."""

    grad_rho: float = None
    grad_q: float = None
    log_sigma: float = None


def inf_rho(model: Model, tp: ThermoPoint, q, eta: float, rho_hint=None):
    """Minimize the pressure over densities at fixed (q, eta).

    Returns (rho_bar, boundary, found): the minimizer; whether it sits on
    the feasibility boundary sigma = 0 (possible only at eta = 0, or for
    repulsive u where the source stays finite on the boundary); and the
    `_Found` of the solve: grad_rho and grad_q where it computed them at
    the minimizer, and ln sigma, since the solve runs on the gap itself
    (`_gap_steps`) and the minimizer's sigma can lie far below rho's
    resolution.  The pressure at the minimizer is left to the caller.  A
    feasible rho_hint is the start of the iteration.

    An array of q (with None or an array of hints) solves every q in
    lockstep and returns a list with, per q, that triple or the
    PairBosonError its solve raised: the solves are joined (`_join`), so
    each round makes one quadrature per kind of request over all q still
    running, and a failing q fails alone.  A scalar q is the batch of one,
    and raises its error.  The searches reach the same solves through
    `_inner_requests`, without this entry point.

    grad_rho increases with rho (d2_mu >= 0), so the minimum is on the
    boundary exactly when grad_rho >= 0 at rho_b = (mu + |u| q)/v, where
    sigma = 0 (the Karush-Kuhn-Tucker condition).  Where the density row
    is finite on sigma = 0 (`_finite_on_boundary`), and at eta > 0 the
    source too (u < 0, q > 0), one call there, at the carried sigma = 0,
    decides it before anything else.  Elsewhere the minimum is interior:
    the density row or the source diverges on sigma = 0.
    """
    qs = np.atleast_1d(q).tolist()
    hints = [None] * len(qs) if rho_hint is None else np.atleast_1d(rho_hint)
    outs = _run(model, tp.beta, eta, _inner_requests(model, tp, eta, qs,
                                                     hints))
    return _one_or_all(q, outs)


def _inner_requests(model, tp, eta, qs, hints):
    """The inner solves (`_gap_steps`) of the q of qs from their hints,
    joined into one request generator (`_join`)."""
    return _join([_gap_steps(model, tp, q, eta, hint)
                  for q, hint in zip(qs, hints)])


def _one_or_all(q, outs):
    """outs, the result or PairBosonError per q of an array q; for a
    scalar q its one result, raised if it is an error."""
    if np.ndim(q):
        return outs
    if isinstance(outs[0], PairBosonError):
        raise outs[0]
    return outs[0]


# The solver's searches are request generators.  A request is
# {fn: [(mu, q, rho, sigma), ...]}: fn a pressure function, to be read at
# ThermoPoint(beta, mu) and OrderPoint(q, rho, eta, sigma) for each point
# (sigma None where the point carries no gap), with beta and eta those of
# the `_run` that serves it.  The generator is sent {fn: replies}, per
# point fn's result or the error it raised (`_evaluate`).  A request {}
# is a barrier: the generator waits for the others of its `_join`.


def _ask(tp, fn, q, rho, sigma):
    """fn at one point (q, rho, sigma) of tp, as a request: its result, or
    the error it raised, raised here."""
    reply, = (yield {fn: [(tp.mu, q, rho, sigma)]})[fn]
    if isinstance(reply, Exception):
        raise reply
    return reply


def _join(gens):
    """Run the request generators gens together, as one request generator.

    Each round merges the live generators' requests per fn, the fns in the
    order of their first request, and sends each generator the replies to
    its own points.  A generator that yields {} waits at a barrier: once
    every live one waits, the join yields {} itself and then releases them
    together.  Returns each generator's return value, or the
    PairBosonError it raised.  A join of one generator is that generator,
    its requests passed through as they are (as for every `solve`).
    """
    if len(gens) == 1:
        try:
            return [(yield from gens[0])]
        except PairBosonError as exc:
            return [exc]
    outs = [None] * len(gens)
    live = {}

    def advance(i, replies):
        try:
            live[i] = gens[i].send(replies)
        except StopIteration as stop:
            outs[i] = stop.value
        except PairBosonError as exc:
            outs[i] = exc

    for i in range(len(gens)):
        advance(i, None)
    while live:
        requests, live, merged = live, {}, {}
        for request in requests.values():
            for fn, points in request.items():
                if fn in merged:
                    merged[fn].extend(points)
                else:
                    merged[fn] = list(points)
        # {} where every live generator waits at a barrier
        replies = yield merged
        # each generator's replies, cut from the merged ones in the order
        # they were merged
        starts = dict.fromkeys(merged, 0)
        for i, request in requests.items():
            if request or not merged:
                own = {}
                for fn, points in request.items():
                    start = starts[fn]
                    starts[fn] = stop = start + len(points)
                    own[fn] = replies[fn][start:stop]
                advance(i, own)
            else:
                live[i] = request
    return outs


def _run(model, beta, eta, steps):
    """The return value of the request generator steps, each of its
    requests evaluated at beta and eta (`_evaluate`), a barrier answered
    with {}; raises what steps raises."""
    replies = None
    while True:
        try:
            request = steps.send(replies)
        except StopIteration as stop:
            return stop.value
        replies = {}
        for fn, points in request.items():
            replies[fn] = _evaluate(model, beta, eta, fn, points)


def _evaluate(model, beta, eta, fn, points):
    """fn at ThermoPoint(beta, mu) and OrderPoint(q, rho, eta, sigma) for
    each point (mu, q, rho, sigma) of points, which all carry their gap or
    none do: the result, or the PairBosonError or OverflowError it raised.

    Several points go to fn as one batch, at their one mu or at the array
    of their mus; if that fails, each is retried alone, so that only a
    point that cannot converge fails.  A single point is fn's scalar call.
    """
    if len(points) > 1:
        mus, qs, rhos, sigmas = zip(*points)
        mu = mus[0] if mus.count(mus[0]) == len(mus) else np.array(mus)
        batch = None if sigmas[0] is None else np.array(sigmas)
        try:
            out = fn(model, ThermoPoint(beta, mu),
                     OrderPoint(np.array(qs), np.array(rhos), eta, batch))
        except (PairBosonError, OverflowError):
            pass
        else:
            if isinstance(out, tuple):
                return list(zip(*(x.tolist() for x in out)))
            return out.tolist()
    replies = []
    for mu, q, rho, sigma in points:
        try:
            replies.append(fn(model, ThermoPoint(beta, mu),
                              OrderPoint(q, rho, eta, sigma)))
        except (PairBosonError, OverflowError) as exc:
            replies.append(exc)
    return replies


def _boundary_offset(model, tp, q):
    """c = mu + |u| q, so that sigma = v rho - c and rho_b = c/v."""
    c = tp.mu + abs(model.u) * q
    if not math.isfinite(c):
        # q overflowed without an OverflowError, as eta * eta can
        raise ContinuationDiverged("the solve left the floating-point range")
    return c


def _finite_on_boundary(model, q):
    """Whether the density row stays finite on sigma = 0: in dim >= 3, and
    with the delta profile at q > 0, whose pair field leaves a gap at
    every r > 0.  Elsewhere it diverges there, like ln(1/sigma) in dim 2."""
    return model.dim >= 3 or (
        q > 0.0 and model.lambda_profile.kind == PROFILE_DELTA_ZERO)


def _grads_request(tp, q, rho, sigma):
    """(grad_rho, grad_q) at (q, rho, sigma), as one request (`_ask`); at
    q = 0 grad_rho alone, with grad_q None: no pair row is read there,
    which diverges on sigma = 0."""
    if q > 0.0:
        return (yield from _ask(tp, outer_grads, q, rho, sigma))
    return (yield from _ask(tp, grad_rho, q, rho, sigma)), None


def _gap_steps(model, tp, q, eta, rho_hint):
    """`inf_rho` at one q and eta, as a generator of its quadrature
    requests (`_ask`): Newton's method on s = ln sigma, safeguarded by
    bisection (rtsafe: W. H. Press et al., Numerical Recipes, 3rd ed.,
    sec. 9.4), for the root of F(s) = grad_rho / v =
    rho - I1(sigma) - eta^2/sigma~^2, rho = rho_b + sigma/v with
    rho_b = (mu + |u| q)/v and sigma~ = sigma + (|u| - u) q.
    dF/ds = sigma (1/v + I3 + 2 eta^2/sigma~^3) > 0.

    F is concave and increasing in sigma, so Newton's step in sigma lands
    at or below the root; it is taken, mapped to s, wherever it keeps
    sigma > 0, else the step in s.  At eta > 0 the larger of it and the
    source-balanced step (`_balanced_ratio`), which lands below the root
    too, is taken.  The loop ends when the step or the bracket falls below
    the tolerance on s.  The solve carries s and reports
    rho_bar = rho_b + sigma*/v (its `_Found` carries s*), so sigma* keeps
    its digits however far it lies below rho's resolution.

    Where the density row is finite on sigma = 0 (`_finite_on_boundary`),
    and the source too (eta = 0, or u < 0 with q > 0), one call there
    decides a boundary minimum first, which carries sigma = 0 exactly.
    Elsewhere I1 or the source diverges at sigma = 0 and the minimum is
    interior.  In dim 2 at eta = 0, I1 diverges like ln(1/sigma), and
    sigma* can lie below the float range: above the anchor sigma_a (see
    _SIGMA0) the rows are read by quadrature, at the gap itself; below, F
    is closed form in s from the Lorentzian asymptote of I1:
    F(s) = F(s_a) + (sigma - sigma_a)/v + b (s - s_a), with b from
    `_lorentz_coefficient` once sigma_a I3(sigma_a) meets it (else that
    measured value, at the deepest anchor), and F(s_a) from one more
    quadrature there.  The pair row follows the density row there
    (|u| q I2 - I1 is constant to 8 digits below sigma = 1e-8), so the
    minimizer's grads are read at the anchor:
    grad_q(sigma*) = grad_q(sigma_a) + |u| b (s_a - s*).  At eta > 0 the
    source keeps sigma* near eta / sqrt(rho - I1), above the anchor, and
    none is set.  The start is the hint's gap, else that of
    rho_lo + 1e-3 max(1, rho_lo).
    """
    v = model.v
    c = _boundary_offset(model, tp, q)        # v rho_b
    rho_b = c / v
    # rho >= 0 bounds sigma below by -c
    lo, hi = (math.log(-c) if c < 0.0 else -math.inf), math.inf

    def point(s):
        sigma = math.exp(s)
        return max(rho_b + sigma / v, 0.0), sigma

    if (c >= 0.0 and _finite_on_boundary(model, q)
            and (eta == 0.0 or (model.u < 0.0 and q > 0.0))):
        gr, gq = yield from _grads_request(tp, q, rho_b, 0.0)
        if gr >= 0:
            return rho_b, True, _Found(gr, gq, -math.inf)

    # the anchor, in dim 2 at eta = 0 only: its ln sigma, and there
    # (grad_rho, grad_q or None, b)
    s_a, anchor = -math.inf, None
    if model.dim == 2 and eta == 0.0:
        s_a = _LOG_SIGMA0

    def residual(s):
        # (F, dF/ds) at s
        nonlocal s_a, anchor
        while anchor is None and s < s_a:
            rho_a, sigma_a = point(s_a)
            b = sigma_a * (yield from _ask(tp, d2_mu, q, rho_a, sigma_a))
            b_lorentz = _lorentz_coefficient(model, tp.beta, abs(model.u) * q)
            close = abs(b - b_lorentz) <= _B_RTOL * b_lorentz
            if not close and s_a - _ANCHOR_STEP >= _LOG_SIGMA_FLOOR:
                # sigma I3 has not reached its limit: anchor deeper
                s_a -= _ANCHOR_STEP
                continue
            gr_a, gq_a = yield from _grads_request(tp, q, rho_a, sigma_a)
            anchor = gr_a, gq_a, (b_lorentz if close else b)
        if s >= s_a:
            rho, sigma = point(s)
            if sigma == 0.0:
                # the rows diverge on sigma = 0 here: sigma* underflows
                raise BracketFailure("gap solve left the float range")
            gr, slope = yield from _ask(tp, grad_rho_slope, q, rho, sigma)
            return gr / v, sigma * slope / (v * v)
        gr_a, _, b = anchor
        sigma, sigma_a = math.exp(s), math.exp(s_a)
        return (gr_a / v + (sigma - sigma_a) / v + b * (s - s_a),
                sigma / v + b)

    rho_lo = max(rho_b, 0.0)
    s = math.log(v * (rho_lo + 1e-3 * max(1.0, rho_lo)) - c)
    if rho_hint is not None and v * rho_hint - c > max(-c, 0.0):
        s = math.log(v * rho_hint - c)
    for _ in range(2000):
        F, dF = yield from residual(s)
        if F < 0:
            lo = max(lo, s)
        else:
            hi = min(hi, s)
        tol = _S_XTOL + _RHO_RTOL * abs(s)
        ratio = F / dF if 0 < dF < math.inf else math.nan
        if eta > 0.0 and not math.isnan(ratio):
            # the larger of two steps in sigma that land below the root
            ratio = min(ratio, _balanced_ratio(model, q, eta, s, F, dF))
        # Newton's step in sigma where it keeps sigma > 0, else in s
        nxt = s + math.log1p(-ratio) if ratio < 1.0 else s - ratio
        if not lo <= nxt <= hi:
            if math.isinf(lo) or math.isinf(hi):
                # no bracket yet: a factor e in sigma toward it
                nxt = s + (1.0 if F < 0 else -1.0)
            else:
                nxt = 0.5 * (lo + hi)
        if abs(nxt - s) <= tol or hi - lo <= 2.0 * tol:
            break
        s = nxt
    else:
        raise BracketFailure("gap solve did not converge")
    s = nxt
    rho_bar = point(s)[0]
    if anchor is None or s >= s_a or anchor[1] is None:
        return rho_bar, False, _Found(log_sigma=s)
    # the pair row follows the density row below the anchor
    F = (yield from residual(s))[0]
    gq = anchor[1] + abs(model.u) * anchor[2] * (s_a - s)
    return rho_bar, False, _Found(v * F, gq, s)


def _balanced_ratio(model, q, eta, s, F, dF):
    """Newton's step in sigma on the source-balanced residual
    sigma~ - eta / sqrt(D), D = F + eta^2/sigma~^2 = rho - I1, given
    F = grad_rho / v and dF/ds at s = ln sigma: the ratio such that the
    step goes to sigma (1 - ratio), as Newton's on F goes to
    sigma (1 - F/(dF/ds)); inf where D <= 0.

    This residual has F's root and sign.  Near the boundary, where
    eta^2/sigma~^2 dominates, Newton's step on F grows sigma~ by only
    about 1.5x; this residual is nearly linear in sigma~ there.  Where D
    is small instead, F is the nearly linear one.  sigma~ is affine in
    sigma, so the residual is concave in sigma like F, and its step lands
    at or below the root too.  dD/dsigma = 1/v + I3 >= 1/v is read off
    dF/ds less the source's share."""
    sigma = math.exp(s)
    st = sigma + (abs(model.u) - model.u) * q
    d = F + (eta / st) ** 2
    if not d > 0.0:
        return math.inf
    d_slope = max(dF / sigma - 2.0 * eta * eta / st ** 3, 1.0 / model.v)
    resid = st - eta / math.sqrt(d)
    return resid / (sigma * (1.0 + 0.5 * eta * d_slope / d ** 1.5))


def _lorentz_coefficient(model, beta, habs):
    """b, the coefficient of ln(1/sigma) in the dim-2 density row as
    sigma -> 0.

    Near r = 0, n_B ~ 1/(beta E) and E^2 = (f - h)(f + h) with
    f - h ~ sigma + kappa r^2, kappa = 1/(2m) + habs lambda_2 and lambda_2
    the profile's `origin_curvature`.  So the row's integrand is about
    f / (beta (f + h)(sigma + kappa r^2)), and with the measure r dr/(2 pi)
    it grows like f/(f + h) ln(1/sigma) / (4 pi beta kappa):
    b = 1/(8 pi beta kappa) where the pair field is on (f + h ~ 2f), and
    m/(2 pi beta) at habs = 0 (the ideal gas's g_1)."""
    if habs == 0.0:
        return model.mass / (2.0 * math.pi * beta)
    kappa = 0.5 / model.mass + habs * model.lambda_profile.origin_curvature()
    return 1.0 / (8.0 * math.pi * beta * kappa)


def _result_at(model, tp, eta, inner, value, q):
    """The SolveResult at q of an `_inner_solver`'s inner and value, as a
    request generator.

    On the boundary sigma = 0, f(0) = |h(0)| and so the gap E(0) is 0;
    sqrt(f^2 - h^2) a few ulps off it would report rounding noise.  The
    gap of an interior minimum is sqrt(sigma (sigma + 2 |u| q)), from the
    carried ln sigma (finite even where sigma underflows).  rho0 is the
    source's eta^2/sigma~^2, which is 0 at eta = 0 except on the
    boundary: there it is the eta -> 0 limit of the source's rho0, the
    quasi-average.  For u >= 0 that is the KKT multiplier
    max(grad_rho / v, 0), read from the boundary test's grad_rho; for
    u < 0 it is half the multiplier:

    - Write w = -u > 0.  On the boundary path sigma = 0 of a small source,
      rho = (mu + w q)/v and sigma~ = 2 w q.
    - Setting dp/dq = d_q p + (w/v) d_rho p to zero gives
      2 rho0 = rho - I1 + q (1 + w I2), with rho0 = eta^2/sigma~^2.
    - As eta -> 0 in dim >= 3, q -> 0, q I2 -> 0 and rho - I1 ->
      mu/v - rho_c, which is the multiplier.
    - So rho0 tends to half the multiplier.
    """
    rho, boundary, found = yield from inner(q)
    op = _order_point(q, rho, eta, found)
    gap = 0.0
    if not boundary:
        gap = (math.exp(0.5 * found.log_sigma)
               * math.sqrt(op.sigma + 2.0 * abs(model.u) * q))
    rho0 = source_terms(model, tp, op)[1]
    if boundary and eta == 0.0:
        rho0 = (max(found.grad_rho / model.v, 0.0)
                * (0.5 if model.u < 0.0 else 1.0))
    pressure = yield from value(q)
    return SolveResult(
        q_bar=float(q), rho_bar=float(rho), pressure=pressure,
        rho0=float(rho0), gap=gap, eta=float(eta),
        status=STATUS_BOUNDARY if boundary else STATUS_CONVERGED,
        residual_at=(model, tp, op))


def _order_point(q, rho, eta, found):
    """The OrderPoint of an inner minimizer, with the gap it carries."""
    return OrderPoint(q, rho, eta, math.exp(found.log_sigma))


def _inner_solver(model, tp, eta):
    """inf_rho as a function of q, with the inner value and its q-slope,
    as request generators.

    Returns (inner, value, tdq), generator functions: inner(q) returns
    inf_rho's (rho_bar, boundary, found), value(q) the pressure at the
    minimizer and tdq(q) the total q-derivative of that value.  All three
    are memoized by the exact float q for the life of the closure, that is
    one search (one point, one eta), and each is computed only when read.
    A raised error is not stored.  value also takes an array of q and
    returns per q the value or the PairBosonError of that q alone; a
    scalar q is the batch of one.

    They yield their quadratures as requests, at every eta, the inner
    solves of several q joined into one generator (`_inner_requests`), for
    `_run` to serve or for the `_join` of a row to batch with the other
    points' (see `variational_row`).  An OverflowError of a request is
    raised.

    The q not yet solved are solved in lockstep and their values read in
    one batched call.  Each starts from the interior minimizer of the
    nearest solved q, shifted to keep its distance to the boundary
    rho_lo(q) = (mu + |u| q)/v, which moves with q: the bare minimizer of
    one q is often infeasible at a larger one.

    tdq at a boundary minimum, which moves along sigma = 0,
    rho_b(q) = (mu + |u| q)/v, is grad_q + grad_rho |u|/v; grad_rho >= 0
    need not vanish.  Its gradients are the boundary test's where inf_rho
    made one.  At an interior minimum it is grad_q + grad_rho, the second
    only the stationarity residual: the gradients the gap solve read at
    its anchor where it made them, else those at the minimizer
    (`stationary_dq`).
    """
    memo, values, slopes = {}, {}, {}

    def solve(qs):
        # solve the q of qs not yet solved; returns the errors of those
        # that failed
        todo = [q for q in qs if q not in memo]
        if not todo:
            return {}
        anchors = [(a, out[0]) for a, out in memo.items() if not out[1]]

        def hint(q):
            if not anchors:
                return None
            a, rho = min(anchors, key=lambda anchor: abs(anchor[0] - q))
            return rho + abs(model.u) * (q - a) / model.v

        outs = yield from _inner_requests(
            model, tp, eta, np.array(todo).tolist(), [hint(q) for q in todo])
        errors = {}
        for q, out in zip(todo, outs):
            if isinstance(out, PairBosonError):
                errors[q] = out
            else:
                memo[q] = out
        return errors

    def inner(q):
        error = (yield from solve([q])).get(q)
        if error is not None:
            raise error
        return memo[q]

    def value(q):
        qs = np.atleast_1d(q).tolist()
        errors = yield from solve(qs)
        todo = [qq for qq in qs if qq in memo and qq not in values]
        if len(qs) > 1:
            # a row's points read the values of their scans together
            yield {}
        if todo:
            points = [_order_point(qq, memo[qq][0], eta, memo[qq][2])
                      for qq in todo]
            outs = (yield {pressure_tl: [(tp.mu, op.q, op.rho, op.sigma)
                                         for op in points]})[pressure_tl]
            for qq, out in zip(todo, outs):
                if isinstance(out, OverflowError):
                    raise out
                if isinstance(out, PairBosonError):
                    errors[qq] = out
                else:
                    values[qq] = float(out)
        return _one_or_all(q, [values[qq] if qq in values else errors[qq]
                               for qq in qs])

    def slope(q):
        rho_bar, boundary, found = yield from inner(q)
        op = _order_point(q, rho_bar, eta, found)
        if boundary:
            gr, gq = found.grad_rho, found.grad_q
            if gq is None:
                gr, gq = yield from _ask(tp, outer_grads, q, op.rho,
                                         op.sigma)
            return gq + gr * (abs(model.u) / model.v)
        if found.grad_q is not None:
            return found.grad_q + found.grad_rho
        return stationary_dq(
            *(yield from _ask(tp, outer_grads, q, rho_bar, op.sigma)))

    def tdq(q):
        if q not in slopes:
            slopes[q] = yield from slope(q)
        return slopes[q]

    return inner, value, tdq


def _brent_steps(a, b, xtol, rtol):
    """Brent's method for a root of f between a and b, where f changes
    sign (R. P. Brent, Algorithms for Minimization without Derivatives,
    Prentice-Hall, 1973, ch. 4), as a generator: it yields each x where it
    needs f, is sent f(x), and returns the root.  Step for step as SciPy's
    `brentq`, so that each iterate is the same float.

    It stops when half the bracket falls below (xtol + rtol |x|)/2, or at
    a zero of f.  Like SciPy's, it raises ValueError on a NaN value of f
    or on a bracket whose ends share a sign, and RuntimeError after 100
    iterations without convergence.
    """
    def checked(x, fx):
        fx = float(fx)
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = checked(xpre, (yield xpre))
    fcur = checked(xcur, (yield xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # the bracket end nearer the root becomes the current iterate
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            short = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        # a short interpolated step, else bisection
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = checked(xcur, (yield xcur))
    raise RuntimeError("Failed to converge after 100 iterations.")


def _brentq(f, a, b, xtol, rtol):
    """A root of the function f between a and b: `_brent_steps` sent
    f(x) at each x it yields."""
    steps = _brent_steps(a, b, xtol, rtol)
    x = next(steps)
    while True:
        try:
            x = steps.send(f(x))
        except StopIteration as stop:
            return stop.value


def _root(f, a, b, xtol, rtol):
    """`_brentq` of f, a request generator function, as a request
    generator."""
    steps = _brent_steps(a, b, xtol, rtol)
    x = next(steps)
    while True:
        fx = yield from f(x)
        try:
            x = steps.send(fx)
        except StopIteration as stop:
            return stop.value


def _small_q_root(tdq, q_start: float):
    """Bracket and refine a stationary point below the scan resolution,
    as a request generator (tdq one).

    Walks down (or up) in factors of 64 from q_start until the total
    derivative changes sign, then polishes with brentq.  Returns None if
    no bracket is found within floating-point range.
    """
    lo = q_start
    t_lo = yield from tdq(lo)
    if t_lo > 0.0:
        # slope still positive: the root lies above; walk up
        hi = lo * 64.0
        for _ in range(60):
            t_hi = yield from tdq(hi)
            if t_hi < 0.0:
                return (yield from _root(tdq, lo, hi, xtol=1e-30,
                                         rtol=8.9e-16))
            lo, hi = hi, hi * 64.0
        return None
    hi, t_hi = lo, t_lo
    for _ in range(60):
        lo = hi / 64.0
        if lo < 1e-280:
            return None
        t_lo = yield from tdq(lo)
        if t_lo > 0.0:
            return (yield from _root(tdq, lo, hi, xtol=1e-30, rtol=8.9e-16))
        hi = lo
    return None


def outer_opt(model: Model, tp: ThermoPoint, eta: float) -> SolveResult:
    """Optimize over the pair order parameter q (sup for u>0, inf for u<=0).

    For u > 0: expand the bracket [0, q_max] until the slope at q_max is
    not positive, scan it on a 32-point log grid, and polish the best grid
    point with brentq where the slope changes sign around it.  Without a
    sign change, as where the objective is flat to rounding, the best grid
    point stands.  The scan's 32 inner solves run in lockstep, each round
    one batched quadrature per kind of request, and its values are read in
    one batched call.  The search is `_outer_steps`, run alone by `_run`
    at any eta (`variational_row` joins a row of them).
    """
    return _run(model, tp.beta, eta, _outer_steps(model, tp, eta))


def _outer_steps(model, tp, eta):
    """`outer_opt` as a request generator (see `_inner_solver`)."""
    inner, value, tdq = _inner_solver(model, tp, eta)

    if model.u == 0.0 or (model.u < 0.0 and eta == 0.0):
        # no pairing term, or no source to tilt a repulsive one: q = 0
        return (yield from _result_at(model, tp, eta, inner, value, 0.0))

    if model.u < 0.0:
        q_bar = yield from _outer_min_repulsive(model, eta, tdq)
        return (yield from _result_at(model, tp, eta, inner, value, q_bar))

    # attractive: maximize the inner value over q >= 0
    rho0_bar = (yield from inner(0.0))[0]
    value0 = yield from value(0.0)
    # a barrier (see `_join`): the points of a row start their
    # brackets, and so their scans, together, so that these batch across
    # the row
    yield {}

    q_max = max(1.0, (2.0 / model.u) * (abs(tp.mu) + model.v * (rho0_bar + 1.0)))
    while (yield from tdq(q_max)) > 0:
        q_max *= 2.0
        if q_max > 2.0 ** 20:
            raise BracketFailure("outer bracket expansion exceeded 2^20")
    # coarse log scan to dodge local maxima, then polish the best bracket
    # the scan's inner solves run in lockstep; a q whose solve fails is
    # left out
    qs = np.geomspace(q_max * 1e-6, q_max, 32)
    best_q, best_val = 0.0, value0
    for qq, val in zip(qs, (yield from value(qs))):
        if not isinstance(val, PairBosonError) and val > best_val:
            best_q, best_val = qq, val

    q_bar = best_q
    if best_q > 0.0:
        step = qs[1] / qs[0]
        lo = best_q / step
        hi = min(best_q * step, float(qs[-1]))
        try:
            t_lo = yield from tdq(lo)
            t_hi = yield from tdq(hi)
            if t_lo > 0 and t_hi < 0:
                q_bar = yield from _root(tdq, lo, hi, xtol=1e-14,
                                         rtol=8.9e-16)
        except BracketFailure:
            pass
        if (yield from value(q_bar)) < best_val:
            q_bar = best_q
    elif eta > 0.0:
        # The source tilts the pressure so the stationary point has q > 0
        # even when it sits far below the scan resolution (q ~ eta^2 in the
        # normal phase).  The slope at q -> 0+ is u eta^2 / sigma^2 > 0, so
        # a sign change always exists; hunt for it geometrically.
        try:
            root = yield from _small_q_root(tdq, float(qs[0]))
        except PairBosonError:
            root = None
        if (root is not None
                and (yield from value(root)) >= value0 - _VALUE_SLACK):
            q_bar = root
    return (yield from _result_at(model, tp, eta, inner, value, q_bar))


def _outer_min_repulsive(model, eta, tdq):
    """u = -w < 0, eta > 0: the q minimizing the inner value, from its
    slope tdq, as a request generator; the minimizer obeys
    q < (eta^2/(2w))^(1/3)."""
    w = -model.u
    q_bound = (eta * eta / (2.0 * w)) ** (1.0 / 3.0)
    lo = q_bound * 1e-8
    hi = q_bound
    if (yield from tdq(lo)) >= 0:
        return 0.0
    for _ in range(60):
        if (yield from tdq(hi)) > 0:
            break
        hi *= 1.5
    else:
        raise BracketFailure("repulsive outer bracket not found")
    return (yield from _root(tdq, lo, hi, xtol=1e-16, rtol=8.9e-16))


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


def _in_float_range(steps):
    """The request generator steps inside `_float_range`: an OverflowError
    it raises, or that a request raised, ends it as ContinuationDiverged."""
    with _float_range():
        return (yield from steps)


def _check_schedule(eta0: float, factor: float, floor: float) -> None:
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
    _check_schedule(eta0, factor, floor)
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

    m0 is the eta -> 0 quasi-average of the k = 0 mode, read off the
    Karush-Kuhn-Tucker multiplier grad_rho / v of the constraint
    sigma >= 0 at a boundary minimum, where the inner minimum presses on
    sigma = 0: the multiplier for u >= 0 and half of it for u < 0 (see
    `_result_at`).  At an interior minimum m0 is 0; so it is in dim <= 2
    for every profile but the delta one, whose pair field leaves the
    density row finite on sigma = 0: there the minimum is interior, as the
    Hohenberg-Mermin-Wagner theorem requires of long-range order in
    dim <= 2 (P. C. Hohenberg, Phys. Rev. 158 (1967) 383; N. D. Mermin and
    H. Wagner, Phys. Rev. Lett. 17 (1966) 1133).  The CLI takes this path
    at every point.  `result` is the eta = 0 solve itself: its status is
    STATUS_BOUNDARY exactly when the multiplier applies, and its residuals
    are computed only if read.
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
    extrapolated limits of `eta_continuation` within the latter's error
    estimates, at a small fraction of the cost.  For u <= 0 it is the
    mean-field Bose gas, q_bar = 0 without a search.  It is
    `variational_row` on a row of one point, and raises its error.
    """
    limit, = variational_row(model, [tp])
    if isinstance(limit, PairBosonError):
        raise limit
    return limit


def variational_row(model: Model, tps) -> list:
    """The `VariationalLimit` of every point of tps, ThermoPoints of one
    beta, or the PairBosonError its solve raised.

    The points' eta = 0 searches (`_outer_steps`) run in lockstep, joined
    (`_join`) on one quadrature plan: each round makes one batched
    quadrature per kind of request over every live (mu, q) of the row, a
    shared mesh as in SciPy's quad_vec (P. Virtanen et al., Nat. Methods
    17 (2020) 261).  So a point's values depend on the row it is solved
    in, within the radial tolerance, and a row of one is the solve of
    that point alone.  A point fails alone; a float overflow ends it as
    ContinuationDiverged.
    """
    betas = {tp.beta for tp in tps}
    if len(betas) > 1:
        raise ValueError("the points of a row share one beta")
    with plan_scope():
        outs = _run(model, min(betas, default=None), 0.0, _join([
            _in_float_range(_outer_steps(model, tp, 0.0)) for tp in tps]))
    return [res if isinstance(res, PairBosonError) else VariationalLimit(
        p_limit=res.pressure, q_limit=res.q_bar, rho_limit=res.rho_bar,
        m0=res.rho0, gap_limit=res.gap, result=res) for res in outs]


def bose_density(model: Model, beta: float, mu_eff: float) -> float:
    """Ideal Bose gas density lambda^-nu g_(nu/2)(e^(beta mu_eff)) at
    effective chemical potential mu_eff <= 0; infinite at mu_eff = 0 in
    dim <= 2."""
    if mu_eff > 0:
        raise ModelError("ideal-gas density requires mu_eff <= 0")
    density, = ideal_rows(model.dim, model.mass, beta, -mu_eff, (1,))
    return float(density)


def critical_density(model: Model, beta: float) -> float:
    """Ideal-gas density at zero effective potential: zeta(nu/2) lambda^-nu
    with lambda^-nu = (m / (2 pi beta))^(nu/2) in dim nu >= 3, infinite
    in dim <= 2."""
    return bose_density(model, beta, 0.0)


def _mf_point(model: Model, tp: ThermoPoint) -> OrderPoint:
    """The mean-field fixed point, at q = 0 with the gap it carries: the
    root sigma* in s = ln sigma of
    F(s) = (mu + sigma)/v - lambda^-nu g_(nu/2)(e^(-beta sigma)), the
    density less the ideal gas's at mu_eff = -sigma, and
    rho = (mu + sigma*)/v.

    F increases with s, so the root is unique.  In dim >= 3,
    F(-inf) = mu/v - rho_c: at and above the critical potential v rho_c
    the point sits on the boundary sigma = 0 exactly.  Otherwise `_brentq`
    finds the root between ln(-mu), where rho = 0, or else the least
    normal float (a root below it stops there), and the first point where
    F > 0 of a walk up from sigma = v + max(-mu, 0) in steps in s that
    double.  This is code of its own, not `inf_rho`'s: the tests compare
    the u <= 0 solve with it.
    """
    v, mu = model.v, tp.mu
    if mu >= v * critical_density(model, tp.beta):
        return OrderPoint(0.0, mu / v, 0.0, 0.0)

    def F(s):
        sigma = math.exp(s)
        return mu / v + sigma / v - bose_density(model, tp.beta, -sigma)

    # rho >= 0 bounds sigma below by -mu, where F = -density < 0
    lo = math.log(-mu) if mu < 0.0 else _LOG_FLOAT_MIN
    hi, step = math.log(v + max(-mu, 0.0)), 1.0
    while F(hi) < 0.0:
        if hi == _LOG_FLOAT_MAX:
            raise BracketFailure("mean-field fixed point bracket not found")
        lo, hi, step = hi, min(hi + step, _LOG_FLOAT_MAX), 2.0 * step
    if F(lo) < 0.0:
        lo = _brentq(F, lo, hi, xtol=_S_XTOL, rtol=_RHO_RTOL)
    sigma = math.exp(lo)
    return OrderPoint(0.0, max(mu / v + sigma / v, 0.0), 0.0, sigma)


def mf_density(model: Model, tp: ThermoPoint) -> float:
    """Fixed point of rho = ideal-density(mu - v rho), saturating at mu/v
    (see `_mf_point`)."""
    return _mf_point(model, tp).rho


def mf_pressure(model: Model, tp: ThermoPoint) -> float:
    """Mean-field pressure: the quadratic approximant at q = 0, eta = 0,
    read at the gap of the fixed point."""
    return pressure_tl(model, tp, _mf_point(model, tp))


def excitation_spectrum(model: Model, tp: ThermoPoint,
                        cont: ContinuationResult | VariationalLimit, k_grid):
    """Quasi-particle energies E(k) at the (q, rho) limit, with the gap the
    eta = 0 optimum carries."""
    op = (cont.result.residual_at[2] if isinstance(cont, VariationalLimit)
          else OrderPoint(cont.q_limit, cont.rho_limit))
    return [(float(r), excitation_energy(model, tp, op, r))
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
