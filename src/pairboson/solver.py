"""Constrained sup-inf solver, source continuation and phase observables.

For attractive pairing (u > 0) the pressure is sup over the pair order
parameter q of the inf over densities rho of the quadratic-approximant
pressure; for u <= 0 the sup becomes an inf and the problem collapses onto
the mean-field solution as the symmetry-breaking source eta -> 0.  The
solver nests the optimizations: per candidate q, the boundary test and one
safeguarded Newton loop find the inner density minimum.  The inner solves
of an outer search run in lockstep (`inf_rho` on an array), a single q as
the batch of one, each from the interior minimizer of the nearest q
already solved.

Two paths reach the eta -> 0 observables.  `variational_limit` solves the
sup-inf once at eta = 0 and reads the condensate m0 off the
Karush-Kuhn-Tucker multiplier of the constraint sigma >= 0 (Nocedal and
Wright, Numerical Optimization, ch. 12): the multiplier itself for u >= 0,
half of it (the quasi-average) for u < 0.  `eta_continuation` runs a
geometric eta schedule on one quadrature plan and extrapolates to eta = 0
with a detected-order Richardson step.  The CLI's solve, scan and spectrum
take the second path only for u > 0 in dim 2, where the eta = 0 inner
solve meets the infrared divergence of the density row, and the first
everywhere else; the tests check the two against each other.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bose import ideal_rows
from .errors import (
    BracketFailure, ConfigError, ContinuationDiverged, ModelError,
    PairBosonError, StationarityViolated,
)
from .model import Model
from .pressure import (
    OrderPoint,
    ThermoPoint,
    d2_mu,
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
# inf_rho's absolute and relative tolerance on rho_bar
_RHO_XTOL, _RHO_RTOL = 1e-14, 8.9e-16


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
        """(el1, el2) of an interior optimum, or StationarityViolated
        unless |el1| <= _EL_TOL max(1, rho_bar) + slack and
        |el2| <= _EL_TOL max(1, q_bar) + (v/|u|) slack.

        slack is the el1 that inf_rho's own tolerance on rho_bar allows:
        d el1/d rho = 1 + v d2_mu times _RHO_XTOL + _RHO_RTOL rho_bar.  It
        matters just off sigma = 0 in dim <= 2, where d2_mu ~ 1/sigma and
        no float rho_bar meets _EL_TOL.  At an interior q_bar > 0 the
        outer polish zeroes the q-slope grad_q + grad_rho = v el1 - u el2,
        so el2 = (v/u) el1 inherits el1's floor.  The slack costs one
        quadrature, taken only when a residual misses its plain bound."""
        el1, el2 = self._residuals
        tol1 = _EL_TOL * max(1.0, self.rho_bar)
        tol2 = _EL_TOL * max(1.0, self.q_bar)
        if abs(el1) > tol1 or abs(el2) > tol2:
            model, tp, op = self.residual_at
            slack = ((1.0 + model.v * d2_mu(model, tp, op))
                     * (_RHO_XTOL + _RHO_RTOL * self.rho_bar))
            tol1 += slack
            if self.q_bar > 0.0:
                tol2 += model.v / abs(model.u) * slack
        if not (abs(el1) <= tol1 and abs(el2) <= tol2):
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


def inf_rho(model: Model, tp: ThermoPoint, q, eta: float, rho_hint=None):
    """Minimize the pressure over densities at fixed (q, eta).

    Returns (rho_bar, boundary, grads): the minimizer; whether it sits on
    the feasibility boundary sigma = 0 (possible only at eta = 0, or for
    repulsive u where the source stays finite on the boundary); and at a
    boundary minimum the (grad_rho, grad_q) of `outer_grads` there, when
    the boundary test computed them, else None.  The pressure at the
    minimizer is left to the caller.  A feasible rho_hint is the start of
    the Newton iteration.

    An array of q (with None or an array of hints) solves every q in
    lockstep and returns a list with, per q, that triple or the
    PairBosonError its solve raised: each round of the solves makes one
    quadrature per kind of request, over all q still running (see
    `_lockstep`), so a failing q fails alone.  A scalar q is the batch of
    one, and raises its error.

    grad_rho increases with rho (d2_mu >= 0), so the minimum is on the
    boundary exactly when grad_rho >= 0 at rho_b, the smallest feasible
    density (the Karush-Kuhn-Tucker condition).  Where rho_b can be
    evaluated (dim >= 3, q > 0, and a source finite on sigma = 0) one
    outer_grads call there decides it, before anything else.  Elsewhere
    the density row (dim <= 2), the pair row (q = 0) or the source (u > 0
    with eta > 0) diverges at rho_b, and the top probe rho_lo + 1e-3 scale,
    then the bottom probe rho_lo + 1e-14 scale, stand in.
    """
    qs = np.atleast_1d(q).tolist()
    hints = [None] * len(qs) if rho_hint is None else np.atleast_1d(rho_hint)
    return _one_or_all(q, _lockstep(model, tp, eta, qs, [
        _inner_steps(model, tp, qq, eta, hint) for qq, hint in zip(qs, hints)]))


def _one_or_all(q, outs):
    """outs, the result or PairBosonError per q of an array q; for a
    scalar q its one result, raised if it is an error."""
    if np.ndim(q):
        return outs
    if isinstance(outs[0], PairBosonError):
        raise outs[0]
    return outs[0]


def _lockstep(model, tp, eta, qs, solves):
    """Run the request generators `solves`, one per q of qs, together.

    A generator yields a request (fn, rho), fn a pressure function read at
    OrderPoint(q, rho, eta), and is sent fn's result.  Each round gathers
    the live generators' requests and evaluates those of one fn in one
    batched call (`_evaluate`).  Returns each generator's return value, or
    the PairBosonError it raised.
    """
    outs = [None] * len(solves)
    live = {}

    def advance(i, reply):
        try:
            if isinstance(reply, PairBosonError):
                live[i] = solves[i].throw(reply)
            else:
                live[i] = solves[i].send(reply)
        except StopIteration as stop:
            outs[i] = stop.value
        except PairBosonError as exc:
            outs[i] = exc

    for i in range(len(solves)):
        advance(i, None)
    while live:
        requests, by_fn = live, {}
        live = {}
        for i, (fn, rho) in requests.items():
            by_fn.setdefault(fn, []).append((i, rho))
        for fn, asks in by_fn.items():
            replies = _evaluate(model, tp, eta, fn, [qs[i] for i, _ in asks],
                                [rho for _, rho in asks])
            for (i, _), reply in zip(asks, replies):
                advance(i, reply)
    return outs


def _evaluate(model, tp, eta, fn, qs, rhos):
    """fn at OrderPoint(q, rho, eta) for each pair of qs and rhos: the
    result, or the PairBosonError it raised.

    Several points go to fn as one batch; if that fails, each is retried
    alone, so that only a point that cannot converge fails.  A single
    point is fn's scalar call.
    """
    if len(qs) > 1:
        try:
            out = fn(model, tp, OrderPoint(np.array(qs), np.array(rhos), eta))
        except PairBosonError:
            pass
        else:
            if isinstance(out, tuple):
                return list(zip(*(x.tolist() for x in out)))
            return out.tolist()
    replies = []
    for q, rho in zip(qs, rhos):
        try:
            replies.append(fn(model, tp, OrderPoint(q, rho, eta)))
        except PairBosonError as exc:
            replies.append(exc)
    return replies


def _inner_steps(model, tp, q, eta, rho_hint):
    """`inf_rho` at one q, as a generator of its quadrature requests (see
    `_lockstep`); returns (rho_bar, boundary, grads).

    After the boundary test, Newton's method safeguarded by bisection
    (rtsafe: W. H. Press et al., Numerical Recipes, 3rd ed., sec. 9.4)
    runs to convergence on grad_rho inside a bracket [lo, hi] that the
    sign of every slope seen shrinks.  A step that leaves the bracket
    bisects it; while the bracket has no upper end, it expands instead.
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
        # (grad_rho, its rho-slope) at rho, requested once per rho
        if rho not in seen:
            seen[rho] = yield grad_rho_slope, rho
        return seen[rho]

    rho_b = rho_lo
    while sigma_gap(model, tp, OrderPoint(q, rho_b, eta)) < 0:
        rho_b = np.nextafter(rho_b, np.inf)  # undo rounding in rho_lo
    rho_b = float(rho_b)
    # top and bottom are feasible: sigma >= 1e-14 v scale there, above
    # rho_lo's rounding, and sigma~ >= sigma
    top = rho_lo + 1e-3 * scale
    bottom = rho_lo + 1e-14 * scale
    hi = None
    if (model.dim >= 3 and q > 0.0 and (eta == 0.0 or model.u < 0.0)
            and inside(rho_b)):
        grads = yield outer_grads, rho_b
        if grads[0] >= 0:
            return rho_b, True, grads
        lo = rho_b
        seen[rho_b] = grads[0], math.nan  # no slope: no retake from it
    elif (yield from g_slope(top))[0] < 0:
        lo = top
    elif (yield from g_slope(bottom))[0] < 0:
        lo, hi = bottom, top
    else:
        # slope is nonnegative all the way down: boundary minimum, or
        # infinitesimally inside it where the source diverges on it
        return (rho_b if inside(rho_b) else bottom), True, None

    def newton(rho, gr, slope):
        nxt = rho - gr / slope
        if eta > 0.0:
            # both residuals are concave and increasing in rho, so each
            # Newton step lands at or below the root: the larger is nearer
            nxt = max(nxt, _balanced_step(model, tp, OrderPoint(q, rho, eta),
                                          gr, slope))
        return nxt

    # Newton from the hint, else from the top probe.  A step from above
    # the root that lands below lo is retaken from lo, which concavity
    # keeps in [lo, root].  A step that still leaves [lo, hi], or has no
    # usable slope, bisects it.  While hi is unknown the bracket expands
    # instead, to lo + scale and then to twice lo; at most 80 steps may
    # expand it or at least double rho before the search gives up
    rho = top
    if rho_hint is not None and rho_hint > rho_lo and inside(rho_hint):
        rho = rho_hint
    doublings = 0
    # a cap for safety only: bisection alone takes any bracket of doubles
    # to the tolerance in fewer than 1,100 halvings (2^1024/1e-14 < 2^1071)
    for _ in range(2000):
        gr, slope = yield from g_slope(rho)
        if gr < 0:
            lo = max(lo, rho)
        else:
            hi = rho if hi is None else min(hi, rho)
        nxt = math.nan
        if 0 < slope < math.inf:
            nxt = newton(rho, gr, slope)
            if nxt < lo and 0 < seen[lo][1] < math.inf:
                rho, nxt = lo, newton(lo, *seen[lo])
        in_bracket = lo <= nxt and (hi is None or nxt <= hi)
        if abs(nxt - rho) <= _RHO_XTOL + _RHO_RTOL * abs(nxt):
            return float(nxt if in_bracket else rho), False, None
        if hi is None and not (in_bracket and nxt < 2.0 * rho):
            if doublings == 80:
                raise BracketFailure("density slope never turns positive")
            if not in_bracket:
                nxt = 2.0 * lo if doublings else lo + scale
            doublings += 1
        elif not in_bracket:
            nxt = 0.5 * (lo + hi)
            if hi - lo <= 2.0 * (_RHO_XTOL + _RHO_RTOL * nxt):
                return float(nxt), False, None
        rho = nxt
    raise BracketFailure("density solve did not converge")


def _result_at(model, tp, eta, inner, value, q):
    """The SolveResult at q of an `_inner_solver`'s inner and value.

    On the boundary sigma = 0, f(0) = |h(0)| and so the gap E(0) is 0;
    sqrt(f^2 - h^2) a few ulps off it would report rounding noise.  rho0
    is the source's eta^2/sigma~^2, which is 0 at eta = 0 except on the
    boundary: there it is the eta -> 0 limit of the source's rho0, the
    quasi-average.  For u >= 0 that is the KKT multiplier
    max(grad_rho / v, 0), read from the boundary test's gradients where
    inf_rho made one; for u < 0 it is half the multiplier:

    - Write w = -u > 0.  On the boundary path sigma = 0 of a small source,
      rho = (mu + w q)/v and sigma~ = 2 w q.
    - Setting dp/dq = d_q p + (w/v) d_rho p to zero gives
      2 rho0 = rho - I1 + q (1 + w I2), with rho0 = eta^2/sigma~^2.
    - As eta -> 0 in dim >= 3, q -> 0, q I2 -> 0 and rho - I1 ->
      mu/v - rho_c, which is the multiplier.
    - So rho0 tends to half the multiplier.
    """
    rho, boundary, grads = inner(q)
    op = OrderPoint(q, rho, eta)
    gap = 0.0 if boundary else excitation_energy(model, tp, q, rho, 0.0)
    rho0 = source_terms(model, tp, op)[1]
    if boundary and eta == 0.0:
        gr = grad_rho(model, tp, op) if grads is None else grads[0]
        rho0 = max(gr / model.v, 0.0) * (0.5 if model.u < 0.0 else 1.0)
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
    value also takes an array of q and returns per q the value or the
    PairBosonError of that q alone; a scalar q is the batch of one.

    The q not yet solved are solved in lockstep and their values read in
    one batched call.  Each starts from the interior minimizer of the
    nearest solved q, shifted to keep its distance to the boundary
    rho_lo(q) = (mu + |u| q)/v, which moves with q: the bare minimizer of
    one q is often infeasible at a larger one."""
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

        outs = inf_rho(model, tp, np.array(todo), eta,
                       rho_hint=[hint(q) for q in todo])
        errors = {}
        for q, out in zip(todo, outs):
            if isinstance(out, PairBosonError):
                errors[q] = out
            else:
                memo[q] = out
        return errors

    def inner(q):
        error = solve([q]).get(q)
        if error is not None:
            raise error
        return memo[q]

    def value(q):
        qs = np.atleast_1d(q).tolist()
        errors = solve(qs)
        todo = [qq for qq in qs if qq in memo and qq not in values]
        outs = _evaluate(model, tp, eta, pressure_tl, todo,
                         [memo[qq][0] for qq in todo])
        for qq, out in zip(todo, outs):
            if isinstance(out, PairBosonError):
                errors[qq] = out
            else:
                values[qq] = float(out)
        return _one_or_all(q, [values[qq] if qq in values else errors[qq]
                               for qq in qs])

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


def _brentq(f, a, b, xtol, rtol):
    """A root of f between a and b, where f changes sign: Brent's method
    (R. P. Brent, Algorithms for Minimization without Derivatives,
    Prentice-Hall, 1973, ch. 4), step for step as SciPy's `brentq`, so
    that each iterate is the same float.

    It stops when half the bracket falls below (xtol + rtol |x|)/2, or at
    a zero of f.  Like SciPy's, it raises ValueError on a NaN value of f
    or on a bracket whose ends share a sign, and RuntimeError after 100
    iterations without convergence.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
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
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


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
                return _brentq(tdq, lo, hi, xtol=1e-30, rtol=8.9e-16)
            lo, hi = hi, hi * 64.0
        return None
    hi, t_hi = lo, t_lo
    for _ in range(60):
        lo = hi / 64.0
        if lo < 1e-280:
            return None
        t_lo = tdq(lo)
        if t_lo > 0.0:
            return _brentq(tdq, lo, hi, xtol=1e-30, rtol=8.9e-16)
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
    one batched call.
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
    # the scan's inner solves run in lockstep; a q whose solve fails is
    # left out
    qs = np.geomspace(q_max * 1e-6, q_max, 32)
    best_q, best_val = 0.0, value0
    for qq, val in zip(qs, value(qs)):
        if not isinstance(val, PairBosonError) and val > best_val:
            best_q, best_val = qq, val

    q_bar = best_q
    if best_q > 0.0:
        step = qs[1] / qs[0]
        lo = best_q / step
        hi = min(best_q * step, float(qs[-1]))
        try:
            t_lo, t_hi = tdq(lo), tdq(hi)
            if t_lo > 0 and t_hi < 0:
                q_bar = _brentq(tdq, lo, hi, xtol=1e-14, rtol=8.9e-16)
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
    return _brentq(tdq, lo, hi, xtol=1e-16, rtol=8.9e-16)


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

    m0 is the eta -> 0 quasi-average of the k = 0 mode, read off the
    Karush-Kuhn-Tucker multiplier grad_rho / v of the constraint
    sigma >= 0 at a boundary minimum, where the inner minimum presses on
    sigma = 0: the multiplier for u >= 0 and half of it for u < 0 (see
    `_result_at`).  At an interior minimum m0 is 0; so it is in dim <= 2
    for u <= 0, where q_bar = 0 and the minimum is interior.  The CLI
    takes this path at every point but u > 0 in dim 2.  `result` is
    the eta = 0 solve itself: its status is STATUS_BOUNDARY exactly when
    the multiplier applies, and its residuals are computed only if read.
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
    extrapolated limits of `eta_continuation` where both apply (every
    point but u > 0 in dim 2), at a small fraction of the cost.  For
    u <= 0 it is the mean-field Bose gas, q_bar = 0 without a search.
    """
    with plan_scope(), _float_range():
        res = outer_opt(model, tp, 0.0)
    return VariationalLimit(p_limit=res.pressure, q_limit=res.q_bar,
                            rho_limit=res.rho_bar, m0=res.rho0,
                            gap_limit=res.gap, result=res)


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
    return float(_brentq(F, lo + eps, hi, xtol=1e-15, rtol=8.9e-16))


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
