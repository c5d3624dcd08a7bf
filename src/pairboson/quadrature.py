"""Adaptive radial quadrature for the spectral integrand rows.

Isotropy reduces every nu-dimensional momentum integral with measure
d^nu k / (2 pi)^nu to c_nu * int_0^inf r^(nu-1) g(r) dr with
c_nu = 2 pi^(nu/2) / Gamma(nu/2) / (2 pi)^nu.  The integrand rows are
evaluated in batch by `kernels.eval_rows` and integrated with a vectorized
adaptive Gauss-Kronrod 7-15 rule on [0, R]; R is chosen so that a certified
analytic bound on the discarded tail is below tolerance.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc

from .errors import QuadratureFailure, TailNotConverged
from .kernels import NROWS, eval_rows
from .model import (
    PROFILE_DELTA_ZERO,
    PROFILE_GAUSSIAN,
    PROFILE_POWER,
    CouplingProfile,
)

# Gauss-Kronrod 7-15 abscissae and weights on (-1, 1); the 7 Gauss nodes are
# the odd-indexed Kronrod nodes, so one batch of 15 evaluations yields both
# estimates.  No node sits on an endpoint, so soft r = 0 singularities
# (integrable once multiplied by r^(nu-1)) never hit a pole.
_XK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322850,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG_HALF = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

XK = np.concatenate([-_XK_HALF[:7], _XK_HALF[::-1]])            # 15 sorted nodes
WK = np.concatenate([_WK_HALF[:7], _WK_HALF[::-1]])
_G_IDX = np.array([1, 3, 5, 7, 9, 11, 13])                      # Gauss subset
WG = np.zeros(15)
WG[_G_IDX] = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budgets for the radial integrals."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    tail_tol: float = 1e-13
    max_panels: int = 4000


def angular_factor(nu: int) -> float:
    """c_nu: surface of the unit sphere over (2 pi)^nu."""
    return 2.0 * math.pi ** (nu / 2.0) / gamma_fn(nu / 2.0) / (2.0 * math.pi) ** nu


def _gaussian_tail(s: float, b: float, R: float) -> float:
    """Upper bound on int_R^inf r^(s-1) exp(-b r^2) dr for b, R > 0."""
    if s <= 0:
        # r^(s-1) is decreasing: bound by R^(s-1) * int exp(-b r^2)
        return R ** (s - 1.0) * 0.5 * math.sqrt(math.pi / b) * math.erfc(math.sqrt(b) * R)
    t = s / 2.0
    return 0.5 * b ** (-t) * gamma_fn(t) * gammaincc(t, b * R * R)


def _profile_sq_tail(profile: CouplingProfile, s: float, R: float) -> float:
    """Upper bound on int_R^inf r^(s-1) lam(r)^2 dr."""
    if profile.kind == PROFILE_DELTA_ZERO:
        return 0.0
    if profile.kind == PROFILE_GAUSSIAN:
        return _gaussian_tail(s, 2.0 * profile.a, R)
    # power: lam(r)^2 <= (c r)^(-2p)
    expo = s - 2.0 * profile.p
    if expo >= 0:
        return math.inf
    return profile.c ** (-2.0 * profile.p) * R ** expo / (-expo)


def _tail_bound(profile, nu, mass, beta, foff, habs, R) -> float:
    """Certified bound on the discarded [R, inf) part of every row.

    Valid whenever eps(R) >= 2 (|foff| + habs + 1/beta + 1): then f >= eps/2,
    |h| <= f/4, E >= 0.43 eps, f/E <= 1.16 and beta E >= 0.8, giving
    n_B <= 2 exp(-0.4 beta eps).
    """
    c_nu = angular_factor(nu)
    eps_R = R * R / (2.0 * mass)
    if eps_R < 2.0 * (abs(foff) + habs + 1.0 / beta + 1.0):
        return math.inf
    A = max(2.0 / beta, 2.4, 5.4 * beta)
    bose = A * _gaussian_tail(nu, 0.2 * beta / mass, R)
    B = 2.0 * mass * max(habs * habs * (1.0 + 5.4 / eps_R + 32.0 / eps_R ** 2), 1.2)
    pair = B * _profile_sq_tail(profile, nu - 2.0, R)
    return c_nu * (bose + pair)


def _choose_cutoff(profile, nu, mass, beta, foff, habs, tail_tol) -> float:
    R = math.sqrt(2.0 * mass * 2.0 * (abs(foff) + habs + 1.0 / beta + 1.0))
    R = max(R, math.sqrt(2.0 * mass / beta))
    for _ in range(200):
        if _tail_bound(profile, nu, mass, beta, foff, habs, R) < tail_tol:
            return R
        R *= 1.5
    raise TailNotConverged("could not certify the radial tail below tolerance")


def _initial_breaks(profile, nu, mass, beta, R):
    """Panel breakpoints: geometric ladder resolving every intrinsic scale."""
    scales = [math.sqrt(2.0 * mass / beta)]
    if profile.kind == PROFILE_GAUSSIAN:
        scales.append(1.0 / math.sqrt(profile.a))
    elif profile.kind == PROFILE_POWER:
        scales.append(1.0 / profile.c)
    r0 = min(scales) / 64.0
    pts = [0.0]
    r = min(r0, R / 2.0)
    while r < R:
        pts.append(r)
        r *= 2.0
    pts.append(R)
    return np.array(pts)


class _PlanEntry(NamedTuple):
    """Cutoff R and panel mesh (a, b) of a strictly converged call, with the
    node arrays that the mesh alone determines (see `_mesh_nodes`)."""

    R: float
    a: np.ndarray
    b: np.ndarray
    half: np.ndarray
    nodes: np.ndarray
    lam: np.ndarray
    weight: np.ndarray


def _mesh_nodes(profile, nu, a, b):
    """(half, nodes, lam, weight) of the panels [a_i, b_i]: the half-widths,
    the 15 Gauss-Kronrod nodes of every panel flattened panel by panel, the
    profile lam(r) and the radial measure c_nu r^(nu-1) at the nodes."""
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = (mid + half * XK).ravel()
    return (half[:, 0], nodes, profile.value_radial(nodes),
            angular_factor(nu) * nodes ** (nu - 1))


# Plan entries of the last strictly converged call, keyed by (profile, nu,
# mass, beta, cfg, need).  A dict exists only inside `plan_scope`;
# elsewhere every call runs cold.
_PLAN: contextvars.ContextVar = contextvars.ContextVar("quadrature_plan",
                                                       default=None)


@contextlib.contextmanager
def plan_scope():
    """Let `radial_rows` calls in the block start from the previous mesh.

    Successive calls of one eta continuation lie close together, so the
    last converged cutoff and mesh usually already meet the tolerance.  A
    stored R is reused only while it certifies the tail at the new
    (foff, habs), and a mesh only when it converges strictly; any other
    call runs exactly the cold path.  Each stored mesh keeps its nodes,
    lam(r) and measure, rebuilt whenever the mesh changes, so a call that
    converges on it evaluates only the kernel.  The plan is dropped on exit.
    """
    token = _PLAN.set({})
    try:
        yield
    finally:
        _PLAN.reset(token)


def _refine(panel_integrals, a, b, ik, err, need, cfg, stop_nonfinite=False):
    """Split panels until the error estimate meets the tolerance.

    Starts from the per-panel integrals ik and errors err of the mesh
    (a, b).  Returns (converged, ik, err, a, b, tol) with those of the final
    mesh; a mesh that needed no split is returned as the same arrays.  With
    stop_nonfinite, a non-finite error ends the loop instead of refining.
    """
    tol = math.inf
    for _ in range(64):
        total = ik.sum(axis=1)
        tol = max(cfg.abs_tol, cfg.rel_tol * float(np.abs(total[need]).max()))
        if err.sum() <= tol:
            return True, ik, err, a, b, tol
        if len(a) >= cfg.max_panels or (stop_nonfinite
                                        and not np.isfinite(err.sum())):
            break
        # split every panel holding more than its share of the error budget
        bad = err > tol / (2.0 * len(a))
        if not bad.any():
            bad[np.argmax(err)] = True
        mids = 0.5 * (a[bad] + b[bad])
        new_a = np.concatenate([a[~bad], a[bad], mids])
        new_b = np.concatenate([b[~bad], mids, b[bad]])
        ik_bad, err_bad = panel_integrals(
            np.concatenate([a[bad], mids]), np.concatenate([mids, b[bad]]))
        ik = np.concatenate([ik[:, ~bad], ik_bad], axis=1)
        err = np.concatenate([err[~bad], err_bad])
        a, b = new_a, new_b
    return False, ik, err, a, b, tol


def radial_rows(profile: CouplingProfile, nu: int, mass: float, beta: float,
                foff: float, habs: float,
                cfg: QuadratureConfig | None = None,
                need=(0, 1, 2, 3), rows=None) -> np.ndarray:
    """The four integral rows of the radial spectral integrand.

    foff = v rho - mu is the k = 0 value of f; habs = |u| q scales the pair
    field.  Requires the feasibility margin foff - habs >= 0 (the integrals
    stay finite at exactly zero margin thanks to the r^(nu-1) measure, except
    the curvature row in nu <= 3 which diverges there).  Only the rows
    listed in `rows` (default: `need`, of which it must hold every row) are
    computed, and the others are NaN.  Convergence is enforced only for the
    rows in `need`; the rest come at whatever accuracy fell out, so boundary
    points can still evaluate the rows that remain finite.  Inside
    `plan_scope` a call first tries the previous call's cutoff and mesh.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    rows = tuple(need) if rows is None else tuple(rows)
    if not set(need) <= set(rows):
        raise ValueError("rows must include every row in need")
    need = np.asarray(need, dtype=int)
    if habs < 0:
        raise ValueError("habs must be nonnegative")
    if foff - habs < 0:
        raise QuadratureFailure(
            f"infeasible evaluation point: f(0) - |h(0)| = {foff - habs} < 0")
    inv_2m = 0.5 / mass

    def panel_sums(half, nodes, lam, weight):
        # per-panel Kronrod integrals and |Kronrod - Gauss| errors
        vals = eval_rows(nodes, lam, beta, inv_2m, foff, habs, rows=rows)
        vals = (vals * weight).reshape(NROWS, len(half), 15)
        ik = (vals @ WK) * half
        ig = (vals @ WG) * half
        return ik, np.abs(ik - ig)[need].max(axis=0)

    def panel_integrals(a, b):
        return panel_sums(*_mesh_nodes(profile, nu, a, b))

    plan = _PLAN.get()
    key = (profile, nu, mass, beta, cfg, tuple(need.tolist()))

    def store(R, a, b):
        plan[key] = _PlanEntry(R, a, b, *_mesh_nodes(profile, nu, a, b))

    warm = plan.get(key) if plan is not None else None
    if warm is not None and _tail_bound(profile, nu, mass, beta, foff, habs,
                                        warm.R) < cfg.tail_tol:
        # a carried node can sit where E = 0 in floats at a boundary point;
        # the non-finite value then sends the call down the cold path
        with np.errstate(divide="ignore", invalid="ignore"):
            ik, err = panel_sums(warm.half, warm.nodes, warm.lam, warm.weight)
            ok, ik, _, a, b, _ = _refine(panel_integrals, warm.a, warm.b,
                                         ik, err, need, cfg,
                                         stop_nonfinite=True)
        total = ik.sum(axis=1)
        if ok and np.isfinite(total[need]).all():
            if a is not warm.a:
                store(warm.R, a, b)
            return total

    R = _choose_cutoff(profile, nu, mass, beta, foff, habs, cfg.tail_tol)
    breaks = _initial_breaks(profile, nu, mass, beta, R)
    a, b = breaks[:-1], breaks[1:]
    ik, err = panel_integrals(a, b)
    ok, ik, err, a, b, tol = _refine(panel_integrals, a, b, ik, err, need, cfg)
    if ok:
        if plan is not None:
            store(R, a, b)
        return ik.sum(axis=1)
    # boundary-grazing integrands can stall on roundoff: accept when the
    # certified error is still within a 100x band of the requested tolerance
    if err.sum() <= 100.0 * tol:
        return ik.sum(axis=1)
    raise QuadratureFailure(
        f"radial quadrature did not converge: error {err.sum():.3e} "
        f"with {len(a)} panels")
