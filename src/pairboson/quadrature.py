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
from typing import NamedTuple

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc

from .errors import ModelError, QuadratureFailure, TailNotConverged
from .kernels import eval_rows
from .model import (
    PROFILE_DELTA_ZERO,
    PROFILE_GAUSSIAN,
    PROFILE_POWER,
    CouplingProfile,
)

# Gauss-Kronrod 7-15 abscissae and weights on (-1, 1), from the 30-digit
# QUADPACK QK15 table (Piessens et al., 1983); the 7 Gauss nodes are
# the odd-indexed Kronrod nodes, so one batch of 15 evaluations yields both
# estimates.  No node sits on an endpoint, so soft r = 0 singularities
# (integrable once multiplied by r^(nu-1)) never hit a pole.
_XK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
])

XK = np.concatenate([-_XK_HALF[:7], _XK_HALF[::-1]])            # 15 sorted nodes
WK = np.concatenate([_WK_HALF[:7], _WK_HALF[::-1]])
_G_IDX = np.array([1, 3, 5, 7, 9, 11, 13])                      # Gauss subset
WG = np.zeros(15)
WG[_G_IDX] = np.concatenate([_WG_HALF[:3], _WG_HALF[::-1]])

_REL_TOL = 1e-10      # error target of the needed rows, relative to the largest
_ABS_TOL = 1e-12      # absolute floor of that target
_TAIL_TOL = 1e-13     # bound on the discarded [R, inf) tail of every row
_MAX_PANELS = 4000    # panel budget of one call
_ORIGIN_SPLIT = 16.0  # a panel [0, b] splits at b / 16, other panels in half
# kernel nodes per eval_rows call: past about this many the arrays of one
# call leave the cache
_CHUNK = 6000


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


def _tail_parts(profile, nu, mass, beta, R):
    """The factors of `_tail_bound` that depend on R alone: (eps(R), c_nu,
    the Bose term A * tail, the profile tail).  A plan entry keeps those of
    its R, so a warm call recomputes only the pair factor B(habs)."""
    A = max(2.0 / beta, 2.4, 5.4 * beta)
    return (R * R / (2.0 * mass), angular_factor(nu),
            A * _gaussian_tail(nu, 0.2 * beta / mass, R),
            _profile_sq_tail(profile, nu - 2.0, R))


def _tail_bound(parts, mass, beta, foff, habs) -> float:
    """Certified bound on the discarded [R, inf) part of every row, from the
    `_tail_parts` of R.

    Valid whenever eps(R) >= 2 (|foff| + habs + 1/beta + 1): then f >= eps/2,
    |h| <= f/4, E >= 0.43 eps, f/E <= 1.16 and beta E >= 0.8, giving
    n_B <= 2 exp(-0.4 beta eps).
    """
    eps_R, c_nu, bose, profile_tail = parts
    if eps_R < 2.0 * (abs(foff) + habs + 1.0 / beta + 1.0):
        return math.inf
    B = 2.0 * mass * max(habs * habs * (1.0 + 5.4 / eps_R + 32.0 / eps_R ** 2), 1.2)
    return c_nu * (bose + B * profile_tail)


def _choose_cutoff(profile, nu, mass, beta, foff, habs):
    """The first R of a 1.5x ladder whose tail bound meets _TAIL_TOL, with
    its `_tail_parts`."""
    R = math.sqrt(2.0 * mass * 2.0 * (abs(foff) + habs + 1.0 / beta + 1.0))
    R = max(R, math.sqrt(2.0 * mass / beta))
    for _ in range(200):
        try:
            parts = _tail_parts(profile, nu, mass, beta, R)
            bound = _tail_bound(parts, mass, beta, foff, habs)
        except OverflowError:
            break  # a factor of the bound is past the float range at every R
        if bound < _TAIL_TOL:
            return R, parts
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
    `_tail_parts` of R and the node arrays that the mesh alone determines
    (see `_mesh_nodes`)."""

    R: float
    tail: tuple
    a: np.ndarray
    b: np.ndarray
    half: np.ndarray
    nodes: np.ndarray
    lam: np.ndarray
    lam_c: np.ndarray
    weight: np.ndarray


def _mesh_nodes(profile, nu, a, b):
    """(half, nodes, lam, lam_c, weight) of the panels [a_i, b_i]: the
    half-widths, the 15 Gauss-Kronrod nodes of every panel flattened panel
    by panel, the profile lam(r), its complement 1 - lam(r) and the radial
    measure c_nu r^(nu-1) at the nodes."""
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = (mid + half * XK).ravel()
    return (half[:, 0], nodes, profile.value_radial(nodes),
            profile.complement_radial(nodes),
            angular_factor(nu) * nodes ** (nu - 1))


# Plan entries of the last strictly converged call, keyed by (profile, nu,
# mass, beta, rows).  A dict exists only inside `plan_scope`;
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


def _refine(panel_integrals, a, b, ik, err, n):
    """Split panels until every point's error estimate meets its tolerance.

    Starts from the per-panel integrals ik, shape (rows, K, panels), and
    errors err, shape (K, panels), of K points on the mesh (a, b); err is
    that of the first n rows of ik, the converged ones.  A point's target
    is max(_ABS_TOL, _REL_TOL * its largest |total| over those rows), and a
    point that meets it with a finite total is done: its totals are kept
    and later splits neither serve nor evaluate it.  A panel is split when
    any pending point's error on it exceeds that point's share of its
    target; panel_integrals(a, b, pending) evaluates the new panels for
    the pending points alone.  Returns (total, err, a, b): total, shape
    (rows, K), if every point converged, else None; err that of the points
    still pending (or of none); a mesh that needed no split is returned as
    the same arrays.
    """
    total = np.empty(ik.shape[:2])
    pending = np.arange(ik.shape[1])
    for _ in range(64):
        sums = ik.sum(axis=2)
        top = np.abs(sums[:n]).max(axis=0)
        tol = np.maximum(_ABS_TOL, _REL_TOL * top)
        done = np.isfinite(top) & (err.sum(axis=1) <= tol)
        if done.all():
            total[:, pending] = sums
            return total, err[:0], a, b
        if done.any():
            total[:, pending[done]] = sums[:, done]
            pending, ik, err, tol = (pending[~done], ik[:, ~done],
                                     err[~done], tol[~done])
        if len(a) >= _MAX_PANELS:
            break
        # split every panel holding more than its share of some pending
        # point's error budget
        bad = (err > (tol / (2.0 * len(a)))[:, None]).any(axis=0)
        if not bad.any():
            bad[np.argmax(err.max(axis=0))] = True
        # the infrared scales (sqrt(sigma) near the boundary) sit at
        # r -> 0: the panel at the origin splits toward it geometrically
        mids = np.where(a[bad] == 0.0, b[bad] / _ORIGIN_SPLIT,
                        0.5 * (a[bad] + b[bad]))
        new_a = np.concatenate([a[~bad], a[bad], mids])
        new_b = np.concatenate([b[~bad], mids, b[bad]])
        ik_bad, err_bad = panel_integrals(
            np.concatenate([a[bad], mids]), np.concatenate([mids, b[bad]]),
            pending)
        ik = np.concatenate([ik[:, :, ~bad], ik_bad], axis=2)
        err = np.concatenate([err[:, ~bad], err_bad], axis=1)
        a, b = new_a, new_b
    return None, err, a, b


def radial_rows(profile: CouplingProfile, nu: int, mass: float, beta: float,
                foff, habs, rows, extra=()) -> np.ndarray:
    """The integrals of the kernel rows `rows`, then those of `extra`, at
    one evaluation point or at a batch of K.

    foff = v rho - mu is the k = 0 value of f; habs = |u| q scales the pair
    field.  Requires the feasibility margin foff - habs >= 0 (the integrals
    stay finite at exactly zero margin thanks to the r^(nu-1) measure, except
    the curvature row in nu <= 3 which diverges there).  The integrals of
    `rows` are converged to tolerance; those of `extra` are summed on the
    same mesh at whatever accuracy it gives them, so a boundary point can
    still read a row that diverges there.  Inside `plan_scope` a call
    first tries the previous call's cutoff and mesh for the same `rows`.

    Scalar foff and habs give shape (len(rows) + len(extra),).  Arrays of
    K points give shape (len(rows) + len(extra), K), all K integrated on
    one mesh: one cutoff that certifies every point's tail, and panels
    split until each point meets its own tolerance (see `_refine`).  The
    call raises if any point fails; the kernel sees the K points as one
    flat batch, in chunks of at most _CHUNK nodes.
    """
    rows = tuple(rows)
    one = np.ndim(foff) == 0 == np.ndim(habs)
    foff = np.array(foff, dtype=float, ndmin=1)
    habs = np.array(habs, dtype=float, ndmin=1)
    if foff.shape != habs.shape:
        foff, habs = np.broadcast_arrays(foff, habs)
    if habs.min() < 0:
        raise ModelError("habs must be nonnegative")
    margin = (foff - habs).min()
    if margin < 0:
        raise QuadratureFailure(
            f"infeasible evaluation point: f(0) - |h(0)| = {margin} < 0")
    # the tail bound grows with foff >= habs >= 0 and with habs: the
    # largest of each certifies every point's tail
    foff_top, habs_top = float(foff.max()), float(habs.max())
    inv_2m = 0.5 / mass
    every = rows + tuple(extra)
    n = len(rows)

    def panel_sums(half, nodes, lam, lam_c, weight, points=slice(None)):
        # per-panel Kronrod integrals and |Kronrod - Gauss| errors of the
        # points, shapes (rows, K, panels) and (K, panels); the kernel
        # sees the points' nodes as one flat batch, foff and habs repeated
        # per node
        fo, ha = foff[points], habs[points]
        k, m = len(fo), len(nodes)
        if k > 1:
            nodes, lam, lam_c = (np.tile(x, k) for x in (nodes, lam, lam_c))
        fo, ha = fo.repeat(m), ha.repeat(m)
        cuts = [slice(i, i + _CHUNK) for i in range(0, k * m, _CHUNK)]
        vals = np.concatenate(
            [eval_rows(nodes[c], lam[c], lam_c[c], beta, inv_2m, fo[c],
                       ha[c], every) for c in cuts], axis=1)
        vals = (vals.reshape(len(every), k, m) * weight).reshape(
            len(every), k, len(half), 15)
        ik = (vals @ WK) * half
        ig = (vals @ WG) * half
        return ik, np.abs(ik[:n] - ig[:n]).max(axis=0)

    def panel_integrals(a, b, points):
        return panel_sums(*_mesh_nodes(profile, nu, a, b), points)

    def entry_of(R, tail, a, b):
        return _PlanEntry(R, tail, a, b, *_mesh_nodes(profile, nu, a, b))

    plan = _PLAN.get()
    key = (profile, nu, mass, beta, rows)

    def converge(entry):
        # _refine from the entry's mesh (its fields from `half` on are the
        # `_mesh_nodes` of that mesh); a converged entry is kept in the
        # plan, rebuilt if the mesh was refined
        ik, err = panel_sums(*entry[4:])
        total, err, a, b = _refine(panel_integrals, entry.a, entry.b, ik,
                                   err, n)
        if total is not None and plan is not None:
            if a is not entry.a:
                entry = entry_of(entry.R, entry.tail, a, b)
            plan[key] = entry
        return total, err, a

    def result(total):
        return total[:, 0] if one else total

    warm = plan.get(key) if plan is not None else None
    if warm is not None and _tail_bound(warm.tail, mass, beta, foff_top,
                                        habs_top) < _TAIL_TOL:
        total = converge(warm)[0]
        if total is not None:
            return result(total)

    R, tail = _choose_cutoff(profile, nu, mass, beta, foff_top, habs_top)
    breaks = _initial_breaks(profile, nu, mass, beta, R)
    total, err, a = converge(entry_of(R, tail, breaks[:-1], breaks[1:]))
    if total is not None:
        return result(total)
    raise QuadratureFailure(
        "radial quadrature did not converge: error "
        f"{err.sum(axis=1).max():.3e} with {len(a)} panels")
