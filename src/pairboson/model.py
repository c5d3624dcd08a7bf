"""Physical model: dispersion, pair-coupling profile and finite-volume lattice.

Conventions: hbar = 1, dispersion eps(k) = ||k||^2 / (2m). The pair-coupling
profile lambda is gauge-reduced (real, lambda(0) = 1, |lambda| <= 1) and
isotropic, so every momentum integral reduces to a radial one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, TailNotConverged

PROFILE_GAUSSIAN = 0
PROFILE_POWER = 1
PROFILE_DELTA_ZERO = 2

_KIND_NAMES = {
    PROFILE_GAUSSIAN: "gaussian",
    PROFILE_POWER: "power",
    PROFILE_DELTA_ZERO: "delta_zero",
}


@dataclass(frozen=True)
class CouplingProfile:
    """Isotropic pair-coupling profile lambda(k), with a declared decay bound.

    declared_decay = (C, delta) certifies
    |lambda(k)| <= C / (1 + ||k||^(max(nu, nu/2+1) + delta)).
    """

    kind: int
    a: float = 0.0       # gaussian: lambda = exp(-a r^2)
    c: float = 0.0       # power: lambda = 1 / (1 + (c r)^p)
    p: float = 0.0
    declared_decay: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.kind not in _KIND_NAMES:
            raise ModelError(f"unknown profile kind {self.kind}")
        if self.kind == PROFILE_GAUSSIAN and self.a <= 0:
            raise ModelError("gaussian profile requires a > 0")
        if self.kind == PROFILE_POWER and (self.c <= 0 or self.p <= 0):
            raise ModelError("power profile requires c > 0 and p > 0")
        C, delta = self.declared_decay
        if C <= 0 or delta <= 0:
            raise ModelError("declared_decay requires C > 0 and delta > 0")

    def value_radial(self, r):
        """lambda as a function of ||k||; vectorized over r >= 0."""
        r = np.asarray(r, dtype=float)
        if self.kind == PROFILE_GAUSSIAN:
            return np.exp(-self.a * r * r)
        if self.kind == PROFILE_POWER:
            return 1.0 / (1.0 + (self.c * r) ** self.p)
        return np.where(r == 0.0, 1.0, 0.0)

    def decay_exponent_required(self, nu: int) -> float:
        _, delta = self.declared_decay
        return max(nu, nu / 2.0 + 1.0) + delta

    def validate_for_dimension(self, nu: int) -> None:
        """Reject profiles whose decay cannot satisfy the declared bound."""
        if self.kind == PROFILE_POWER and self.p < self.decay_exponent_required(nu):
            raise ModelError(
                f"power profile exponent p={self.p} below required "
                f"{self.decay_exponent_required(nu)} for nu={nu}"
            )
        if (self.kind == PROFILE_GAUSSIAN
                and self.decay_exponent_required(nu) > _GAUSSIAN_ENVELOPE_P):
            raise ModelError(
                f"gaussian envelope certified only up to exponent "
                f"{_GAUSSIAN_ENVELOPE_P}; nu={nu} requires "
                f"{self.decay_exponent_required(nu)}"
            )

    def describe(self) -> str:
        if self.kind == PROFILE_GAUSSIAN:
            return f"gaussian:{self.a}"
        if self.kind == PROFILE_POWER:
            return f"power:{self.c}:{self.p}"
        return "delta"


# Largest envelope exponent the gaussian factory certifies; covers every
# dimension with max(nu, nu/2+1) + delta <= P.
_GAUSSIAN_ENVELOPE_P = 16.0


def gaussian_profile(a: float, declared_decay: tuple[float, float] | None = None) -> CouplingProfile:
    """exp(-a r^2); any polynomial envelope works, pick one generous constant."""
    if declared_decay is None:
        # exp(-a r^2) (1 + r^E) <= C for every E <= P:
        # sup_r r^P exp(-a r^2) = (P/(2ea))^{P/2}, and for r < 1 the left
        # side is below 2.  delta = P - max exponent consumed by nu <= 8.
        if a <= 0:
            raise ModelError("gaussian profile requires a > 0")
        P = _GAUSSIAN_ENVELOPE_P
        C = 2.0 + (P / (2.0 * math.e * a)) ** (P / 2.0)
        declared_decay = (C, 8.0)
    return CouplingProfile(PROFILE_GAUSSIAN, a=a, declared_decay=declared_decay)


def power_profile(c: float, p: float, nu: int = 3,
                  declared_decay: tuple[float, float] | None = None) -> CouplingProfile:
    """1 / (1 + (c r)^p): requires p >= max(nu, nu/2 + 1) + delta."""
    if declared_decay is None:
        required = max(nu, nu / 2.0 + 1.0)
        if p <= required:
            raise ModelError(f"power profile needs p > {required} for nu={nu}")
        delta = p - required
        # 1/(1+(cr)^p) <= C/(1+r^p) with C = max(1, c^-p)
        C = max(1.0, c ** (-p))
        declared_decay = (C, delta)
    prof = CouplingProfile(PROFILE_POWER, c=c, p=p, declared_decay=declared_decay)
    prof.validate_for_dimension(nu)
    return prof


def delta_profile() -> CouplingProfile:
    return CouplingProfile(PROFILE_DELTA_ZERO, declared_decay=(1.0, 1.0))


@dataclass(frozen=True)
class Model:
    """Pair boson model parameters.

    u > 0 is the BCS-attractive channel, u <= 0 repulsive; v is the
    mean-field coupling. Standing assumptions: v > 0 and alpha = v - u > 0.
    """

    dim: int = 3
    mass: float = 0.5
    u: float = 0.0
    v: float = 1.0
    lambda_profile: CouplingProfile = field(default_factory=lambda: gaussian_profile(1.0))

    def __post_init__(self):
        if self.dim < 1:
            raise ModelError("dim must be a positive integer")
        if self.mass <= 0:
            raise ModelError("mass must be positive")
        if self.v <= 0:
            raise ModelError("requires v > 0")
        if self.v - self.u <= 0:
            raise ModelError("requires v - u > 0")
        self.lambda_profile.validate_for_dimension(self.dim)

    @property
    def alpha(self) -> float:
        return self.v - self.u


@dataclass(frozen=True)
class LatticeSpec:
    """Cubic box of side L with modes k = 2 pi s / L, ||s||_inf <= s_max."""

    L: float
    s_max: int

    def __post_init__(self):
        if self.L <= 0:
            raise ModelError("box side L must be positive")
        if self.s_max < 0:
            raise ModelError("mode cutoff s_max must be >= 0")

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi / self.L

    def volume(self, dim: int) -> float:
        return self.L ** dim


def epsilon_radial(model: Model, r):
    r = np.asarray(r, dtype=float)
    return r * r / (2.0 * model.mass)


def lattice_norms(model: Model, lat: LatticeSpec):
    """Radial norms ||k|| of all lattice modes as an array (fast path)."""
    nu = model.dim
    s = np.arange(-lat.s_max, lat.s_max + 1, dtype=float)
    grids = np.meshgrid(*([s] * nu), indexing="ij")
    sq = sum(g * g for g in grids)
    return lat.spacing * np.sqrt(sq.ravel())


def _profile_tail_sum(model: Model, lat: LatticeSpec, weight: str) -> float:
    """Certified upper bound on the lattice sum of |lambda| (weight='m') or
    eps |lambda|^2 (weight='n') over modes with ||s||_inf > s_max."""
    prof = model.lambda_profile
    if prof.kind == PROFILE_DELTA_ZERO:
        return 0.0
    nu = model.dim
    step = lat.spacing
    P = prof.decay_exponent_required(nu)
    C, _ = prof.declared_decay
    total = 0.0
    j = lat.s_max + 1
    while True:
        # shell ||s||_inf = j: count <= 2 nu (2j+1)^(nu-1), ||k|| >= step*j
        count = (2 * j + 1) ** nu - (2 * j - 1) ** nu
        r = step * j
        lam_bound = C / (1.0 + r ** P)
        if weight == "m":
            term = count * lam_bound
        else:
            term = count * (r * r / (2.0 * model.mass)) * lam_bound ** 2
        total += term
        if term < 1e-30 * max(total, 1.0) or j > lat.s_max + 10_000:
            break
        j += 1
    return total


def mode_coupling_norms(model: Model, r, V: float):
    """Coupling norms over the modes of radial norms r in volume V.

    Returns (m_norm, n_norm, c_norm, M) with m_norm = sum |lambda|,
    n_norm = sum eps |lambda|^2, c_norm = max eps |lambda|^2 and
    M = max(m_norm/V, n_norm/V, c_norm).
    """
    r = np.asarray(r, dtype=float)
    lam = np.abs(model.lambda_profile.value_radial(r))
    w = epsilon_radial(model, r) * lam * lam
    m_norm = float(np.sum(lam))
    n_norm = float(np.sum(w))
    c_norm = float(np.max(w))
    return m_norm, n_norm, c_norm, max(m_norm / V, n_norm / V, c_norm)


def coupling_norms(model: Model, lat: LatticeSpec, tail_tol: float = 1e-8):
    """`mode_coupling_norms` over every lattice mode: (m_norm, n_norm,
    c_norm, M), M being the smallest constant the lattice exhibits.

    Raises TailNotConverged when the certified remainder beyond the cutoff
    exceeds tail_tol relative to the computed sums.
    """
    norms = mode_coupling_norms(model, lattice_norms(model, lat),
                                lat.volume(model.dim))
    m_norm, n_norm = norms[:2]
    tail_m = _profile_tail_sum(model, lat, "m")
    tail_n = _profile_tail_sum(model, lat, "n")
    if tail_m > tail_tol * max(m_norm, 1.0) or tail_n > tail_tol * max(n_norm, 1.0):
        raise TailNotConverged(
            f"profile tail beyond s_max={lat.s_max} exceeds tolerance "
            f"(tail_m={tail_m:.3e}, tail_n={tail_n:.3e})"
        )
    return norms
