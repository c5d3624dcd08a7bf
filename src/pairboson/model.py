"""Physical model: dispersion, pair-coupling profile and finite-volume lattice.

Conventions: hbar = 1, dispersion eps(k) = ||k||^2 / (2m). The pair-coupling
profile lambda is gauge-reduced (real, lambda(0) = 1, |lambda| <= 1) and
isotropic, so every momentum integral reduces to a radial one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError

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
    """Isotropic pair-coupling profile lambda(k), nonincreasing in ||k||."""

    kind: int
    a: float = 0.0       # gaussian: lambda = exp(-a r^2)
    c: float = 0.0       # power: lambda = 1 / (1 + (c r)^p)
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in _KIND_NAMES:
            raise ModelError(f"unknown profile kind {self.kind}")
        if self.kind == PROFILE_GAUSSIAN and self.a <= 0:
            raise ModelError("gaussian profile requires a > 0")
        if self.kind == PROFILE_POWER and (self.c <= 0 or self.p <= 0):
            raise ModelError("power profile requires c > 0 and p > 0")

    def value_radial(self, r):
        """lambda as a function of ||k||; vectorized over r >= 0."""
        r = np.asarray(r, dtype=float)
        if self.kind == PROFILE_GAUSSIAN:
            return np.exp(-self.a * r * r)
        if self.kind == PROFILE_POWER:
            return 1.0 / (1.0 + (self.c * r) ** self.p)
        return np.where(r == 0.0, 1.0, 0.0)

    def complement_radial(self, r):
        """1 - lambda, accurate to the last bits where lambda is near 1."""
        r = np.asarray(r, dtype=float)
        if self.kind == PROFILE_GAUSSIAN:
            return -np.expm1(-self.a * r * r)
        if self.kind == PROFILE_POWER:
            t = (self.c * r) ** self.p
            return t / (1.0 + t)
        return np.where(r == 0.0, 0.0, 1.0)

    def origin_curvature(self) -> float:
        """lim (1 - lambda(r)) / r^2 as r -> 0: a for the gaussian, and for
        a power profile 0, c^2 or inf as p > 2, p = 2 or p < 2; inf for
        delta, whose 1 - lambda is 1 at every r > 0."""
        if self.kind == PROFILE_GAUSSIAN:
            return self.a
        if self.kind == PROFILE_POWER and self.p >= 2.0:
            return self.c ** 2 if self.p == 2.0 else 0.0
        return math.inf

    def describe(self) -> str:
        if self.kind == PROFILE_GAUSSIAN:
            return f"gaussian:{self.a}"
        if self.kind == PROFILE_POWER:
            return f"power:{self.c}:{self.p}"
        return "delta"


def gaussian_profile(a: float) -> CouplingProfile:
    return CouplingProfile(PROFILE_GAUSSIAN, a=a)


def power_profile(c: float, p: float) -> CouplingProfile:
    """1 / (1 + (c r)^p); `Model` checks p against the dimension."""
    return CouplingProfile(PROFILE_POWER, c=c, p=p)


def delta_profile() -> CouplingProfile:
    return CouplingProfile(PROFILE_DELTA_ZERO)


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
        # the norms sum |lambda| and sum eps |lambda|^2 converge only if
        # lambda decays faster than ||k||^-max(nu, nu/2 + 1)
        prof = self.lambda_profile
        required = max(self.dim, self.dim / 2.0 + 1.0)
        if prof.kind == PROFILE_POWER and prof.p <= required:
            raise ModelError(
                f"power profile needs p > {required} for nu={self.dim}")
        if self.dim < 1:
            raise ModelError("dim must be a positive integer")
        if self.mass <= 0:
            raise ModelError("mass must be positive")
        if self.v <= 0:
            raise ModelError("requires v > 0")
        if self.v - self.u <= 0:
            raise ModelError("requires v - u > 0")

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

