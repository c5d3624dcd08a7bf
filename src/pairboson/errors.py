"""Exception hierarchy for the pairboson package."""


class PairBosonError(Exception):
    """Base class for all package errors."""


class ModelError(PairBosonError):
    """Invalid model parameters (couplings, profile, lattice)."""


class TailNotConverged(PairBosonError):
    """The radial quadrature could not certify its tail below tolerance."""


class InfeasiblePoint(PairBosonError):
    """Pressure is infinite at this (q, rho, eta) point."""


class QuadratureFailure(PairBosonError):
    """A radial integral could not be evaluated: the adaptive quadrature
    missed its error target, or a closed-form row was NaN or left the
    float range."""


class BracketFailure(PairBosonError):
    """Root bracketing failed in the inner density minimization."""


class StationarityViolated(PairBosonError):
    """An optimum fails a stationarity check: total_dq called at a rho that
    is not stationary in rho, or an eta = 0 optimum whose Euler-Lagrange
    residuals miss their bound or whose gap lies below the float range,
    where they cannot be formed (SolveResult.checked_residuals)."""


class ContinuationDiverged(PairBosonError):
    """Successive eta-continuation iterates failed the Cauchy criterion, or
    an eta -> 0 solve left the floating-point range."""


class DimensionExceeded(PairBosonError):
    """Truncated Fock basis larger than the configured maximum."""


class EigenFailure(PairBosonError):
    """Hermitian eigendecomposition failed in the oracle."""


class ConfigError(PairBosonError):
    """Invalid run configuration (unknown key, out-of-range value)."""
