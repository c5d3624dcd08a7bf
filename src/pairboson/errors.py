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
    """Adaptive quadrature could not meet its error target."""


class BracketFailure(PairBosonError):
    """Root bracketing failed in the inner density minimization."""


class StationarityViolated(PairBosonError):
    """total_dq called at a rho that is not stationary in rho."""


class ContinuationDiverged(PairBosonError):
    """Successive eta-continuation iterates failed the Cauchy criterion, or
    an eta -> 0 solve left the floating-point range."""


class DimensionExceeded(PairBosonError):
    """Truncated Fock basis larger than the configured maximum."""


class EigenFailure(PairBosonError):
    """Hermitian eigendecomposition failed in the oracle."""


class ConfigError(PairBosonError):
    """Invalid run configuration (unknown key, out-of-range value)."""
