"""Exception hierarchy for the pairboson package."""


class PairBosonError(Exception):
    """Base class for all package errors."""


class ModelError(PairBosonError):
    """Invalid model parameters (couplings, profile, lattice)."""


class TailNotConverged(PairBosonError):
    """Lattice cutoff too small: the coupling-profile tail exceeds tolerance."""


class InfeasiblePoint(PairBosonError):
    """Pressure is infinite at this (q, rho, eta) point."""


class QuadratureFailure(PairBosonError):
    """Adaptive quadrature could not certify the requested tolerance."""


class BracketFailure(PairBosonError):
    """Root bracketing failed in the inner density minimization."""


class StationarityViolated(PairBosonError):
    """total_dq called at a rho that is not stationary in rho."""


class ContinuationDiverged(PairBosonError):
    """Successive eta-continuation iterates failed the Cauchy criterion."""


class DimensionExceeded(PairBosonError):
    """Truncated Fock basis larger than the configured maximum."""


class EigenFailure(PairBosonError):
    """Hermitian eigendecomposition failed in the oracle."""


class InequalityViolated(PairBosonError):
    """An operator/pressure inequality check failed at a grid point."""


class ConfigError(PairBosonError):
    """Invalid run configuration (unknown key, out-of-range value)."""
