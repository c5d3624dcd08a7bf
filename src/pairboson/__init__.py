"""Variational thermodynamics of the pair boson model.

Evaluates the two-parameter quadratic approximant to the pair boson
Hamiltonian, solves the constrained sup-inf variational problem with a
source-strength continuation, extracts condensate observables and the
excitation spectrum, and cross-checks the finite-volume operator
inequalities with a truncated-Fock exact-diagonalization oracle.
"""

from .errors import (
    BracketFailure,
    ConfigError,
    ContinuationDiverged,
    DimensionExceeded,
    EigenFailure,
    InequalityViolated,
    InfeasiblePoint,
    ModelError,
    PairBosonError,
    QuadratureFailure,
    StationarityViolated,
    TailNotConverged,
)
from .model import (
    CouplingProfile,
    LatticeSpec,
    Model,
    coupling_norms,
    delta_profile,
    gaussian_profile,
    power_profile,
)
from .pressure import (
    OrderPoint,
    QuadratureConfig,
    ThermoPoint,
    d2_mu,
    d_mu,
    el_residuals,
    grad_q,
    grad_rho,
    pressure_fv,
    pressure_tl,
    sigma_gap,
    total_dq,
)

__version__ = "0.1.0"
