"""Truncated-Fock exact diagonalization for few-mode desk instances.

Builds the pair boson Hamiltonian, its two approximants and the residual as
explicit Hermitian matrices on an occupation-number basis, computes trace
pressures, and verifies the operator inequalities behind the variational
principle to machine precision.

Exactness under truncation: operators that only lower occupation (Q, A_k)
have exact matrix elements on any downward-closed basis, so projected
products like P(Q^dag Q)P are exact compressions and inherit positive
semidefiniteness.  Products that raise occupation in an intermediate step
are assembled on a basis extended by `headroom` quanta per mode and then
projected, which again makes the compression exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.linalg import eigh, eigvalsh
from scipy.sparse import csr_matrix, identity
from scipy.special import logsumexp

from .errors import DimensionExceeded, EigenFailure, InequalityViolated, ModelError
from .model import Model, mode_coupling_norms
from .pressure import ThermoPoint

OP_N = "N"
OP_Q = "Q"
OP_QDAG_Q = "Q_dagger_Q"
OP_A_K = "A_k"

HAM_FULL = "full"
HAM_APPROX1 = "approx1"
HAM_APPROX2 = "approx2"
HAM_RESIDUAL = "residual_r"
HAM_MEAN_FIELD = "mean_field"


def _real_if_possible(M):
    """Hermitian matrices here are real in the fixed gauge; exploit that."""
    M = np.asarray(M)
    if np.iscomplexobj(M) and not np.any(M.imag):
        return M.real
    return M


@dataclass(frozen=True)
class FockSpec:
    """Mode set and occupation truncation for a desk-scale realization."""

    modes: tuple
    n_max: int
    N_max: int | None = None
    headroom: int = 2
    max_dim: int = 20000

    def __post_init__(self):
        if self.n_max < 1 or self.headroom < 0:
            raise ModelError("need n_max >= 1 and headroom >= 0")
        modes = [tuple(np.atleast_1d(np.asarray(m, dtype=float))) for m in self.modes]
        object.__setattr__(self, "modes", tuple(modes))
        keys = {tuple(np.round(m, 12)) for m in modes}
        if tuple(np.round(np.zeros(len(modes[0])), 12)) not in keys:
            raise ModelError("mode set must contain k = 0")
        for m in modes:
            if tuple(np.round([-x for x in m], 12)) not in keys:
                raise ModelError("mode set must be closed under k -> -k")

    def mode_norms(self):
        return [math.sqrt(sum(x * x for x in m)) for m in self.modes]

    def negation_index(self):
        keys = {tuple(np.round(m, 12)): j for j, m in enumerate(self.modes)}
        return [keys[tuple(np.round([-x for x in m], 12))] for m in self.modes]


@dataclass
class OperatorMatrix:
    """A Hermitian operator compressed to the working occupation basis."""

    matrix: np.ndarray
    label: str
    params: dict = field(default_factory=dict)


@lru_cache(maxsize=8)
def _workspace(spec: "FockSpec") -> "_Workspace":
    return _Workspace(spec)


class _Workspace:
    """Occupation bases and ladder operators for one FockSpec."""

    def __init__(self, spec: FockSpec):
        self.spec = spec
        nm = len(spec.modes)
        n_ext = spec.n_max + spec.headroom
        cap_ext = None if spec.N_max is None else spec.N_max + 2 * spec.headroom
        self.ext_states = self._states(nm, n_ext, cap_ext)
        self.ext_index = {s: i for i, s in enumerate(self.ext_states)}
        work_mask = []
        for s in self.ext_states:
            ok = all(n <= spec.n_max for n in s)
            if spec.N_max is not None:
                ok = ok and sum(s) <= spec.N_max
            work_mask.append(ok)
        self.work_idx = np.flatnonzero(work_mask)
        self.dim = len(self.work_idx)
        if self.dim > spec.max_dim:
            raise DimensionExceeded(
                f"working dimension {self.dim} exceeds cap {spec.max_dim}")
        self.ext_dim = len(self.ext_states)
        self.lower = [self._lower(j) for j in range(nm)]
        occ = np.array(self.ext_states, dtype=float)
        self.occ = occ                      # (ext_dim, n_modes)
        self.Ntot = occ.sum(axis=1)

    @staticmethod
    def _states(n_modes, n_max, cap):
        out = []
        for s in product(range(n_max + 1), repeat=n_modes):
            if cap is None or sum(s) <= cap:
                out.append(s)
        return out

    def _lower(self, j):
        rows, cols, vals = [], [], []
        for i, s in enumerate(self.ext_states):
            if s[j] > 0:
                t = list(s)
                t[j] -= 1
                rows.append(self.ext_index[tuple(t)])
                cols.append(i)
                vals.append(math.sqrt(s[j]))
        return csr_matrix((vals, (rows, cols)),
                          shape=(self.ext_dim, self.ext_dim))

    def project(self, M) -> np.ndarray:
        """Compress an extended-basis operator to the working basis."""
        M = M.tocsr() if hasattr(M, "tocsr") else csr_matrix(M)
        sub = M[self.work_idx][:, self.work_idx].toarray()
        return sub

    def pair_lower(self, model: Model):
        """A_k = a_k a_{-k} per mode, and Q = sum_k lambda(k) A_k."""
        neg = self.spec.negation_index()
        norms = self.spec.mode_norms()
        a_ops = self.lower
        A = [a_ops[j] @ a_ops[neg[j]] for j in range(len(a_ops))]
        Q = sum(float(model.lambda_profile.value_radial(norms[j])) * A[j]
                for j in range(len(A)))
        return A, Q

    def zero_mode(self):
        nrm = self.spec.mode_norms()
        return int(np.argmin(nrm))

    def diag_T(self, model: Model):
        nrm = self.spec.mode_norms()
        eps = np.array([r * r / (2.0 * model.mass) for r in nrm])
        return self.occ @ eps


def build_operator(spec: FockSpec, which: str, model: Model,
                   k=None) -> OperatorMatrix:
    """One of the elementary operators N, Q, Q^dag Q, A_k as a matrix."""
    ws = _workspace(spec)
    if which == OP_N:
        mat = np.diag(ws.Ntot[ws.work_idx])
    elif which in (OP_Q, OP_QDAG_Q, OP_A_K):
        A, Q = ws.pair_lower(model)
        if which == OP_Q:
            mat = ws.project(Q)
        elif which == OP_QDAG_Q:
            mat = ws.project(Q.conj().T @ Q)
        else:
            if k is None:
                raise ValueError("A_k requires a momentum k")
            key = tuple(np.round(np.atleast_1d(np.asarray(k, float)), 12))
            keys = [tuple(np.round(m, 12)) for m in spec.modes]
            mat = ws.project(A[keys.index(key)])
    else:
        raise ValueError(f"unknown operator {which}")
    return OperatorMatrix(matrix=np.asarray(mat, dtype=complex),
                          label=which, params={"k": k})


def _q_complex(q: float, eta: complex) -> complex:
    """Gauge-fixed pair parameter q e^{2 i psi}, psi = arg eta.

    This phase maximizes the source contribution of a displaced
    quadratic zero mode and makes the trace pressure of the second
    approximant reproduce the closed form with source denominator
    f(0, rho) - u q.
    """
    psi = np.angle(eta) if eta != 0 else 0.0
    return q * np.exp(2.0j * psi)


def build_hamiltonian(spec: FockSpec, kind: str, model: Model, V: float,
                      q: float = 0.0, rho: float = 0.0, eta: complex = 0.0,
                      nu_source: complex = 0.0) -> OperatorMatrix:
    """The labelled Hamiltonian as a Hermitian matrix on the working basis.

    q >= 0 is the gauge-reduced magnitude; internally the pair parameter
    enters with phase pi + 2 arg(eta), which makes the trace pressure of the
    second approximant match the real closed form.  Matrix identities that
    hold exactly: full = approx1 + residual_r (same q, eta), and
    approx1 - approx2 = (v/2V)(N - V rho)^2.
    """
    if q < 0 or rho < 0 or V <= 0:
        raise ValueError("require q >= 0, rho >= 0, V > 0")
    ws = _workspace(spec)
    T = ws.diag_T(model)[ws.work_idx]
    Nw = ws.Ntot[ws.work_idx]
    dim = ws.dim
    u, v = model.u, model.v
    H = np.zeros((dim, dim), dtype=complex)

    def add_source(H):
        if eta != 0 or nu_source != 0:
            a0 = ws.lower[ws.zero_mode()]
            a0w = ws.project(a0)
            H -= math.sqrt(V) * (eta * a0w.conj().T + np.conj(eta) * a0w)
        if nu_source != 0:
            _, Q = ws.pair_lower(model)
            Qw = ws.project(Q)
            H -= nu_source * Qw.conj().T + np.conj(nu_source) * Qw
        return H

    qc = _q_complex(q, eta)

    if kind == HAM_FULL:
        _, Q = ws.pair_lower(model)
        QdQ = ws.project(Q.conj().T @ Q)
        H += np.diag(T + (v / (2.0 * V)) * Nw ** 2)
        H -= (u / (2.0 * V)) * QdQ
        H = add_source(H)
    elif kind == HAM_APPROX1:
        _, Q = ws.pair_lower(model)
        Qw = ws.project(Q)
        H += np.diag(T + (v / (2.0 * V)) * Nw ** 2)
        H -= (u / 2.0) * (qc * Qw.conj().T + np.conj(qc) * Qw)
        H += (V * u / 2.0) * abs(qc) ** 2 * np.eye(dim)
        H = add_source(H)
    elif kind == HAM_APPROX2:
        _, Q = ws.pair_lower(model)
        Qw = ws.project(Q)
        H += np.diag(T + v * rho * Nw)
        H -= (u / 2.0) * (qc * Qw.conj().T + np.conj(qc) * Qw)
        H += ((V * u / 2.0) * abs(qc) ** 2 - (V * v / 2.0) * rho ** 2) * np.eye(dim)
        H = add_source(H)
    elif kind == HAM_RESIDUAL:
        _, Q = ws.pair_lower(model)
        X = Q - qc * V * identity(ws.ext_dim, format="csr")
        H -= (u / (2.0 * V)) * ws.project(X.conj().T @ X)
    elif kind == HAM_MEAN_FIELD:
        H += np.diag(T + (v / (2.0 * V)) * Nw ** 2)
        H = add_source(H)
    else:
        raise ValueError(f"unknown hamiltonian kind {kind}")

    herm = np.max(np.abs(H - H.conj().T))
    if herm > 1e-12 * max(1.0, np.max(np.abs(H))):
        raise EigenFailure(f"built matrix not Hermitian: defect {herm}")
    return OperatorMatrix(matrix=H, label=kind,
                          params={"q": q, "rho": rho, "eta": eta, "V": V})


def trace_pressure(H: OperatorMatrix, spec: FockSpec, tp: ThermoPoint,
                   V: float) -> float:
    """(1/beta V) ln Tr exp(-beta (H - mu N)) on the truncated basis."""
    ws = _workspace(spec)
    K = H.matrix - tp.mu * np.diag(ws.Ntot[ws.work_idx])
    try:
        evals = eigvalsh(_real_if_possible(K))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenFailure(str(exc)) from exc
    return float(logsumexp(-tp.beta * evals) / (tp.beta * V))


def check_superstability(spec: FockSpec, model: Model, V: float) -> dict:
    """Verify the pair-operator bound and the quartic lower bound.

    Checks min-eig of P(N^2 + M V N - Q^dag Q)P >= -1e-10, and the same for
    H - mu N - [T + (alpha/2V) N^2 - (mu + R) N] with R = M u / 2 (the mu
    terms cancel, leaving (u/2V) times the first operator).  For u <= 0
    the pairing term is itself nonnegative, so the quartic lower bound
    simplifies to H >= T + (v/2V) N^2 (R = 0, coefficient v instead of
    alpha).
    """
    ws = _workspace(spec)
    _, Q = ws.pair_lower(model)
    QdQ = ws.project(Q.conj().T @ Q)
    Nw = ws.Ntot[ws.work_idx]
    # smallest exhibited M with Q^dag Q <= N^2 + M V N on this mode set
    M = mode_coupling_norms(model, spec.mode_norms(), V)[3]
    S1 = np.diag(Nw ** 2 + M * V * Nw) - QdQ

    Hfull = build_hamiltonian(spec, HAM_FULL, model, V).matrix
    T = ws.diag_T(model)[ws.work_idx]
    if model.u > 0:
        R = M * model.u / 2.0
        coeff = model.alpha
    else:
        R = 0.0
        coeff = model.v
    lower = np.diag(T + (coeff / (2.0 * V)) * Nw ** 2 - R * Nw)
    S2 = Hfull - lower

    min1 = float(eigvalsh(_real_if_possible(S1)).min())
    min2 = float(eigvalsh(_real_if_possible((S2 + S2.conj().T) / 2.0)).min())
    return {
        "check": "superstability",
        "M": M,
        "V": V,
        "dim": ws.dim,
        "min_eig_pair_bound": min1,
        "min_eig_quartic_bound": min2,
        "passed": bool(min1 >= -1e-10 and min2 >= -1e-10),
    }


def check_variational_chain(spec: FockSpec, model: Model, tp: ThermoPoint,
                            V: float, q_grid, rho_grid, eta: float) -> dict:
    """Verify the trace-pressure chain p >= p1 (u>0; flipped for u<0) and
    p1 <= p2 over the (q, rho) grids, with slack tolerance -1e-10."""
    p_full = trace_pressure(build_hamiltonian(spec, HAM_FULL, model, V,
                                              eta=eta), spec, tp, V)
    tol = -1e-10
    worst_first = math.inf
    worst_second = math.inf
    entries = []
    for q in q_grid:
        p1 = trace_pressure(build_hamiltonian(spec, HAM_APPROX1, model, V,
                                              q=q, eta=eta), spec, tp, V)
        slack1 = (p_full - p1) if model.u > 0 else (p1 - p_full)
        worst_first = min(worst_first, slack1)
        if slack1 < tol:
            raise InequalityViolated(
                f"first inequality violated at q={q}: slack {slack1:.3e}")
        for rho in rho_grid:
            p2 = trace_pressure(build_hamiltonian(
                spec, HAM_APPROX2, model, V, q=q, rho=rho, eta=eta),
                spec, tp, V)
            slack2 = p2 - p1
            worst_second = min(worst_second, slack2)
            if slack2 < tol:
                raise InequalityViolated(
                    f"second inequality violated at q={q}, rho={rho}: "
                    f"slack {slack2:.3e}")
            entries.append({"q": float(q), "rho": float(rho),
                            "p1": p1, "p2": p2})
    return {
        "check": "variational_chain",
        "u": model.u,
        "eta": eta,
        "V": V,
        "p_full": p_full,
        "min_slack_full_vs_approx1": worst_first,
        "min_slack_approx2_vs_approx1": worst_second,
        "grid_points": len(entries),
        "passed": True,
    }


def check_pair_exchange_bound(spec: FockSpec, model: Model, k, kp,
                              sign: int = 1) -> dict:
    """Spot check of the mode-pair exchange inequality.

    The operator (N_k + |lam(k)|) N_k' + (N_{-k'} + |lam(k')|) N_{-k}
    -/+ (lam*(k) lam(k') A_k^dag A_k' + h.c.) is PSD; verified on the
    working basis, whose compression is exact thanks to the headroom.
    """
    if spec.headroom < 1:
        raise ModelError("exchange bound check needs headroom >= 1")
    ws = _workspace(spec)
    A, _ = ws.pair_lower(model)
    keys = [tuple(np.round(m, 12)) for m in spec.modes]
    j = keys.index(tuple(np.round(np.atleast_1d(np.asarray(k, float)), 12)))
    jp = keys.index(tuple(np.round(np.atleast_1d(np.asarray(kp, float)), 12)))
    neg = spec.negation_index()
    norms = spec.mode_norms()
    lam_k = float(model.lambda_profile.value_radial(norms[j]))
    lam_kp = float(model.lambda_profile.value_radial(norms[jp]))

    occ = ws.occ
    Nk = occ[:, j]
    Nkp = occ[:, jp]
    Nmk = occ[:, neg[j]]
    Nmkp = occ[:, neg[jp]]
    diag = (Nk + abs(lam_k)) * Nkp + (Nmkp + abs(lam_kp)) * Nmk
    cross = lam_k * lam_kp * (A[j].conj().T @ A[jp])
    O = csr_matrix(np.diag(diag)) - sign * (cross + cross.conj().T)
    min_eig = float(eigvalsh(_real_if_possible(ws.project(O))).min())
    return {
        "check": "pair_exchange_bound",
        "k": list(np.atleast_1d(k)),
        "k_prime": list(np.atleast_1d(kp)),
        "sign": sign,
        "min_eig": min_eig,
        "passed": bool(min_eig >= -1e-10),
    }
