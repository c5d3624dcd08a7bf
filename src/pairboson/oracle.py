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

Momentum sectors: every operator used here conserves the total momentum
sum_k n_k k.  T and N are diagonal in the occupation basis; A_k = a_k a_{-k}
removes a pair of total momentum zero, so A_k, Q = sum_k lambda(k) A_k,
Q^dag Q and A_k^dag A_k' keep it; the source acts through the zero mode a_0
alone.  Every Hamiltonian is therefore block diagonal, and its spectrum is
the union of the block spectra (A. Weisse and H. Fehske, "Exact
diagonalization techniques", Lect. Notes Phys. 739 (2008) 529).  The blocks
are found without comparing momenta: the sectors are the connected
components of the union nonzero pattern of Q, Q^dag Q and a_0 (and their
transposes) on the working basis, so every element between two sectors is
exactly zero and the split rounds nothing.  Where lambda vanishes on some
modes (the delta profile) the components are finer than the momentum
sectors.  Each sector's real blocks of T, N, Q, Q^dag Q and a_0 are cached
once per (spec, model), and every Hamiltonian is a linear combination of
them; only the coefficients turn complex with a complex source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.sparse import csr_matrix, diags, issparse
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


@dataclass(frozen=True)
class FockSpec:
    """Mode set and occupation truncation for a desk-scale realization."""

    modes: tuple
    n_max: int
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


class _Sectors:
    """A split of the working basis into sectors, and the block layout.

    The dense block of each sector is stored row-major, one after another,
    in one flat array, so a linear combination of block-diagonal operators
    is one vector operation.  `rows`/`cols` give the working-basis position
    of every flat entry, `diag` the flat positions of the diagonal and
    `tpos` the flat position of each entry's transpose.
    """

    def __init__(self, labels):
        labels = np.asarray(labels)
        self.dim = len(labels)
        self.order = np.argsort(labels, kind="stable")
        sizes = np.bincount(labels)
        self.index = np.split(self.order, np.cumsum(sizes)[:-1])
        self.bounds = np.concatenate(([0], np.cumsum(sizes ** 2)))
        rows, cols, diag, tpos = [], [], [], []
        for idx, off in zip(self.index, self.bounds):
            n = len(idx)
            k = np.arange(n)
            rows.append(np.repeat(idx, n))
            cols.append(np.tile(idx, n))
            diag.append(off + k * (n + 1))
            tpos.append(off + (n * k + k[:, None]).ravel())
        self.rows, self.cols, self.diag, self.tpos = (
            np.concatenate(a) for a in (rows, cols, diag, tpos))

    @classmethod
    def of_pattern(cls, *mats):
        """Connected components of the union nonzero pattern of `mats`."""
        # Imported here, not at the top: every command of the CLI imports
        # this module, and only the oracle needs the graph routines.
        from scipy.sparse.csgraph import connected_components

        pattern = sum(abs(csr_matrix(M)) for M in mats)
        pattern.eliminate_zeros()
        _, labels = connected_components(pattern, directed=False)
        return cls(labels)

    def gather(self, M) -> np.ndarray:
        """The flat block values of a working-basis matrix."""
        if issparse(M):
            return np.asarray(M.tocsr()[self.rows, self.cols]).ravel()
        return np.asarray(M)[self.rows, self.cols]

    def assemble(self, values) -> np.ndarray:
        M = np.zeros((self.dim, self.dim), dtype=values.dtype)
        M[self.rows, self.cols] = values
        return M

    def blocks(self, values):
        for idx, lo, hi in zip(self.index, self.bounds[:-1], self.bounds[1:]):
            yield values[lo:hi].reshape(len(idx), len(idx))

    def herm(self, c, X) -> np.ndarray:
        """c X^dag + conj(c) X for a real flat X; real whenever c is."""
        c = complex(c)
        if c.imag == 0:
            return c.real * (X[self.tpos] + X)
        return c * X[self.tpos] + c.conjugate() * X

    def plus_diag(self, values, d) -> np.ndarray:
        """values + diag(d), for d in working-basis order."""
        out = values.copy()
        out[self.diag] += d[self.order]
        return out


class OperatorMatrix:
    """A Hermitian operator compressed to the working occupation basis.

    Stored as the dense blocks of its sectors (`sectors`, `values`).
    `matrix` assembles the full working-basis matrix on access; assigning a
    matrix, dense or sparse, splits it by the components of its own nonzero
    pattern.
    """

    def __init__(self, matrix=None, label: str = "", params: dict | None = None,
                 sectors: _Sectors | None = None, values=None):
        self.label = label
        self.params = {} if params is None else params
        if matrix is not None:
            self.matrix = matrix
        else:
            self.sectors, self.values = sectors, values

    @property
    def matrix(self) -> np.ndarray:
        return self.sectors.assemble(self.values)

    @matrix.setter
    def matrix(self, M):
        self.sectors = _Sectors.of_pattern(M)
        self.values = self.sectors.gather(M)


@lru_cache(maxsize=8)
def _workspace(spec: "FockSpec") -> "_Workspace":
    return _Workspace(spec)


class _Workspace:
    """Occupation bases and ladder operators for one FockSpec."""

    def __init__(self, spec: FockSpec):
        self.spec = spec
        nm = len(spec.modes)
        n_ext = spec.n_max + spec.headroom
        self.ext_states = list(product(range(n_ext + 1), repeat=nm))
        self.ext_index = {s: i for i, s in enumerate(self.ext_states)}
        self.work_idx = np.flatnonzero(
            [all(n <= spec.n_max for n in s) for s in self.ext_states])
        self.dim = len(self.work_idx)
        if self.dim > spec.max_dim:
            raise DimensionExceeded(
                f"working dimension {self.dim} exceeds cap {spec.max_dim}")
        self.ext_dim = len(self.ext_states)
        self.lower = [self._lower(j) for j in range(nm)]
        occ = np.array(self.ext_states, dtype=float)
        self.occ = occ                      # (ext_dim, n_modes)
        self.Ntot = occ.sum(axis=1)

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

    def project(self, M) -> csr_matrix:
        """Compress an extended-basis operator to the working basis."""
        return csr_matrix(M)[self.work_idx][:, self.work_idx]

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


@lru_cache(maxsize=8)
def _pieces(spec: FockSpec, model: Model) -> "_Pieces":
    return _Pieces(_workspace(spec), model)


class _Pieces:
    """Per-sector real blocks of T, N, Q, Q^dag Q and a_0 for one model.

    T and N are diagonal and kept as vectors in sector order; Q, Q^dag Q
    and a_0 are flat block arrays in the layout of `sectors`.
    """

    def __init__(self, ws: _Workspace, model: Model):
        _, Q = ws.pair_lower(model)
        ops = [ws.project(M) for M in
               (Q, Q.conj().T @ Q, ws.lower[ws.zero_mode()])]
        self.sectors = sec = _Sectors.of_pattern(*ops)
        self.Q, self.QdQ, self.a0 = (sec.gather(M) for M in ops)
        self.T = ws.diag_T(model)[ws.work_idx][sec.order]
        self.N = ws.Ntot[ws.work_idx][sec.order]
        for a in (self.Q, self.QdQ, self.a0, self.T, self.N):
            a.setflags(write=False)     # shared by every build of the model


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
    return OperatorMatrix(matrix=mat, label=which, params={"k": k})


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
                      q: float = 0.0, rho: float = 0.0,
                      eta: complex = 0.0) -> OperatorMatrix:
    """The labelled Hamiltonian as a Hermitian matrix on the working basis.

    q >= 0 is the gauge-reduced magnitude; internally the pair parameter
    enters with phase pi + 2 arg(eta), which makes the trace pressure of the
    second approximant match the real closed form.  Matrix identities that
    hold exactly: full = approx1 + residual_r (same q, eta), and
    approx1 - approx2 = (v/2V)(N - V rho)^2.

    Every kind is c_QdQ Q^dag Q - (c_Q Q^dag + h.c.) - (c_a0 a_0^dag + h.c.)
    plus a diagonal, formed sector by sector from the cached pieces.
    """
    if q < 0 or rho < 0 or V <= 0:
        raise ValueError("require q >= 0, rho >= 0, V > 0")
    p = _pieces(spec, model)
    u, v = model.u, model.v
    qc = _q_complex(q, eta)
    kinetic = p.T + (v / (2.0 * V)) * p.N ** 2
    c_qdq, c_q, c_a0 = 0.0, 0.0, math.sqrt(V) * eta

    if kind == HAM_FULL:
        d, c_qdq = kinetic, -u / (2.0 * V)
    elif kind == HAM_APPROX1:
        d = kinetic + (V * u / 2.0) * abs(qc) ** 2
        c_q = (u / 2.0) * qc
    elif kind == HAM_APPROX2:
        d = (p.T + v * rho * p.N
             + ((V * u / 2.0) * abs(qc) ** 2 - (V * v / 2.0) * rho ** 2))
        c_q = (u / 2.0) * qc
    elif kind == HAM_RESIDUAL:
        # -(u/2V) P X^dag X P with X = Q - qc V; Q only lowers occupation, so
        # P X^dag X P = Q^dag Q - V (qc Q^dag + conj(qc) Q) + V^2 |qc|^2.
        d = np.full(len(p.N), -(u * V / 2.0) * abs(qc) ** 2)
        c_qdq, c_q, c_a0 = -u / (2.0 * V), -(u / 2.0) * qc, 0.0
    else:
        raise ValueError(f"unknown hamiltonian kind {kind}")

    sec = p.sectors
    H = c_qdq * p.QdQ - sec.herm(c_q, p.Q) - sec.herm(c_a0, p.a0)
    H[sec.diag] += d
    herm = np.max(np.abs(H - np.conj(H[sec.tpos])))
    if herm > 1e-12 * max(1.0, np.max(np.abs(H))):
        raise EigenFailure(f"built matrix not Hermitian: defect {herm}")
    return OperatorMatrix(label=kind, sectors=sec, values=H,
                          params={"q": q, "rho": rho, "eta": eta, "V": V})


def _spectrum(sectors: _Sectors, values) -> np.ndarray:
    """Eigenvalues of a Hermitian block-diagonal operator, sector by sector."""
    try:
        return np.concatenate([np.linalg.eigvalsh(b)
                               for b in sectors.blocks(values)])
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigenFailure(str(exc)) from exc


def trace_pressure(H: OperatorMatrix, spec: FockSpec, tp: ThermoPoint,
                   V: float) -> float:
    """(1/beta V) ln Tr exp(-beta (H - mu N)) on the truncated basis."""
    ws = _workspace(spec)
    K = H.sectors.plus_diag(H.values, -tp.mu * ws.Ntot[ws.work_idx])
    evals = _spectrum(H.sectors, K)
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
    p = _pieces(spec, model)
    Nw = ws.Ntot[ws.work_idx]
    # smallest exhibited M with Q^dag Q <= N^2 + M V N on this mode set
    M = mode_coupling_norms(model, spec.mode_norms(), V)[3]
    S1 = p.sectors.plus_diag(-p.QdQ, Nw ** 2 + M * V * Nw)

    Hfull = build_hamiltonian(spec, HAM_FULL, model, V)
    T = ws.diag_T(model)[ws.work_idx]
    if model.u > 0:
        R = M * model.u / 2.0
        coeff = model.alpha
    else:
        R = 0.0
        coeff = model.v
    sec = Hfull.sectors
    S2 = sec.plus_diag(Hfull.values,
                       -(T + (coeff / (2.0 * V)) * Nw ** 2 - R * Nw))

    min1 = float(_spectrum(p.sectors, S1).min())
    min2 = float(_spectrum(sec, (S2 + np.conj(S2[sec.tpos])) / 2.0).min())
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
    working basis, whose compression is exact thanks to the headroom, one
    sector of the operator's own nonzero pattern at a time.
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
    O = OperatorMatrix(matrix=ws.project(
        diags(diag) - sign * (cross + cross.conj().T)))
    min_eig = float(_spectrum(O.sectors, O.values).min())
    return {
        "check": "pair_exchange_bound",
        "k": list(np.atleast_1d(k)),
        "k_prime": list(np.atleast_1d(kp)),
        "sign": sign,
        "min_eig": min_eig,
        "passed": bool(min_eig >= -1e-10),
    }
