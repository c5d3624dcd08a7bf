"""Truncated-Fock exact diagonalization for few-mode desk instances.

Builds the pair boson Hamiltonian, its two approximants and the residual as
explicit Hermitian matrices on an occupation-number basis, computes trace
pressures, and verifies the operator inequalities behind the variational
principle to machine precision.

Exactness under truncation: every operator is built on the working basis
of states with n_k <= n_max for every mode.  The operators that only lower
occupation (a_k, A_k, Q) map this downward-closed basis into itself, and
every product formed here has the form X^dag Y with X and Y lowering
(Q^dag Q, A_k^dag A_k', and the residual's X^dag X with X = Q - q V), so
P X^dag Y P = (P X P)^dag (P Y P): each compression is exact and inherits
positive semidefiniteness.

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
sectors.  Each sector's real blocks of Q, Q^dag Q and a_0, and the
diagonals T and N, are cached once per (spec, model), and every Hamiltonian
is a linear combination of them; only the coefficients turn complex with a
complex source.

Sectors of one size form one contiguous stack and are eigensolved in one
call.  Mirror sectors: lambda and eps are radial and the mode set is closed
under k -> -k, so the reflection n_k <-> n_{-k} of occupations commutes with
T, N, Q, Q^dag Q and a_0, and maps the sector of momentum P onto that of -P.
Each sector fixes every difference n_k - n_{-k}, so the reflection keeps the
order of the states within a sector, and the two blocks of every Hamiltonian
are the same matrix.  `_Pieces` pairs each sector with its mirror only after
checking, under the reflection's state map, that all five cached pieces agree
entry for entry, and `_spectrum` eigensolves one of each pair and copies its
eigenvalues to the other.  At n_max = 7 with three modes that leaves 8 of 15
momentum blocks.  The spectrum comes back sector by sector in label order, so
sums over it keep their order whatever the layout.

Number sectors: Q^dag Q, T and N also conserve the particle number, which
Q and a_0 change.  `_Pieces` keeps a second layout, the connected components
of the pattern of Q^dag Q alone, whose blocks fix N and P (at n_max = 7 with
three modes, 218 blocks of at most 4 states, 68 of them single states),
with Q^dag Q gathered onto it and no twin pairing.  Every operator whose Q
and a_0 coefficients both vanish is built there: the full Hamiltonian at
eta = 0 (the superstability check's S2), any kind at q = 0 and eta = 0,
the residual at q = 0, and the superstability check's S1.  The
pair-exchange operator lambda(k) lambda(k') A_k^dag A_k' + h.c. is
gathered there too: for lambda >= 0 (all three profiles) every term
lambda(k) lambda(k') A_k^dag A_k' of Q^dag Q is entrywise nonnegative, so
no cancellation hides a term's nonzero from the pattern of their sum, and
each term lies inside that pattern.  `_Sectors.gather` raises EigenFailure
for a nonzero between two sectors instead of dropping it, which covers any
case where this fails.  A block of one state is its own eigenvalue, so
`_spectrum` reads its entry instead of calling the eigensolver (for n = 1
LAPACK returns the entry itself, so the values agree to the last bit).

Mode factors of the second approximant: H_2 - mu N = sum_f h_f + c is a sum
of terms that each act on one factor f of the modes, a set closed under
k -> -k: the zero mode, with (eps_0 + v rho - mu) n_0, lambda(0) a_0^2 and
the source, and each {k, -k} pair, with (eps_k + v rho - mu)(n_k + n_{-k})
and 2 lambda(k) a_k a_{-k}.  The working basis is the product of the
per-mode ranges {0..n_max}, so its projection is the tensor product of the
factors' projections P_f, and every term, a lowering product or its adjoint
plus a diagonal, compresses to (P_f h_f P_f) on its factor tensored with the
identity on the rest.  The compressed terms act on different tensor factors
and commute, so ln Tr e^{-beta (H_2 - mu N)} = sum_f ln Tr_f e^{-beta h_f}
- beta c holds exactly on the truncated basis (the structure behind the
closed form of the Approximating Hamiltonian Method: N. N. Bogolyubov Jr.,
J. G. Brankov, V. A. Zagrebnov, A. M. Kurbatov and N. S. Tonchev, 1981).
`approx2_pressures` uses it over a whole (q, rho) grid: each factor's blocks
are cached (`_Factor`), split by the pattern of its pair operator and a_0,
and the grid's blocks of one size are eigensolved in one call.  At
n_max = 7 with three modes the factors hold 8 and 64 states, in blocks of
at most 8; a {k, -k} pair splits by n_k - n_{-k}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product

import numpy as np
from scipy.sparse import csr_matrix

from .errors import (
    ConfigError, DimensionExceeded, EigenFailure, ModelError,
)
from .model import Model, mode_coupling_norms
from .pressure import ThermoPoint

HAM_FULL = "full"
HAM_APPROX1 = "approx1"
HAM_APPROX2 = "approx2"
HAM_RESIDUAL = "residual_r"

_MAX_DIM = 20000  # largest working basis a FockSpec may have


@dataclass(frozen=True)
class FockSpec:
    """Mode set and occupation truncation for a desk-scale realization."""

    modes: tuple
    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ModelError("need n_max >= 1")
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
    """A split of a basis (the working basis, or one of approx2's mode
    factors) into sectors, and the block layout.

    The sectors are ordered by size (by label within a size), and the
    dense block of each is stored row-major, one after another, in one flat
    array: a linear combination of block-diagonal operators is one vector
    operation, and the blocks of each size form one contiguous (m, n, n)
    stack.  `diag` gives the flat positions of the diagonal and `tpos` the
    flat position of each entry's transpose.  `order` lists the states
    sector by sector, and `index` the states of each sector.

    `sector` and `local` give each basis state's sector and its place
    within it.  `rep[s]` is the sector whose spectrum sector s takes: s
    itself, or a checked mirror twin's representative (`pair_twins`).
    """

    def __init__(self, labels):
        labels = np.asarray(labels)
        self.dim = len(labels)
        sizes = np.bincount(labels)
        by_size = np.argsort(sizes, kind="stable")    # labels, in layout order
        place = np.empty_like(by_size)
        place[by_size] = np.arange(len(by_size))
        self.order = np.argsort(place[labels], kind="stable")
        self.sizes = sizes[by_size]
        self.bounds = np.concatenate(([0], np.cumsum(self.sizes ** 2)))
        # _spectrum's output order: sector by sector in label order
        slot = np.empty(self.dim, dtype=np.intp)
        slot[self.order] = np.arange(self.dim)
        self.label_order = slot[np.argsort(labels, kind="stable")]
        self.sector = np.repeat(np.arange(len(self.sizes)), self.sizes)[slot]
        self.local = slot - (np.cumsum(self.sizes) - self.sizes)[self.sector]
        # one (size, first sector, sector count) per size, smallest first
        size, first, count = np.unique(self.sizes, return_index=True,
                                       return_counts=True)
        self.groups = list(zip(size.tolist(), first.tolist(), count.tolist()))
        diag, tpos = [], []
        for n, s0, m in self.groups:
            off = self.bounds[s0] + n * n * np.arange(m)[:, None]
            k = np.arange(n)
            diag.append((off + k * (n + 1)).ravel())
            tpos.append((off + (n * k + k[:, None]).ravel()).ravel())
        self.diag, self.tpos = np.concatenate(diag), np.concatenate(tpos)
        self.pair_twins(np.arange(len(self.sizes)))

    @cached_property
    def index(self):
        """The states of each sector, in layout order."""
        return np.split(self.order, np.cumsum(self.sizes)[:-1])

    @classmethod
    def of_pattern(cls, *mats):
        """Connected components of the union nonzero pattern of `mats`."""
        # Imported here, not at the top: the graph routines load only
        # when a working basis is first split into sectors.
        from scipy.sparse.csgraph import connected_components

        pattern = sum(abs(csr_matrix(M)) for M in mats)
        pattern.eliminate_zeros()
        _, labels = connected_components(pattern, directed=False)
        return cls(labels)

    def pair_twins(self, rep):
        """Set `rep` and plan `_spectrum`'s eigensolves: per size, the
        offsets `solve` of the representatives in that size's stack, and
        for each sector of the size the row `take` of their spectra that
        it copies."""
        self.rep = np.asarray(rep)
        self.plan = []
        for n, s0, m in self.groups:
            local = self.rep[s0:s0 + m] - s0
            solve = np.flatnonzero(local == np.arange(m))
            take = np.searchsorted(solve, local)
            self.plan.append((n, self.bounds[s0], self.bounds[s0 + m],
                              solve, take))

    def gather(self, M) -> np.ndarray:
        """The flat block values of a working-basis matrix, dense or sparse;
        a nonzero between two sectors raises EigenFailure."""
        M = csr_matrix(M).tocoo()
        M.sum_duplicates()
        nz = M.data != 0
        rows, cols = M.row[nz], M.col[nz]
        s = self.sector[rows]
        if (s != self.sector[cols]).any():
            raise EigenFailure("operator has a nonzero between two sectors")
        out = np.zeros(self.bounds[-1], dtype=M.dtype)
        out[self.bounds[s] + self.local[rows] * self.sizes[s]
            + self.local[cols]] = M.data[nz]
        return out

    def assemble(self, values) -> np.ndarray:
        """The working-basis matrix of flat block values."""
        rows = np.repeat(self.order, np.repeat(self.sizes, self.sizes))
        M = np.zeros((self.dim, self.dim), dtype=values.dtype)
        M[rows, rows[self.tpos]] = values
        return M

    def plus_diag(self, values, d) -> np.ndarray:
        """values + diag(d), for d in working-basis order."""
        out = values.copy()
        out[self.diag] += d[self.order]
        return out


def _herm(c, X, Xt) -> np.ndarray:
    """c X^dag + conj(c) X for a real flat X with transpose Xt; real
    whenever c is."""
    c = complex(c)
    if c.imag == 0:
        return c.real * (Xt + X)
    return c * Xt + c.conjugate() * X


class OperatorMatrix:
    """A Hermitian operator compressed to the working occupation basis.

    Stored as the dense blocks of its sectors (`sectors`, `values`).
    `matrix` assembles the full working-basis matrix on access; assigning a
    matrix, dense or sparse, splits it by the components of its own nonzero
    pattern.
    """

    def __init__(self, matrix=None, sectors: _Sectors | None = None,
                 values=None):
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
    """Working occupation basis and ladder operators for one FockSpec.

    The states are all occupation tuples with n_k <= n_max, in lexicographic
    order, so lowering mode j moves a state back by (n_max+1)^(modes-1-j).
    """

    def __init__(self, spec: FockSpec):
        self.spec = spec
        nm = len(spec.modes)
        self.dim = (spec.n_max + 1) ** nm
        if self.dim > _MAX_DIM:
            raise DimensionExceeded(
                f"working dimension {self.dim} exceeds cap {_MAX_DIM}")
        self.occ = np.array(list(product(range(spec.n_max + 1), repeat=nm)),
                            dtype=float)        # (dim, n_modes)
        self.Ntot = self.occ.sum(axis=1)
        self.lower = [self._lower(j) for j in range(nm)]

    def _lower(self, j):
        cols = np.flatnonzero(self.occ[:, j])
        stride = (self.spec.n_max + 1) ** (len(self.spec.modes) - 1 - j)
        return csr_matrix((np.sqrt(self.occ[cols, j]), (cols - stride, cols)),
                          shape=(self.dim, self.dim))

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
    """Per-sector real blocks of Q, Q^dag Q and a_0 for one model, on two
    layouts.

    Q, Q^dag Q and a_0 are flat block arrays in the layout of `sectors`
    (fixed momentum), and `Qt`, `a0t` their transposes; `number_QdQ` is
    Q^dag Q in the layout of `number_sectors` (fixed particle number and
    momentum).  T and N are diagonal and kept as vectors in working-basis
    order.  `A` holds the pair operators A_k of `pair_lower`.  The momentum
    sectors' mirror twins are paired here (`_twins`).
    """

    def __init__(self, ws: _Workspace, model: Model):
        self.A, Q = ws.pair_lower(model)
        QdQ = Q.conj().T @ Q
        ops = (Q, QdQ, ws.lower[ws.zero_mode()])
        self.sectors = sec = _Sectors.of_pattern(*ops)
        self.Q, self.QdQ, self.a0 = (sec.gather(M) for M in ops)
        self.Qt, self.a0t = self.Q[sec.tpos], self.a0[sec.tpos]
        self.number_sectors = _Sectors.of_pattern(QdQ)
        self.number_QdQ = self.number_sectors.gather(QdQ)
        self.T = ws.diag_T(model)
        self.N = ws.Ntot
        sec.pair_twins(self._twins(ws))
        for a in (self.Q, self.QdQ, self.a0, self.Qt, self.a0t,
                  self.number_QdQ, self.T, self.N):
            a.setflags(write=False)     # shared by every build of the model

    def _twins(self, ws: _Workspace) -> np.ndarray:
        """Each sector's representative under the reflection n_k <-> n_{-k}.

        The reflection maps the working basis onto itself; `mirror` is its
        state map.  Every sector fixes each difference n_k - n_{-k}, so the
        map keeps the order of the states within a sector.  A sector s and
        the sector t holding its mirror states are twins when the map
        carries the states of s, in order, onto those of t and the blocks
        of T, N, Q, Q^dag Q and a_0 on t equal those on s entry for entry.
        The two blocks of any Hamiltonian built from these pieces are then
        the same matrix, and one eigensolve serves both to the last bit.
        The earlier of the two in the layout represents both; a sector
        that is its own mirror, or fails the check, represents itself.
        """
        sec = self.sectors
        spec = ws.spec
        strides = (spec.n_max + 1) ** np.arange(len(spec.modes))[::-1]
        mirror = (ws.occ[:, spec.negation_index()] @ strides).astype(np.intp)
        slot = np.empty(sec.dim, dtype=np.intp)
        slot[sec.order] = np.arange(sec.dim)
        rep = np.arange(len(sec.sizes))
        start = 0
        for n, s0, m in sec.groups:
            # the mirror states of the m sectors of size n, as slots from
            # the first of them
            rel = slot[mirror[sec.order[start:start + m * n]]].reshape(m, n)
            rel -= start
            own = np.arange(m)
            partner = rel[:, 0] // n
            good = ((partner >= 0) & (partner < m)
                    & (rel == n * partner[:, None] + np.arange(n)).all(axis=1))
            partner = np.where(good, partner, own)
            for d in (self.T, self.N):
                D = d[sec.order[start:start + m * n]].reshape(m, n)
                good &= (D[partner] == D).all(axis=1)
            for X in (self.Q, self.QdQ, self.a0):
                B = X[sec.bounds[s0]:sec.bounds[s0 + m]].reshape(m, n, n)
                good &= (B[partner] == B).all(axis=(1, 2))
            twin = good & good[partner] & (partner != own)
            rep[s0:s0 + m] = s0 + np.where(twin, np.minimum(partner, own), own)
            start += m * n
        return rep


@lru_cache(maxsize=8)
def _factors(spec: FockSpec, model: Model) -> tuple:
    """The mode factors of the second approximant, as `_Factor`s.

    A factor is a connected set of modes under k -> -k: the zero mode
    alone, and each {k, -k} pair.
    """
    neg = spec.negation_index()
    factor_of = list(range(len(neg)))
    for j, k in enumerate(neg):
        a, b = factor_of[j], factor_of[k]
        factor_of = [min(a, b) if f in (a, b) else f for f in factor_of]
    zero = _workspace(spec).zero_mode()
    return tuple(_Factor(spec, model, [j for j in range(len(neg))
                                       if factor_of[j] == f], zero)
                 for f in sorted(set(factor_of)))


class _Factor:
    """Real blocks of one factor's pair operator X = sum_{j in factor}
    lambda(k_j) a_j a_{-j}, of a_0 when the factor holds the zero mode
    (else None), and its diagonal T and N, on the factor's own product
    basis of occupations n_j <= n_max, split by the pattern of X and a_0.
    """

    def __init__(self, spec: FockSpec, model: Model, modes, zero):
        size = spec.n_max + 1
        occ = np.array(list(product(range(size), repeat=len(modes))),
                       dtype=float)
        b = np.diag(np.sqrt(np.arange(1.0, size)), 1)   # one-mode lowering
        lower = {j: reduce(np.kron, [b if t == i else np.eye(size)
                                     for t in range(len(modes))])
                 for i, j in enumerate(modes)}
        neg, norms = spec.negation_index(), spec.mode_norms()
        X = sum(float(model.lambda_profile.value_radial(norms[j]))
                * (lower[j] @ lower[neg[j]]) for j in modes)
        a0 = lower.get(zero)
        self.sectors = sec = _Sectors.of_pattern(
            *(M for M in (X, a0) if M is not None))
        self.X = sec.gather(X)
        self.Xt = self.X[sec.tpos]
        self.a0 = None if a0 is None else sec.gather(a0)
        self.a0t = None if a0 is None else self.a0[sec.tpos]
        eps = np.array([norms[j] * norms[j] / (2.0 * model.mass)
                        for j in modes])
        self.T = (occ @ eps)[sec.order]
        self.N = occ.sum(axis=1)[sec.order]
        for a in (self.X, self.Xt, self.a0, self.a0t, self.T, self.N):
            if a is not None:
                a.setflags(write=False)     # shared by every grid of the model


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
    plus a diagonal, formed sector by sector from the cached pieces: on the
    number sectors where c_Q and c_a0 both vanish (full at eta = 0, any
    kind at q = 0 and eta = 0, residual_r at q = 0), else on the momentum
    sectors.
    """
    if q < 0 or rho < 0 or V <= 0:
        raise ModelError("require q >= 0, rho >= 0, V > 0")
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
        raise ConfigError(f"unknown hamiltonian kind {kind}")

    if c_q == 0 and c_a0 == 0:
        sec, H = p.number_sectors, c_qdq * p.number_QdQ
    else:
        sec = p.sectors
        H = c_qdq * p.QdQ - _herm(c_q, p.Q, p.Qt) - _herm(c_a0, p.a0, p.a0t)
    H[sec.diag] += d[sec.order]
    herm = np.max(np.abs(H - np.conj(H[sec.tpos])))
    if herm > 1e-12 * max(1.0, np.max(np.abs(H))):
        raise EigenFailure(f"built matrix not Hermitian: defect {herm}")
    return OperatorMatrix(sectors=sec, values=H)


def _spectrum(sectors: _Sectors, values) -> np.ndarray:
    """Eigenvalues of a Hermitian block-diagonal operator, sector by sector
    in label order, along the last axis; leading axes stack operators of
    one layout.

    One eigensolve per sector size, on the stack of that size's
    representatives; a mirror twin takes its representative's spectrum,
    and a sector of one state its entry.  Overflow in a model's scales
    reaches here as inf or NaN entries.
    """
    if not np.isfinite(values).all():
        raise EigenFailure("matrix to diagonalize has non-finite entries")
    batch = values.shape[:-1]
    try:
        spectra = [values[..., lo:hi].real if n == 1 else np.linalg.eigvalsh(
            values[..., lo:hi].reshape(*batch, -1, n, n)[..., solve, :, :]
        )[..., take, :].reshape(*batch, -1)
            for n, lo, hi, solve, take in sectors.plan]
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    return np.concatenate(spectra, axis=-1)[..., sectors.label_order]


def trace_pressure(H: OperatorMatrix, spec: FockSpec, tp: ThermoPoint,
                   V: float) -> float:
    """(1/beta V) ln Tr exp(-beta (H - mu N)) on the truncated basis."""
    ws = _workspace(spec)
    K = H.sectors.plus_diag(H.values, -tp.mu * ws.Ntot)
    evals = _spectrum(H.sectors, K)
    return float(_logsumexp(-tp.beta * evals) / (tp.beta * V))


def approx2_pressures(spec: FockSpec, model: Model, tp: ThermoPoint,
                      V: float, q_grid, rho_grid,
                      eta: complex = 0.0) -> np.ndarray:
    """Trace pressures of the second approximant on the (q, rho) grid, an
    array of shape (len(q_grid), len(rho_grid)), from the mode factors.

    Equal to `trace_pressure(build_hamiltonian(spec, "approx2", ...))` at
    each grid point up to rounding.  Each factor's Hamiltonians for the
    whole grid form one stack, eigensolved in one call per block size.
    """
    q_grid, rho_grid = np.asarray(q_grid, float), np.asarray(rho_grid, float)
    if (q_grid < 0).any() or (rho_grid < 0).any() or V <= 0:
        raise ModelError("require q >= 0, rho >= 0, V > 0")
    u, v = model.u, model.v
    qc = [_q_complex(q, eta) for q in q_grid]
    const = ((V * u / 2.0) * np.abs(qc)[:, None] ** 2
             - (V * v / 2.0) * rho_grid ** 2)
    if not np.isfinite(const).all():
        raise EigenFailure("matrix to diagonalize has non-finite entries")
    log_trace = -tp.beta * const
    for f in _factors(spec, model):
        sec = f.sectors
        off = np.array([-_herm((u / 2.0) * c, f.X, f.Xt)
                        for c in qc]).reshape(len(qc), len(f.X))
        if f.a0 is not None:
            off = off - _herm(math.sqrt(V) * eta, f.a0, f.a0t)
        H = np.repeat(off[:, None, :], len(rho_grid), axis=1)
        H[..., sec.diag] += f.T + np.multiply.outer(v * rho_grid - tp.mu, f.N)
        herm = np.max(np.abs(H - np.conj(H[..., sec.tpos])), axis=-1)
        scale = np.maximum(1.0, np.max(np.abs(H), axis=-1))
        if (herm > 1e-12 * scale).any():
            raise EigenFailure(f"built matrix not Hermitian: defect {herm.max()}")
        log_trace = log_trace + _logsumexp(-tp.beta * _spectrum(sec, H))
    return log_trace / (tp.beta * V)


def _logsumexp(x):
    """ln sum_i e^(x_i) along the last axis, shifted by the largest x_i:
    with m copies of the maximum, ln m + max + log1p of the rest's shifted
    sum over m.  This is the evaluation order of scipy.special.logsumexp,
    so the two agree to the last bit."""
    top = x.max(axis=-1, keepdims=True)
    at_top = x == top
    m = np.count_nonzero(at_top, axis=-1)
    rest = np.exp(np.where(at_top, -np.inf, x - top)).sum(axis=-1) / m
    return np.log1p(rest) + np.log(m) + top[..., 0]


def check_superstability(spec: FockSpec, model: Model, V: float) -> dict:
    """Verify the pair-operator bound and the quartic lower bound.

    Checks min-eig of P(N^2 + M V N - Q^dag Q)P >= -1e-10, and the same for
    H - mu N - [T + (alpha/2V) N^2 - (mu + R) N] with R = M u / 2 (the mu
    terms cancel, leaving (u/2V) times the first operator).  For u <= 0
    the pairing term is itself nonnegative, so the quartic lower bound
    simplifies to H >= T + (v/2V) N^2 (R = 0, coefficient v instead of
    alpha).  Both operators conserve the particle number; they are built
    on the number sectors and eigensolved in one stacked call.
    """
    ws = _workspace(spec)
    p = _pieces(spec, model)
    Nw = ws.Ntot
    # smallest exhibited M with Q^dag Q <= N^2 + M V N on this mode set
    M = mode_coupling_norms(model, spec.mode_norms(), V)[3]
    # the full Hamiltonian at eta = 0 is built on the number sectors
    Hfull = build_hamiltonian(spec, HAM_FULL, model, V)
    sec = Hfull.sectors
    S1 = sec.plus_diag(-p.number_QdQ, Nw ** 2 + M * V * Nw)
    if model.u > 0:
        R = M * model.u / 2.0
        coeff = model.alpha
    else:
        R = 0.0
        coeff = model.v
    S2 = sec.plus_diag(Hfull.values,
                       -(p.T + (coeff / (2.0 * V)) * Nw ** 2 - R * Nw))

    min1, min2 = _spectrum(sec, np.stack(
        [S1, (S2 + np.conj(S2[sec.tpos])) / 2.0])).min(axis=-1).tolist()
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
    p1 <= p2 over the (q, rho) grids: passed when both worst slacks are at
    least -1e-10."""
    p_full = trace_pressure(build_hamiltonian(spec, HAM_FULL, model, V,
                                              eta=eta), spec, tp, V)
    p2_grid = approx2_pressures(spec, model, tp, V, q_grid, rho_grid, eta)
    tol = -1e-10
    worst_first = math.inf
    worst_second = math.inf
    for q, p2_row in zip(q_grid, p2_grid):
        p1 = trace_pressure(build_hamiltonian(spec, HAM_APPROX1, model, V,
                                              q=q, eta=eta), spec, tp, V)
        slack1 = (p_full - p1) if model.u > 0 else (p1 - p_full)
        worst_first = min(worst_first, slack1)
        for p2 in p2_row.tolist():
            worst_second = min(worst_second, p2 - p1)
    return {
        "check": "variational_chain",
        "u": model.u,
        "eta": eta,
        "V": V,
        "p_full": p_full,
        "min_slack_full_vs_approx1": worst_first,
        "min_slack_approx2_vs_approx1": worst_second,
        "grid_points": len(q_grid) * len(rho_grid),
        "passed": bool(worst_first >= tol and worst_second >= tol),
    }


def check_pair_exchange_bound(spec: FockSpec, model: Model, k, kp,
                              sign: int = 1) -> dict:
    """Spot check of the mode-pair exchange inequality.

    The operator (N_k + |lam(k)|) N_k' + (N_{-k'} + |lam(k')|) N_{-k}
    -/+ (lam*(k) lam(k') A_k^dag A_k' + h.c.) is PSD; verified on the
    working basis, whose compression is exact because A_k^dag A_k' is a
    product of the form X^dag Y with lowering X, Y, on the cached number
    sectors, which hold every nonzero of lam(k) lam(k') A_k^dag A_k' for
    lam >= 0 (EigenFailure if one falls between two sectors).
    """
    ws = _workspace(spec)
    p = _pieces(spec, model)
    sec = p.number_sectors
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
    cross = sec.gather(lam_k * lam_kp * (p.A[j].conj().T @ p.A[jp]))
    O = sec.plus_diag(-sign * (cross + cross[sec.tpos]), diag)
    min_eig = float(_spectrum(sec, O).min())
    return {
        "check": "pair_exchange_bound",
        "k": list(np.atleast_1d(k)),
        "k_prime": list(np.atleast_1d(kp)),
        "sign": sign,
        "min_eig": min_eig,
        "passed": bool(min_eig >= -1e-10),
    }
