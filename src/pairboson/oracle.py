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
positive semidefiniteness.  The operators are numpy index arithmetic: a_k
and A_k are lowering maps (`_Lowering`, one image state and weight per
state), Q is their weighted sum and Q^dag Q and A_k^dag A_k' products of
such sums, all kept as COO entries (`_Entries`).

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
call.  Mirror sectors: lambda and eps are radial and every basis here (the
working basis, and that of each of approx2's mode factors below) is that of
a mode set closed under k -> -k, so the reflection n_k <-> n_{-k} of
occupations commutes with T, N, Q, Q^dag Q and a_0, and maps the sector of
momentum P onto that of -P.  Each sector fixes every difference
n_k - n_{-k}, so the reflection keeps the order of the states within a
sector, and the two blocks of every Hamiltonian are the same matrix.  `_Pieces` pairs each sector with its mirror only after
checking, under the reflection's state map, that all its cached pieces agree
entry for entry, and `_spectrum` eigensolves one of each pair and copies its
eigenvalues to the other.  At n_max = 7 with three modes that leaves 8 of 15
momentum blocks of the working basis, and 8 of the 15 blocks of the {k, -k}
pair factor.  The spectrum comes back sector by sector in label order, so
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
`approx2_pressures` uses it over a whole (q, rho) grid.  Each factor is the
`_Pieces` of its own mode set, a `_Workspace` of the factor's modes alone,
built and cached like the working basis's (`_factors`): its Q is the
factor's pair operator, a_0 is present only in the zero mode's factor, and
its mirror twins are paired.  The grid's blocks of one size are eigensolved
in one call.  At n_max = 7 with three modes the factors hold 8 and 64
states, in blocks of at most 8; a {k, -k} pair splits by n_k - n_{-k}.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

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

# An 8 MB block, freed at once.  glibc's malloc maps every block above its
# mmap threshold (128 KB at start) to fresh pages and trims the heap top
# above twice that; freeing a larger mapped block raises both.  Without it
# the few-hundred-KB temporaries of each build_hamiltonian cost 972 page
# faults per CLI oracle op at --n-max 7 in a long-running process.
np.empty(1 << 20)


def _mode_key(k) -> tuple:
    """A mode's lookup key: its components rounded to 12 decimals."""
    return tuple(np.round(np.atleast_1d(np.asarray(k, dtype=float)), 12))


@dataclass(frozen=True)
class FockSpec:
    """Mode set and occupation truncation for a desk-scale realization:
    distinct modes, closed under k -> -k and holding k = 0, and an integer
    n_max >= 1."""

    modes: tuple
    n_max: int

    def __post_init__(self):
        try:
            n_max = operator.index(self.n_max)
        except TypeError:
            raise ModelError(f"n_max must be an integer, not {self.n_max!r}") from None
        if n_max < 1:
            raise ModelError("need n_max >= 1")
        modes = tuple(tuple(np.atleast_1d(np.asarray(m, dtype=float)))
                      for m in self.modes)
        index = {_mode_key(m): j for j, m in enumerate(modes)}
        for name, value in (("n_max", n_max), ("modes", modes), ("_index", index)):
            object.__setattr__(self, name, value)
        if len(index) < len(modes):
            raise ModelError("modes must be distinct")
        if not modes or _mode_key(np.zeros(len(modes[0]))) not in index:
            raise ModelError("mode set must contain k = 0")
        if any(_mode_key(np.negative(m)) not in index for m in modes):
            raise ModelError("mode set must be closed under k -> -k")

    def mode_norms(self):
        return [math.sqrt(sum(x * x for x in m)) for m in self.modes]

    def mode_index(self, k) -> int:
        """The place of mode k in `modes`; ModelError if k is not a mode."""
        try:
            return self._index[_mode_key(k)]
        except (KeyError, TypeError, ValueError):
            raise ModelError(f"{k!r} is not a mode of the spec") from None

    def negation_index(self):
        return [self.mode_index(np.negative(m)) for m in self.modes]


class _Entries(NamedTuple):
    """The nonzeros of a square matrix as COO triplets, no position twice."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def of_dense(cls, M) -> "_Entries":
        rows, cols = np.nonzero(M)
        return cls(rows, cols, M[rows, cols])


def _summed(rows, cols, vals, dim) -> _Entries:
    """The entries of the sum of real triplets, in row-major order: the
    values at one position are added in the order given, and a position
    whose sum is zero is dropped."""
    key, slot = np.unique(rows * dim + cols, return_inverse=True)
    vals = np.bincount(slot, weights=vals, minlength=len(key))
    nz = vals != 0
    return _Entries(key[nz] // dim, key[nz] % dim, vals[nz])


def _adjoint_product(X: _Entries, Y: _Entries, dim) -> _Entries:
    """The entries of X^dag Y for real X and Y:
    (X^dag Y)[r, c] = sum_i X[i, r] Y[i, c], summed over the shared row i
    in ascending order, as a sparse product over X^dag's rows adds it."""
    xo, yo = np.argsort(X.rows, kind="stable"), np.argsort(Y.rows, kind="stable")
    xr, yr = X.rows[xo], Y.rows[yo]
    lo = np.searchsorted(yr, xr, "left")
    count = np.searchsorted(yr, xr, "right") - lo
    left = np.repeat(np.arange(len(xr)), count)
    right = np.arange(len(left)) + np.repeat(lo - (np.cumsum(count) - count),
                                             count)
    return _summed(X.cols[xo][left], Y.cols[yo][right],
                   X.vals[xo][left] * Y.vals[yo][right], dim)


class _Lowering(NamedTuple):
    """A matrix with at most one nonzero per column: column c holds
    `weight[c]` in row `image[c]`, and nothing where image[c] < 0."""

    image: np.ndarray
    weight: np.ndarray

    def __matmul__(self, other: "_Lowering") -> "_Lowering":
        """The product self @ other: other's map, then self's."""
        ok = other.image >= 0
        mid = np.where(ok, other.image, 0)
        image = np.where(ok, self.image[mid], -1)
        return _Lowering(image, np.where(image >= 0,
                                         self.weight[mid] * other.weight, 0.0))

    def entries(self) -> _Entries:
        cols = np.flatnonzero(self.image >= 0)
        return _Entries(self.image[cols], cols, self.weight[cols])


def _ladders(n_max: int, n_modes: int):
    """The occupation basis {0..n_max}^n_modes in lexicographic order, an
    (states, modes) float array, and each mode's lowering map on it:
    lowering mode j moves a state back by (n_max+1)^(n_modes-1-j)."""
    size = n_max + 1
    occ = np.indices((size,) * n_modes).reshape(n_modes, -1).T.astype(float)
    state = np.arange(len(occ))
    return occ, [_Lowering(np.where(occ[:, j] > 0,
                                    state - size ** (n_modes - 1 - j), -1),
                           np.sqrt(occ[:, j]))
                 for j in range(n_modes)]


def _pair_sum(A, lam, dim) -> _Entries:
    """The entries of sum_j lam[j] A[j] for lowering maps A[j], added in
    the order of j."""
    parts = [a.entries() for a in A]
    return _summed(np.concatenate([e.rows for e in parts]),
                   np.concatenate([e.cols for e in parts]),
                   np.concatenate([lj * e.vals for e, lj in zip(parts, lam)]),
                   dim)


def _components(dim, *entries) -> np.ndarray:
    """Each state's connected component in the union nonzero pattern of
    the `entries`, the components numbered in the order of their smallest
    states.

    Min-label propagation: each edge hooks the larger of its ends' roots
    onto the smaller, and pointer jumping flattens the trees, until no edge
    joins two roots; a component's root is then its smallest state.
    """
    nz = [e.vals != 0 for e in entries]
    rows = np.concatenate([e.rows[k] for e, k in zip(entries, nz)])
    cols = np.concatenate([e.cols[k] for e, k in zip(entries, nz)])
    root = np.arange(dim)
    while True:
        a, b = root[rows], root[cols]
        apart = a != b
        if not apart.any():
            return np.unique(root, return_inverse=True)[1]
        np.minimum.at(root, np.maximum(a, b)[apart], np.minimum(a, b)[apart])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


class _Sectors:
    """A split of a basis (a `_Workspace`'s, or any matrix's) into
    sectors, and the block layout.

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
    def of_pattern(cls, dim, *entries):
        """Connected components of the union nonzero pattern of the
        `entries` on a basis of dim states (`_components`)."""
        return cls(_components(dim, *entries))

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

    def gather(self, M: _Entries) -> np.ndarray:
        """The flat block values of a matrix given by its entries; a
        nonzero between two sectors raises EigenFailure."""
        nz = M.vals != 0
        rows, cols = M.rows[nz], M.cols[nz]
        s = self.sector[rows]
        if (s != self.sector[cols]).any():
            raise EigenFailure("operator has a nonzero between two sectors")
        out = np.zeros(self.bounds[-1], dtype=M.vals.dtype)
        out[self.bounds[s] + self.local[rows] * self.sizes[s]
            + self.local[cols]] = M.vals[nz]
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
    `matrix` assembles the dense working-basis matrix on access; assigning
    a dense matrix splits it by the components of its own nonzero pattern.
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
        entries = _Entries.of_dense(np.asarray(M))
        self.sectors = _Sectors.of_pattern(len(M), entries)
        self.values = self.sectors.gather(entries)


@lru_cache(maxsize=8)
def _workspace(spec: "FockSpec") -> "_Workspace":
    return _Workspace(spec)


class _Workspace:
    """Occupation basis and ladder operators of a set of modes of one
    FockSpec, closed under k -> -k: every mode of the spec (the working
    basis) unless `modes` lists fewer.

    The states are all occupation tuples with n_k <= n_max over the set's
    modes, in lexicographic order (`_ladders`).  `neg` gives the place in
    the set of each mode's negative, and `zero` that of the zero mode, None
    when the set does not hold it.
    """

    def __init__(self, spec: FockSpec, modes=None):
        modes = range(len(spec.modes)) if modes is None else modes
        self.spec = spec
        self.dim = (spec.n_max + 1) ** len(modes)
        if self.dim > _MAX_DIM:
            raise DimensionExceeded(
                f"working dimension {self.dim} exceeds cap {_MAX_DIM}")
        self.occ, self.lower = _ladders(spec.n_max, len(modes))
        self.Ntot = self.occ.sum(axis=1)
        neg, norms = spec.negation_index(), spec.mode_norms()
        self.neg = [modes.index(neg[j]) for j in modes]
        self.norms = [norms[j] for j in modes]
        zero = int(np.argmin(norms))
        self.zero = modes.index(zero) if zero in modes else None

    def pair_lower(self, model: Model):
        """A_k = a_k a_{-k} per mode, as lowering maps, and the entries of
        Q = sum_k lambda(k) A_k."""
        A = [a @ self.lower[k] for a, k in zip(self.lower, self.neg)]
        return A, _pair_sum(A, _lambdas(model, self.norms), self.dim)

    def diag_T(self, model: Model):
        eps = np.array([r * r / (2.0 * model.mass) for r in self.norms])
        return self.occ @ eps


@lru_cache(maxsize=8)
def _pieces(spec: FockSpec, model: Model) -> "_Pieces":
    return _Pieces(_workspace(spec), model)


class _Pieces:
    """Per-sector real blocks of Q, Q^dag Q and a_0 for one model on the
    basis of a `_Workspace`, on two layouts.

    Q, Q^dag Q and a_0 are flat block arrays in the layout of `sectors`
    (fixed momentum), the components of the pattern of Q, Q^dag Q and a_0,
    and `Qt`, `a0t` their transposes; a_0 and a0t are None where the basis
    lacks the zero mode.  `number_QdQ` is Q^dag Q in the layout of
    `number_sectors` (fixed particle number and momentum), built on first
    read.  T and N are diagonal and kept as vectors in basis order.  `A`
    holds the pair operators A_k of `pair_lower`.  The momentum sectors'
    mirror twins are paired here (`_twins`).
    """

    def __init__(self, ws: _Workspace, model: Model):
        self.A, Q = ws.pair_lower(model)
        self._QdQ = QdQ = _adjoint_product(Q, Q, ws.dim)
        a0 = None if ws.zero is None else ws.lower[ws.zero].entries()
        self.sectors = sec = _Sectors.of_pattern(
            ws.dim, *(M for M in (Q, QdQ, a0) if M is not None))
        self.Q, self.QdQ = sec.gather(Q), sec.gather(QdQ)
        self.a0 = None if a0 is None else sec.gather(a0)
        self.Qt = self.Q[sec.tpos]
        self.a0t = None if a0 is None else self.a0[sec.tpos]
        self.T = ws.diag_T(model)
        self.N = ws.Ntot
        sec.pair_twins(self._twins(ws))
        for a in (self.Q, self.QdQ, self.a0, self.Qt, self.a0t, self.T,
                  self.N):
            if a is not None:
                a.setflags(write=False)  # shared by every build of the model

    @cached_property
    def number_sectors(self) -> _Sectors:
        return _Sectors.of_pattern(len(self.N), self._QdQ)

    @cached_property
    def number_QdQ(self) -> np.ndarray:
        out = self.number_sectors.gather(self._QdQ)
        out.setflags(write=False)
        return out

    def _twins(self, ws: _Workspace) -> np.ndarray:
        """Each sector's representative under the reflection n_k <-> n_{-k}.

        The reflection maps the basis onto itself; `mirror` is its state
        map.  Every sector fixes each difference n_k - n_{-k}, so the map
        keeps the order of the states within a sector.  A sector s and the
        sector t holding its mirror states are twins when the map carries
        the states of s, in order, onto those of t and the blocks of T, N,
        Q, Q^dag Q and a_0 on t equal those on s entry for entry.  The two
        blocks of any Hamiltonian built from these pieces are then the same
        matrix, and one eigensolve serves both to the last bit.  The earlier
        of the two in the layout represents both; a sector that is its own
        mirror, or fails the check, represents itself.
        """
        sec = self.sectors
        strides = (ws.spec.n_max + 1) ** np.arange(len(ws.neg))[::-1]
        mirror = (ws.occ[:, ws.neg] @ strides).astype(np.intp)
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
                if X is not None:
                    B = X[sec.bounds[s0]:sec.bounds[s0 + m]].reshape(m, n, n)
                    good &= (B[partner] == B).all(axis=(1, 2))
            twin = good & good[partner] & (partner != own)
            rep[s0:s0 + m] = s0 + np.where(twin, np.minimum(partner, own), own)
            start += m * n
        return rep


@lru_cache(maxsize=8)
def _factors(spec: FockSpec, model: Model) -> tuple:
    """The mode factors of the second approximant, each the `_Pieces` of
    its own modes: the zero mode alone, and each {k, -k} pair.  Cached apart
    from `_pieces`, whose eight entries the factors would crowd out."""
    return tuple(_Pieces(_Workspace(spec, modes), model) for modes in sorted(
        {tuple(sorted({j, k})) for j, k in enumerate(spec.negation_index())}))


def _lambdas(model: Model, norms) -> list:
    """lambda(|k|) at each mode norm."""
    return [float(model.lambda_profile.value_radial(r)) for r in norms]


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
        off = np.array([-_herm((u / 2.0) * c, f.Q, f.Qt)
                        for c in qc]).reshape(len(qc), len(f.Q))
        if f.a0 is not None:
            off = off - _herm(math.sqrt(V) * eta, f.a0, f.a0t)
        H = np.repeat(off[:, None, :], len(rho_grid), axis=1)
        H[..., sec.diag] += (f.T + np.multiply.outer(v * rho_grid - tp.mu,
                                                     f.N))[:, sec.order]
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
    j, jp = spec.mode_index(k), spec.mode_index(kp)
    ws = _workspace(spec)
    p = _pieces(spec, model)
    sec = p.number_sectors
    neg = spec.negation_index()
    lam_k, lam_kp = _lambdas(model, [ws.norms[j], ws.norms[jp]])

    occ = ws.occ
    Nk = occ[:, j]
    Nkp = occ[:, jp]
    Nmk = occ[:, neg[j]]
    Nmkp = occ[:, neg[jp]]
    diag = (Nk + abs(lam_k)) * Nkp + (Nmkp + abs(lam_kp)) * Nmk
    cross = _adjoint_product(p.A[j].entries(), p.A[jp].entries(), ws.dim)
    cross = sec.gather(cross._replace(vals=lam_k * lam_kp * cross.vals))
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
