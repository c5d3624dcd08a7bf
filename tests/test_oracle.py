"""Tests for the truncated-Fock exact-diagonalization consistency checks."""

import math
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse import csr_matrix, diags, identity
from scipy.sparse.csgraph import connected_components
from scipy.special import logsumexp

from pairboson import cli
from pairboson.cli import _default_fock_spec
from pairboson.errors import (
    ConfigError, DimensionExceeded, EigenFailure, ModelError, PairBosonError,
)
from pairboson.model import (
    Model, gaussian_profile, delta_profile, power_profile, mode_coupling_norms,
)
from pairboson.oracle import (
    FockSpec, build_hamiltonian, trace_pressure,
    check_superstability, check_variational_chain,
    check_pair_exchange_bound, OperatorMatrix, _Pieces, _Sectors,
    _logsumexp, _pieces, _spectrum, _workspace, approx2_pressures, _factors,
)
from pairboson.pressure import ThermoPoint, OrderPoint, pressure_fv_modes

MODES = ((0.0,), (1.0,), (-1.0,))
MODEL = Model(dim=1, mass=0.5, u=0.5, v=1.0,
              lambda_profile=gaussian_profile(0.5))
TP = ThermoPoint(beta=1.0, mu=-0.4)
V = 3.0


def spec(n_max=6):
    return FockSpec(modes=MODES, n_max=n_max)


class TestFockSpec:
    def test_requires_zero_mode(self):
        with pytest.raises(ModelError):
            FockSpec(modes=((1.0,), (-1.0,)), n_max=4)

    def test_requires_negation_closure(self):
        with pytest.raises(ModelError):
            FockSpec(modes=((0.0,), (1.0,)), n_max=4)

    def test_dimension_cap(self):
        # the cap is checked before any state is listed
        for n_max in (40, 10 ** 6):
            with pytest.raises(DimensionExceeded):
                _workspace(FockSpec(modes=MODES, n_max=n_max))


class TestLadderAlgebra:
    def test_a0_squared_on_two_quanta(self):
        # A_0 = a_0 a_0 maps |2,0,0> to sqrt(2)|0,0,0>
        sp = FockSpec(modes=((0.0,),), n_max=2)
        ws = _workspace(sp)
        A0 = ws.pair_lower(MODEL)[0][0].toarray()
        states = ws.occ.tolist()
        i0, i2 = states.index([0]), states.index([2])
        assert A0[i0, i2] == pytest.approx(math.sqrt(2.0))

    def test_n_diagonal(self):
        # sum_k a_k^dag a_k is diagonal with the total occupation
        ws = _workspace(spec(4))
        N = sum(a.T @ a for a in ws.lower).toarray()
        np.testing.assert_allclose(N, np.diag(ws.Ntot))
        np.testing.assert_array_equal(ws.Ntot,
                                      [sum(s) for s in ws.occ.tolist()])

    def test_qdagq_on_two_zero_quanta(self):
        # <n0=2| Q^dag Q |n0=2> = N0 (N0 - 1) = 2 for the delta profile
        m = Model(dim=1, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=delta_profile())
        ws = _workspace(spec(4))
        _, Q = ws.pair_lower(m)
        QdQ = (Q.T @ Q).toarray()
        idx = ws.occ.tolist().index([2, 0, 0])
        assert QdQ[idx, idx] == pytest.approx(2.0)

    def test_commutator_on_interior(self):
        # [a, a^dag] = 1 on all states with n < n_max
        sp = FockSpec(modes=((0.0,),), n_max=6)
        ws = _workspace(sp)
        a = ws.lower[0].toarray()
        comm = a @ a.conj().T - a.conj().T @ a
        interior = [i for i, s in enumerate(ws.occ) if s[0] < sp.n_max]
        for i in interior:
            assert comm[i, i] == pytest.approx(1.0)


@pytest.mark.parametrize("build, error", [
    (lambda: build_hamiltonian(spec(), "full", MODEL, V, q=-0.1), ModelError),
    (lambda: build_hamiltonian(spec(), "full", MODEL, 0.0), ModelError),
    (lambda: build_hamiltonian(spec(), "not_a_kind", MODEL, V), ConfigError),
    (lambda: approx2_pressures(spec(), MODEL, TP, V, [-0.1], [0.5]),
     ModelError),
    (lambda: approx2_pressures(spec(), MODEL, TP, V, [0.1], [-0.5]),
     ModelError),
    (lambda: approx2_pressures(spec(), MODEL, TP, 0.0, [0.1], [0.5]),
     ModelError),
])
def test_bad_arguments_raise_typed_errors(build, error):
    with pytest.raises(PairBosonError) as info:
        build()
    assert info.type is error


class TestHamiltonianIdentities:
    Q, RHO, ETA = 0.3, 0.8, 0.2

    def test_hermiticity(self):
        for kind in ("full", "approx1", "approx2", "residual_r"):
            H = build_hamiltonian(spec(), kind, MODEL, V, q=self.Q,
                                  rho=self.RHO, eta=self.ETA).matrix
            assert np.max(np.abs(H - H.conj().T)) < 1e-12

    def test_full_equals_approx1_plus_residual(self):
        sp = spec()
        Hf = build_hamiltonian(sp, "full", MODEL, V, eta=self.ETA).matrix
        H1 = build_hamiltonian(sp, "approx1", MODEL, V, q=self.Q,
                               eta=self.ETA).matrix
        Hr = build_hamiltonian(sp, "residual_r", MODEL, V, q=self.Q,
                               eta=self.ETA).matrix
        assert np.max(np.abs(Hf - H1 - Hr)) < 1e-12

    def test_approx1_minus_approx2_is_density_square(self):
        sp = spec()
        H1 = build_hamiltonian(sp, "approx1", MODEL, V, q=self.Q,
                               eta=self.ETA).matrix
        H2 = build_hamiltonian(sp, "approx2", MODEL, V, q=self.Q,
                               rho=self.RHO, eta=self.ETA).matrix
        D = (MODEL.v / (2.0 * V)) * (_workspace(sp).Ntot - V * self.RHO) ** 2
        assert np.max(np.abs((H1 - H2) - np.diag(D))) < 1e-12

    def test_residual_sign(self):
        sp = spec()
        Hr = build_hamiltonian(sp, "residual_r", MODEL, V, q=self.Q).matrix
        assert sla.eigvalsh(Hr.real).max() < 1e-10  # u > 0: residual <= 0
        m = Model(dim=1, mass=0.5, u=-0.5, v=1.0,
                  lambda_profile=gaussian_profile(0.5))
        Hr = build_hamiltonian(sp, "residual_r", m, V, q=self.Q).matrix
        assert sla.eigvalsh(Hr.real).min() > -1e-10  # u < 0: residual >= 0

    def test_residual_sign_negative_control(self):
        # flipping the sign of u must break the semidefiniteness check
        m = Model(dim=1, mass=0.5, u=-0.5, v=1.0,
                  lambda_profile=gaussian_profile(0.5))
        Hr = build_hamiltonian(spec(), "residual_r", m, V, q=self.Q).matrix
        assert sla.eigvalsh(Hr.real).max() > 1e-3  # not <= 0 anymore


class TestTracePressure:
    def test_single_mode_geometric_sum(self):
        sp = FockSpec(modes=((0.0,),), n_max=10)
        omega = 0.7
        m = Model(dim=1, mass=0.5, u=0.0, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
        ws = _workspace(sp)
        H = OperatorMatrix(matrix=np.diag(omega * ws.Ntot).astype(complex))
        tp = ThermoPoint(beta=2.0, mu=0.0)
        got = trace_pressure(H, sp, tp, 1.0)
        expected = math.log(sum(math.exp(-2.0 * omega * n)
                                for n in range(11))) / 2.0
        assert got == pytest.approx(expected, rel=1e-14)
        # n_max -> infinity: geometric series
        assert got == pytest.approx(-math.log1p(-math.exp(-2.0 * omega))
                                    / 2.0, rel=1e-6)

    @pytest.mark.parametrize("beta", [1e-3, 1.0, 40.0, 1e4, 1e8])
    def test_logsumexp_matches_scipy(self, beta):
        # spectra as trace_pressure passes them, -beta E, with a repeated
        # ground level, huge beta E, and one level alone
        rng = np.random.default_rng(3)
        spectra = [np.sort(rng.uniform(-2.0, 30.0, 200)),
                   np.array([-1.5, -1.5, -1.5, 0.2, 7.0]),
                   np.array([0.3]),
                   np.concatenate([np.full(4, 2.0),
                                   rng.uniform(2.0, 2.0 + 1e-12, 9)])]
        for evals in spectra:
            x = -beta * evals
            assert _logsumexp(x) == pytest.approx(logsumexp(x), rel=1e-15,
                                                  abs=0.0)

    def test_approx2_matches_closed_form(self):
        q, rho, eta = 0.3, 0.8, 0.2
        closed = pressure_fv_modes(MODEL, TP, OrderPoint(q, rho, eta),
                                   [0.0, 1.0, 1.0], V)
        errs = []
        for n_max in (6, 9, 12):
            H = build_hamiltonian(spec(n_max), "approx2", MODEL, V,
                                  q=q, rho=rho, eta=eta)
            ptr = trace_pressure(H, spec(n_max), TP, V)
            errs.append(abs(ptr - closed) / abs(closed))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-4

    def test_gauge_covariance(self):
        q, rho, eta = 0.3, 0.8, 0.2
        sp = spec(6)
        for kind in ("full", "approx1", "approx2"):
            base = trace_pressure(build_hamiltonian(
                sp, kind, MODEL, V, q=q, rho=rho, eta=eta), sp, TP, V)
            for phi in (0.9, 2.4):
                rot = trace_pressure(build_hamiltonian(
                    sp, kind, MODEL, V, q=q, rho=rho,
                    eta=eta * np.exp(1j * phi)), sp, TP, V)
                assert abs(rot - base) < 1e-12

    def test_truncation_monotone(self):
        prev = -np.inf
        for n_max in (4, 6, 8):
            p = trace_pressure(build_hamiltonian(
                spec(n_max), "full", MODEL, V, eta=0.2), spec(n_max), TP, V)
            assert p >= prev
            prev = p


class TestChecks:
    def test_superstability_delta_single_mode(self):
        # N^2 + MVN - Q^dag Q = N(MV + 1) >= 0 exactly
        m = Model(dim=1, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=delta_profile())
        sp = FockSpec(modes=((0.0,),), n_max=8)
        rep = check_superstability(sp, m, 2.0)
        assert rep["passed"]
        assert rep["min_eig_pair_bound"] >= -1e-10

    def test_superstability_three_mode(self):
        for u in (0.5, -0.5):
            m = Model(dim=1, mass=0.5, u=u, v=1.0,
                      lambda_profile=gaussian_profile(0.5))
            rep = check_superstability(spec(), m, V)
            assert rep["passed"], rep

    def test_variational_chain(self):
        rep = check_variational_chain(spec(), MODEL, TP, V,
                                      q_grid=np.linspace(0.0, 0.8, 4),
                                      rho_grid=np.linspace(0.1, 1.5, 4),
                                      eta=0.2)
        assert rep["passed"]
        assert rep["min_slack_full_vs_approx1"] >= -1e-10
        assert rep["min_slack_approx2_vs_approx1"] >= -1e-10

    def test_failing_chain_is_reported(self, corrupted_full):
        # the report carries the violation instead of raising it
        rep = check_variational_chain(spec(), MODEL, TP, V,
                                      q_grid=np.linspace(0.0, 0.8, 4),
                                      rho_grid=np.linspace(0.1, 1.5, 4),
                                      eta=0.2)
        assert rep["passed"] is False
        assert min(rep["min_slack_full_vs_approx1"],
                   rep["min_slack_approx2_vs_approx1"]) < -1e-10
        assert rep["grid_points"] == 16

    def test_variational_chain_repulsive_flips(self):
        m = Model(dim=1, mass=0.5, u=-0.5, v=1.0,
                  lambda_profile=gaussian_profile(0.5))
        rep = check_variational_chain(spec(), m, TP, V,
                                      q_grid=np.linspace(0.0, 0.8, 4),
                                      rho_grid=np.linspace(0.1, 1.5, 4),
                                      eta=0.2)
        assert rep["passed"]

    def test_pair_exchange_bound(self):
        for sign in (1, -1):
            rep = check_pair_exchange_bound(spec(), MODEL, (1.0,), (0.0,),
                                            sign=sign)
            assert rep["passed"], rep


def _extended(sp, model):
    """Independent reference: the ladder operators on the basis extended by
    two quanta per mode, and `proj`, the compression to the working states.
    A product of these that lowers or raises at most two quanta per mode
    and is then compressed is exact, whatever order it is formed in."""
    states = list(product(range(sp.n_max + 3), repeat=len(sp.modes)))
    index = {s: i for i, s in enumerate(states)}
    n = len(states)

    def lower(j):
        cols = [i for i, s in enumerate(states) if s[j] > 0]
        rows = [index[s[:j] + (s[j] - 1,) + s[j + 1:]]
                for s in (states[i] for i in cols)]
        vals = [math.sqrt(states[i][j]) for i in cols]
        return csr_matrix((vals, (rows, cols)), shape=(n, n))

    a = [lower(j) for j in range(len(sp.modes))]
    neg = sp.negation_index()
    A = [a[j] @ a[neg[j]] for j in range(len(a))]
    norms = np.array(sp.mode_norms())
    lam = [float(model.lambda_profile.value_radial(r)) for r in norms]
    work = [i for i, s in enumerate(states) if max(s) <= sp.n_max]
    occ = np.array([states[i] for i in work], dtype=float)
    return SimpleNamespace(
        A=A, Q=sum(c * Aj for c, Aj in zip(lam, A)), lam=lam,
        a0=a[int(np.argmin(norms))], one=identity(n, format="csr"),
        proj=lambda M: M.tocsr()[work][:, work].toarray(), occ=occ,
        T=occ @ (norms ** 2 / (2.0 * model.mass)), N=occ.sum(axis=1))


def _dense_hamiltonian(sp, kind, model, V, q=0.0, rho=0.0, eta=0.0):
    """Reference: every kind assembled as one dense complex matrix from the
    extended-basis sparse products, projected to the working basis."""
    ref = _extended(sp, model)
    proj, T, Nw, Q = ref.proj, ref.T, ref.N, ref.Q
    dim = len(Nw)
    u, v = model.u, model.v
    Qw = proj(Q)
    H = np.zeros((dim, dim), dtype=complex)

    def add_source(H):
        if eta != 0:
            a0w = proj(ref.a0)
            H -= math.sqrt(V) * (eta * a0w.conj().T + np.conj(eta) * a0w)
        return H

    psi = np.angle(eta) if eta != 0 else 0.0
    qc = q * np.exp(2.0j * psi)
    if kind == "full":
        H += np.diag(T + (v / (2.0 * V)) * Nw ** 2)
        H -= (u / (2.0 * V)) * proj(Q.conj().T @ Q)
        H = add_source(H)
    elif kind == "approx1":
        H += np.diag(T + (v / (2.0 * V)) * Nw ** 2)
        H -= (u / 2.0) * (qc * Qw.conj().T + np.conj(qc) * Qw)
        H += (V * u / 2.0) * abs(qc) ** 2 * np.eye(dim)
        H = add_source(H)
    elif kind == "approx2":
        H += np.diag(T + v * rho * Nw)
        H -= (u / 2.0) * (qc * Qw.conj().T + np.conj(qc) * Qw)
        H += ((V * u / 2.0) * abs(qc) ** 2
              - (V * v / 2.0) * rho ** 2) * np.eye(dim)
        H = add_source(H)
    else:
        assert kind == "residual_r"
        X = Q - qc * V * ref.one
        H -= (u / (2.0 * V)) * proj(X.conj().T @ X)
    return H


def _dense_pressure(H, sp, tp, V):
    ws = _workspace(sp)
    K = H - tp.mu * np.diag(ws.Ntot)
    return logsumexp(-tp.beta * sla.eigvalsh(K)) / (tp.beta * V)


def _state_sectors(sec):
    """The layout sector of each working-basis state."""
    label = np.empty(sec.dim, dtype=int)
    for s, states in enumerate(sec.index):
        label[states] = s
    return label


KINDS = ("full", "approx1", "approx2", "residual_r")
SOURCES = ({"eta": 0.2}, {"eta": 0.2 * np.exp(0.7j)})


class TestSectors:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("u", [0.5, -0.5])
    def test_builds_match_dense_assembly(self, dim, u):
        m = Model(dim=dim, mass=0.5, u=u, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
        sp = _default_fock_spec(m, 4)
        dim_work = _workspace(sp).dim
        for kind in KINDS:
            for src in SOURCES:
                H = build_hamiltonian(sp, kind, m, V, q=0.3, rho=0.8, **src)
                ref = _dense_hamiltonian(sp, kind, m, V, q=0.3, rho=0.8, **src)
                scale = max(1.0, np.max(np.abs(ref)))
                assert np.max(np.abs(H.matrix - ref)) <= 1e-14 * scale, (kind, src)
                # stored by sector, eigensolved by sector
                assert max(len(i) for i in H.sectors.index) < dim_work
                p_ref = _dense_pressure(ref, sp, TP, V)
                assert trace_pressure(H, sp, TP, V) == pytest.approx(
                    p_ref, rel=1e-13, abs=0), (kind, src)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_working_basis_products_are_exact(self, dim):
        # every product the oracle forms is X^dag Y with X, Y lowering, so
        # forming it on the working basis equals compressing the product
        # formed with two quanta of headroom per mode
        m = Model(dim=dim, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
        sp = _default_fock_spec(m, 4)
        ws, ref = _workspace(sp), _extended(sp, m)
        np.testing.assert_array_equal(ws.occ, ref.occ)
        pieces = _pieces(sp, m)
        for blocks, full in ((pieces.Q, ref.Q), (pieces.QdQ, ref.Q.T @ ref.Q),
                             (pieces.a0, ref.a0)):
            np.testing.assert_allclose(pieces.sectors.assemble(blocks),
                                       ref.proj(full), rtol=0, atol=1e-14)
        A, _ = ws.pair_lower(m)
        for j, jp in product(range(len(A)), repeat=2):
            np.testing.assert_allclose((A[j].T @ A[jp]).toarray(),
                                       ref.proj(ref.A[j].T @ ref.A[jp]),
                                       rtol=0, atol=1e-14)
        # negative control: a product that raises first is not exact
        a0 = ws.lower[ws.zero_mode()]
        assert not np.allclose((a0 @ a0.T).toarray(),
                               ref.proj(ref.a0 @ ref.a0.T))
        # the pair-exchange operator for k = +e_1, k' = 0 (negation index
        # [0, 2, 1]), eigensolved densely from the compressed products
        Nk, Nkp, Nmk = ref.occ[:, 1], ref.occ[:, 0], ref.occ[:, 2]
        lk, lkp = ref.lam[1], ref.lam[0]
        cross = lk * lkp * ref.proj(ref.A[1].T @ ref.A[0])
        for sign in (1, -1):
            O = (np.diag((Nk + abs(lk)) * Nkp + (Nkp + abs(lkp)) * Nmk)
                 - sign * (cross + cross.T))
            rep = check_pair_exchange_bound(sp, m, sp.modes[1], sp.modes[0],
                                            sign=sign)
            assert rep["min_eig"] == pytest.approx(
                sla.eigvalsh(O).min(), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("u,profile", [(0.5, gaussian_profile(1.0)),
                                           (-0.3, gaussian_profile(1.0)),
                                           (0.5, delta_profile())])
    def test_pieces_vanish_between_sectors(self, u, profile):
        m = Model(dim=3, mass=0.5, u=u, v=1.0, lambda_profile=profile)
        sp = _default_fock_spec(m, 7)
        ws = _workspace(sp)
        pieces = _pieces(sp, m)
        sec = pieces.sectors
        label = _state_sectors(sec)
        _, Q = ws.pair_lower(m)
        for full, blocks in ((Q, pieces.Q), (Q.conj().T @ Q, pieces.QdQ),
                             (ws.lower[ws.zero_mode()], pieces.a0)):
            full = full.toarray()
            assert full.dtype == blocks.dtype == float
            inside = np.equal.outer(label, label)
            assert np.all(full[~inside] == 0.0)
            assert np.array_equal(sec.assemble(blocks), full)
        sizes = sorted(len(i) for i in sec.index)
        if profile.kind == delta_profile().kind:
            # lambda(k != 0) = 0: only the zero mode pairs, finer sectors
            assert len(sizes) > 15 and max(sizes) < 64
        else:
            assert len(sizes) == 15 and max(sizes) == 64
            assert sizes == sorted(8 * (8 - abs(P)) for P in range(-7, 8))

    def test_dense_matrix_is_one_sector(self):
        # negative control: a random Hermitian matrix has no sectors to
        # split, and the one eigensolve path still returns its spectrum
        sp = _default_fock_spec(MODEL, 4)
        n = _workspace(sp).dim
        rng = np.random.default_rng(7)
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        R = (R + R.conj().T) / 2.0
        H = OperatorMatrix(matrix=R)
        assert len(H.sectors.index) == 1
        assert np.array_equal(H.sectors.rep, [0])
        np.testing.assert_allclose(_spectrum(H.sectors, H.values),
                                   sla.eigvalsh(R), rtol=0, atol=1e-12)
        assert trace_pressure(H, sp, TP, V) == pytest.approx(
            _dense_pressure(R, sp, TP, V), rel=1e-13, abs=0)
        np.testing.assert_array_equal(H.matrix, R)


def _label_order_pressure(H, sp, tp, V, labels):
    """Reference trace pressure: every sector of `labels` eigensolved on
    its own, sectors in label order, states ascending within each."""
    ws = _workspace(sp)
    K = H.matrix
    K[np.diag_indices_from(K)] += -tp.mu * ws.Ntot
    evals = np.concatenate([np.linalg.eigvalsh(K[np.ix_(s, s)])
                            for s in (np.flatnonzero(labels == L)
                                      for L in range(labels.max() + 1))])
    return float(_logsumexp(-tp.beta * evals) / (tp.beta * V))


def _piece_labels(sp, m):
    """Connected components of the union pattern of Q, Q^dag Q and a_0."""
    ws = _workspace(sp)
    _, Q = ws.pair_lower(m)
    pattern = abs(Q) + abs(Q.T @ Q) + abs(ws.lower[ws.zero_mode()])
    return connected_components(pattern, directed=False)[1]


def _number_labels(sp, m):
    """Connected components of the pattern of Q^dag Q alone."""
    _, Q = _workspace(sp).pair_lower(m)
    return connected_components(abs(Q.T @ Q), directed=False)[1]


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(np.shape(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


PROFILES = {"gaussian": gaussian_profile(1.0), "delta": delta_profile()}


class TestStackedSpectra:
    """Sectors stacked by size, mirror twins eigensolved once."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("u", [0.5, -0.5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_trace_pressure_is_bit_equal_to_sector_by_sector(self, dim, u,
                                                             profile):
        m = Model(dim=dim, mass=0.5, u=u, v=1.0,
                  lambda_profile=PROFILES[profile])
        sp = _default_fock_spec(m, 7)
        p = _pieces(sp, m)
        labels = _piece_labels(sp, m)
        # the builds whose Q and a_0 coefficients both vanish are on the
        # number sectors: full and every kind at q = 0, without a source
        # unless residual_r, which has none
        number = _number_labels(sp, m)
        for kind in KINDS:
            for q, src in product((0.3, 0.0), SOURCES + ({"eta": 0.0},)):
                free = ((kind == "full" or q == 0)
                        and (kind == "residual_r" or src["eta"] == 0))
                H = build_hamiltonian(sp, kind, m, V, q=q, rho=0.8, **src)
                assert H.sectors is (p.number_sectors if free
                                     else p.sectors), (kind, q, src)
                assert trace_pressure(H, sp, TP, V) == _label_order_pressure(
                    H, sp, TP, V, number if free else labels), (kind, q, src)

    @pytest.mark.parametrize("profile, calls", [("gaussian", 8),
                                                ("delta", 1)])
    def test_eigensolve_budget(self, profile, calls, monkeypatch):
        m = Model(dim=1, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=PROFILES[profile])
        sp = _default_fock_spec(m, 7)
        H = build_hamiltonian(sp, "full", m, V, eta=0.2)
        seen = _count_eigvalsh(monkeypatch)
        trace_pressure(H, sp, TP, V)
        assert len(seen) == calls
        # one stack per sector size, of the representatives alone
        sizes = sorted(len(i) for i in _pieces(sp, m).sectors.index)
        assert sorted(s[-1] for s in seen) == sorted(set(sizes))
        assert sum(s[0] * s[-1] for s in seen) < sum(sizes)

    def test_pair_exchange_solves_once_per_size(self, monkeypatch):
        # the operator's own components are the number sectors: 218 of
        # sizes 1-4, and the single states take no eigensolve
        sp = _default_fock_spec(MODEL, 7)
        ws = _workspace(sp)
        A, _ = ws.pair_lower(MODEL)
        cross = A[1].T @ A[0]
        _, labels = connected_components(abs(cross) + abs(cross.T),
                                         directed=False)
        sec = _pieces(sp, MODEL).number_sectors
        assert labels.max() + 1 == len(sec.sizes) == 218
        assert set(sec.sizes.tolist()) == {1, 2, 3, 4}
        assert np.array_equal(labels[sec.order], np.repeat(
            labels[[i[0] for i in sec.index]], sec.sizes))
        seen = _count_eigvalsh(monkeypatch)
        monkeypatch.setattr(_Sectors, "of_pattern", None)   # no new split
        for sign in (1, -1):
            seen.clear()
            check_pair_exchange_bound(sp, MODEL, sp.modes[1], sp.modes[0],
                                      sign=sign)
            assert sorted(s[-1] for s in seen) == [2, 3, 4]

    @pytest.mark.parametrize("profile, pairs", [("gaussian", 7),
                                                ("delta", 28)])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mirror_twin_counts(self, dim, profile, pairs):
        m = Model(dim=dim, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=PROFILES[profile])
        sec = _pieces(_default_fock_spec(m, 7), m).sectors
        own = np.arange(len(sec.index))
        assert np.count_nonzero(sec.rep != own) == pairs
        # a twin's representative represents itself, and holds the
        # twin's mirror states in the same order
        assert np.array_equal(sec.rep[sec.rep], sec.rep)
        ws = _workspace(_default_fock_spec(m, 7))
        mirror = ws.occ[:, _default_fock_spec(m, 7).negation_index()]
        for s in np.flatnonzero(sec.rep != own):
            np.testing.assert_array_equal(mirror[sec.index[s]],
                                          ws.occ[sec.index[sec.rep[s]]])

    def test_failed_check_makes_no_twin(self):
        # negative control: one entry of Q changed in a twin sector breaks
        # that pair alone
        sp = _default_fock_spec(MODEL, 7)
        p = _Pieces(_workspace(sp), MODEL)
        sec = p.sectors
        twin = int(np.flatnonzero(sec.rep != np.arange(len(sec.index)))[0])
        rep = int(sec.rep[twin])
        lo, hi = sec.bounds[twin], sec.bounds[twin + 1]
        Q = p.Q.copy()
        Q[lo + np.flatnonzero(Q[lo:hi])[0]] *= 1.0 + 1e-15
        p.Q = Q
        reps = p._twins(_workspace(sp))
        assert reps[twin] == twin and reps[rep] == rep
        assert np.count_nonzero(reps != np.arange(len(reps))) == 6

    def test_matrix_setter_makes_no_twins(self):
        # negative control: random Hermitian blocks on the momentum sectors
        # of the pieces, whose mirror sectors have equal sizes but unequal
        # blocks; the setter pairs nothing and the spectrum is exact
        sp = _default_fock_spec(MODEL, 7)
        labels = _piece_labels(sp, MODEL)
        rng = np.random.default_rng(11)
        n = len(labels)
        R = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        R = np.where(np.equal.outer(labels, labels), R + R.conj().T, 0.0)
        H = OperatorMatrix(matrix=R)
        assert len(H.sectors.index) == 15
        assert np.array_equal(H.sectors.rep, np.arange(15))
        np.testing.assert_allclose(np.sort(_spectrum(H.sectors, H.values)),
                                   sla.eigvalsh(R), rtol=0, atol=1e-12)
        assert trace_pressure(H, sp, TP, V) == pytest.approx(
            _dense_pressure(R, sp, TP, V), rel=1e-13, abs=0)


LAYOUT_PROFILES = {"gaussian:1": gaussian_profile(1.0),
                   "power:1:4": power_profile(1.0, 4.0),
                   "delta": delta_profile()}


def _own_pattern_min(M):
    """Reference: the smallest eigenvalue of a working-basis matrix split
    by the components of its own nonzero pattern."""
    O = OperatorMatrix(matrix=M)
    return float(_spectrum(O.sectors, O.values).min())


def _close(got, ref):
    return abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


class TestNumberSectors:
    """The second layout: components of Q^dag Q, fixed N and momentum."""

    @pytest.mark.parametrize("n_max", [3, 5, 7])
    @pytest.mark.parametrize("profile", sorted(LAYOUT_PROFILES))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_layout_holds_every_pair_term(self, dim, profile, n_max):
        m = Model(dim=dim, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=LAYOUT_PROFILES[profile])
        sp = _default_fock_spec(m, n_max)
        ws, p = _workspace(sp), _pieces(sp, m)
        sec = p.number_sectors
        label = _state_sectors(sec)
        # every block fixes the particle number
        assert all(len(set(ws.Ntot[i].tolist())) == 1 for i in sec.index)
        _, Q = ws.pair_lower(m)
        lam = [float(m.lambda_profile.value_radial(r))
               for r in sp.mode_norms()]
        terms = [Q.T @ Q] + [lam[j] * lam[jp] * (p.A[j].T @ p.A[jp])
                             for j, jp in product(range(len(p.A)), repeat=2)]
        for M in terms:
            rows, cols = M.nonzero()
            assert np.array_equal(label[rows], label[cols])
            np.testing.assert_array_equal(sec.assemble(sec.gather(M)),
                                          M.toarray())

    @pytest.mark.parametrize("n_max", [3, 5, 7])
    @pytest.mark.parametrize("profile", sorted(LAYOUT_PROFILES))
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_minima_match_own_pattern_reference(self, dim, profile, n_max):
        for u in (0.5, -0.4):
            m = Model(dim=dim, mass=0.5, u=u, v=1.0,
                      lambda_profile=LAYOUT_PROFILES[profile])
            sp = _default_fock_spec(m, n_max)
            ws = _workspace(sp)
            A, Q = ws.pair_lower(m)
            QdQ, Nw, T, occ = Q.T @ Q, ws.Ntot, ws.diag_T(m), ws.occ
            M = mode_coupling_norms(m, sp.mode_norms(), V)[3]
            R, coeff = (M * u / 2.0, m.alpha) if u > 0 else (0.0, m.v)
            S1 = diags(Nw ** 2 + M * V * Nw) - QdQ
            S2 = (diags(T + (m.v / (2.0 * V)) * Nw ** 2
                        - (T + (coeff / (2.0 * V)) * Nw ** 2 - R * Nw))
                  - (u / (2.0 * V)) * QdQ)
            rep = check_superstability(sp, m, V)
            assert _close(rep["min_eig_pair_bound"], _own_pattern_min(S1))
            assert _close(rep["min_eig_quartic_bound"], _own_pattern_min(S2))
            neg = sp.negation_index()
            lam = [float(m.lambda_profile.value_radial(r))
                   for r in sp.mode_norms()]
            for j, jp in product(range(len(sp.modes)), repeat=2):
                diag = ((occ[:, j] + abs(lam[j])) * occ[:, jp]
                        + (occ[:, neg[jp]] + abs(lam[jp])) * occ[:, neg[j]])
                cross = lam[j] * lam[jp] * (A[j].T @ A[jp])
                for sign in (1, -1):
                    got = check_pair_exchange_bound(
                        sp, m, sp.modes[j], sp.modes[jp], sign=sign)
                    ref = _own_pattern_min(diags(diag)
                                           - sign * (cross + cross.T))
                    assert _close(got["min_eig"], ref), (u, j, jp, sign)

    def test_cross_term_leaving_the_layout_raises(self, monkeypatch):
        # negative control: on a layout of single states the pair-exchange
        # cross term falls between sectors, and is not dropped
        from pairboson import oracle
        sp = _default_fock_spec(MODEL, 3)
        p = _pieces(sp, MODEL)
        rep = check_pair_exchange_bound(sp, MODEL, sp.modes[1], sp.modes[0])
        assert rep["passed"]
        single = SimpleNamespace(A=p.A, number_sectors=_Sectors(
            np.arange(_workspace(sp).dim)))
        monkeypatch.setattr(oracle, "_pieces", lambda *a: single)
        with pytest.raises(EigenFailure, match="between two sectors"):
            check_pair_exchange_bound(sp, MODEL, sp.modes[1], sp.modes[0])
        # the zero mode's own term A_0^dag A_0 is diagonal and still fits
        assert check_pair_exchange_bound(sp, MODEL, sp.modes[0],
                                         sp.modes[0])["passed"]

    def test_oracle_op_eigensolve_budget(self, monkeypatch, capsys):
        # one CLI oracle op at --n-max 7: superstability 3 calls (one stack
        # of S1 and S2 per block size above one), the chain 56, the pair
        # exchange 3 per sign; a warm op splits no basis into sectors
        argv = ["oracle", "--dim", "3", "--u", "0.5", "--beta", "0.8",
                "--mu", "-0.3", "--n-max", "7", "--v", "1.0", "--mass",
                "0.5", "--profile", "gaussian:1.0"]
        seen = _count_eigvalsh(monkeypatch)
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert len(seen) == 65
        assert sum(int(np.prod(s[:-2])) * s[-1] ** 3 for s in seen) == 4065406
        splits = []
        of_pattern = _Sectors.of_pattern.__func__
        monkeypatch.setattr(_Sectors, "of_pattern", classmethod(
            lambda cls, *mats: splits.append(1) or of_pattern(cls, *mats)))
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first
        assert splits == []


Q_GRID, RHO_GRID = np.linspace(0.0, 0.8, 5), np.linspace(0.1, 1.5, 5)
ETAS = (0.0, 0.2, 0.2 * np.exp(0.7j))
FIVE_MODES = FockSpec(modes=((0.0,), (1.0,), (-1.0,), (2.0,), (-2.0,)),
                      n_max=3)


def _matrix_approx2(sp, m, eta):
    """Reference: each grid point's approx2 built on the working basis."""
    return np.array([[trace_pressure(build_hamiltonian(
        sp, "approx2", m, V, q=q, rho=rho, eta=eta), sp, TP, V)
        for rho in RHO_GRID] for q in Q_GRID])


def _factored_error(sp, m, eta):
    got = approx2_pressures(sp, m, TP, V, Q_GRID, RHO_GRID, eta)
    ref = _matrix_approx2(sp, m, eta)
    assert got.shape == (len(Q_GRID), len(RHO_GRID))
    return np.max(np.abs(got - ref) / np.abs(ref))


class TestFactoredApprox2:
    """approx2's trace pressure from its mode factors, over the grid."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    @pytest.mark.parametrize("u", [0.5, -0.5])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_working_basis_trace(self, dim, u, profile):
        m = Model(dim=dim, mass=0.5, u=u, v=1.0,
                  lambda_profile=PROFILES[profile])
        for n_max in (2, 3, 7):
            sp = _default_fock_spec(m, n_max)
            for eta in ETAS:
                assert _factored_error(sp, m, eta) <= 1e-13, (n_max, eta)

    @pytest.mark.parametrize("u", [0.5, -0.5])
    def test_two_pair_factors(self, u):
        m = Model(dim=1, mass=0.5, u=u, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
        factors = _factors(FIVE_MODES, m)
        # the zero mode alone, then the pairs +-1 and +-2
        assert [len(f.N) for f in factors] == [4, 16, 16]
        assert [f.a0 is not None for f in factors] == [True, False, False]
        for eta in ETAS:
            assert _factored_error(FIVE_MODES, m, eta) <= 1e-13, eta

    def test_perturbed_factor_fails_the_comparison(self, monkeypatch):
        # negative control: one entry of a cached pair factor changed
        from pairboson import oracle
        sp = _default_fock_spec(MODEL, 3)
        zero, pair = _factors(sp, MODEL)
        bad = SimpleNamespace(**vars(pair))
        X = pair.X.copy()
        X[np.flatnonzero(X)[0]] *= 1.0 + 1e-6
        bad.X, bad.Xt = X, X[pair.sectors.tpos]
        monkeypatch.setattr(oracle, "_factors", lambda *a: (zero, bad))
        assert _factored_error(sp, MODEL, 0.2) > 1e-13

    def test_grid_rows_equal_one_point_grids(self):
        # the stacked eigensolve gives each grid point its own spectrum;
        # not to the bit, as numpy's vector exp and log round by position
        sp = _default_fock_spec(MODEL, 7)
        grid = approx2_pressures(sp, MODEL, TP, V, Q_GRID, RHO_GRID, 0.2)
        for i, q in enumerate(Q_GRID):
            for j, rho in enumerate(RHO_GRID):
                assert approx2_pressures(sp, MODEL, TP, V, [q], [rho], 0.2
                                         )[0, 0] == pytest.approx(
                    grid[i, j], rel=1e-15, abs=0)

    def test_factors_are_read_only(self):
        for f in _factors(_default_fock_spec(MODEL, 3), MODEL):
            for a in (f.X, f.Xt, f.T, f.N):
                assert not a.flags.writeable

    @pytest.mark.parametrize("profile, calls", [("gaussian", 56),
                                                ("delta", 7)])
    def test_chain_eigensolve_budget(self, profile, calls, monkeypatch):
        # full (8 sizes) + 5 approx1 (8 each) + the zero-mode factor (1)
        # + the pair factor (7 sizes; its single states take no call);
        # with the delta profile every working-basis sector has one size,
        # and the pair factor, X = 0, splits into single states
        m = Model(dim=1, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=PROFILES[profile])
        sp = _default_fock_spec(m, 7)
        seen = _count_eigvalsh(monkeypatch)
        rep = check_variational_chain(sp, m, TP, V, Q_GRID, RHO_GRID,
                                      eta=0.2)
        assert rep["passed"]
        assert len(seen) == calls

    # v = 1e308 overflows the constant (V v / 2) rho^2 too; v = 1 only
    # the pair factor's diagonal, after the zero-mode factor's eigensolve
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("v, solved", [(1e308, 0), (1.0, 1)])
    def test_overflow_is_eigen_failure(self, v, solved, monkeypatch):
        m = Model(dim=1, mass=1e-308, u=0.5, v=v,
                  lambda_profile=gaussian_profile(1.0))
        sp = _default_fock_spec(m, 3)
        seen = _count_eigvalsh(monkeypatch)
        with pytest.raises(EigenFailure) as info:
            approx2_pressures(sp, m, TP, V, Q_GRID, RHO_GRID, 0.2)
        assert str(info.value) == "matrix to diagonalize has non-finite entries"
        assert len(seen) == solved
