"""Tests for the truncated-Fock exact-diagonalization consistency checks."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse import identity
from scipy.special import logsumexp

from pairboson.cli import _default_fock_spec
from pairboson.errors import DimensionExceeded, ModelError
from pairboson.model import Model, gaussian_profile, delta_profile
from pairboson.oracle import (
    FockSpec, build_operator, build_hamiltonian, trace_pressure,
    check_superstability, check_variational_chain,
    check_pair_exchange_bound, OperatorMatrix, _pieces, _spectrum,
    _workspace,
)
from pairboson.pressure import ThermoPoint, OrderPoint, pressure_fv_modes

MODES = ((0.0,), (1.0,), (-1.0,))
MODEL = Model(dim=1, mass=0.5, u=0.5, v=1.0,
              lambda_profile=gaussian_profile(0.5))
TP = ThermoPoint(beta=1.0, mu=-0.4)
V = 3.0


def spec(n_max=6, headroom=2):
    return FockSpec(modes=MODES, n_max=n_max, headroom=headroom)


class TestFockSpec:
    def test_requires_zero_mode(self):
        with pytest.raises(ModelError):
            FockSpec(modes=((1.0,), (-1.0,)), n_max=4)

    def test_requires_negation_closure(self):
        with pytest.raises(ModelError):
            FockSpec(modes=((0.0,), (1.0,)), n_max=4)

    def test_dimension_cap(self):
        with pytest.raises(DimensionExceeded):
            build_operator(FockSpec(modes=MODES, n_max=40), "N", MODEL)


class TestLadderAlgebra:
    def test_a0_squared_on_two_quanta(self):
        # A_0 = a_0 a_0 maps |2,0,0> to sqrt(2)|0,0,0>
        sp = FockSpec(modes=((0.0,),), n_max=2)
        A0 = build_operator(sp, "A_k", MODEL, k=(0.0,)).matrix
        ws = _workspace(sp)
        states = [ws.ext_states[i] for i in ws.work_idx]
        i0, i2 = states.index((0,)), states.index((2,))
        assert A0[i0, i2] == pytest.approx(math.sqrt(2.0))

    def test_n_diagonal(self):
        sp = spec(4)
        N = build_operator(sp, "N", MODEL).matrix
        ws = _workspace(sp)
        assert np.allclose(N, np.diag(np.diag(N)))
        np.testing.assert_allclose(np.diag(N).real,
                                   [sum(ws.ext_states[i])
                                    for i in ws.work_idx])

    def test_qdagq_on_two_zero_quanta(self):
        # <n0=2| Q^dag Q |n0=2> = N0 (N0 - 1) = 2 for the delta profile
        m = Model(dim=1, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=delta_profile())
        sp = spec(4)
        QdQ = build_operator(sp, "Q_dagger_Q", m).matrix
        ws = _workspace(sp)
        idx = [ws.ext_states[i] for i in ws.work_idx].index((2, 0, 0))
        assert QdQ[idx, idx] == pytest.approx(2.0)

    def test_commutator_on_interior(self):
        # [a, a^dag] = 1 on all states with n < n_max
        sp = FockSpec(modes=((0.0,),), n_max=6, headroom=2)
        ws = _workspace(sp)
        a = ws.lower[0].toarray()
        comm = a @ a.conj().T - a.conj().T @ a
        interior = [i for i, s in enumerate(ws.ext_states)
                    if s[0] < sp.n_max]
        for i in interior:
            assert comm[i, i] == pytest.approx(1.0)


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
        ws = _workspace(sp)
        Nw = ws.Ntot[ws.work_idx]
        D = (MODEL.v / (2.0 * V)) * (Nw - V * self.RHO) ** 2
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
        from pairboson.oracle import OperatorMatrix
        H = OperatorMatrix(matrix=np.diag(omega * ws.Ntot[ws.work_idx])
                           .astype(complex), label="test", params={})
        tp = ThermoPoint(beta=2.0, mu=0.0)
        got = trace_pressure(H, sp, tp, 1.0)
        expected = math.log(sum(math.exp(-2.0 * omega * n)
                                for n in range(11))) / 2.0
        assert got == pytest.approx(expected, rel=1e-14)
        # n_max -> infinity: geometric series
        assert got == pytest.approx(-math.log1p(-math.exp(-2.0 * omega))
                                    / 2.0, rel=1e-6)

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


def _dense_hamiltonian(sp, kind, model, V, q=0.0, rho=0.0, eta=0.0):
    """Reference: every kind assembled as one dense complex matrix from the
    extended-basis sparse products, projected to the working basis."""
    ws = _workspace(sp)
    idx = ws.work_idx

    def proj(M):
        return M.tocsr()[idx][:, idx].toarray()

    T = ws.diag_T(model)[idx]
    Nw = ws.Ntot[idx]
    dim = ws.dim
    u, v = model.u, model.v
    _, Q = ws.pair_lower(model)
    Qw = proj(Q)
    H = np.zeros((dim, dim), dtype=complex)

    def add_source(H):
        if eta != 0:
            a0w = proj(ws.lower[ws.zero_mode()])
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
        X = Q - qc * V * identity(ws.ext_dim, format="csr")
        H -= (u / (2.0 * V)) * proj(X.conj().T @ X)
    return H


def _dense_pressure(H, sp, tp, V):
    ws = _workspace(sp)
    K = H - tp.mu * np.diag(ws.Ntot[ws.work_idx])
    return logsumexp(-tp.beta * sla.eigvalsh(K)) / (tp.beta * V)


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

    @pytest.mark.parametrize("u,profile", [(0.5, gaussian_profile(1.0)),
                                           (-0.3, gaussian_profile(1.0)),
                                           (0.5, delta_profile())])
    def test_pieces_vanish_between_sectors(self, u, profile):
        m = Model(dim=3, mass=0.5, u=u, v=1.0, lambda_profile=profile)
        sp = _default_fock_spec(m, 7)
        ws = _workspace(sp)
        idx = ws.work_idx
        pieces = _pieces(sp, m)
        sec = pieces.sectors
        label = np.empty(ws.dim, dtype=int)
        for s, states in enumerate(sec.index):
            label[states] = s
        _, Q = ws.pair_lower(m)
        for full, blocks in ((Q, pieces.Q), (Q.conj().T @ Q, pieces.QdQ),
                             (ws.lower[ws.zero_mode()], pieces.a0)):
            full = full.tocsr()[idx][:, idx].toarray()
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
        H = OperatorMatrix(matrix=R, label="random")
        assert len(H.sectors.index) == 1
        np.testing.assert_allclose(_spectrum(H.sectors, H.values),
                                   sla.eigvalsh(R), rtol=0, atol=1e-12)
        assert trace_pressure(H, sp, TP, V) == pytest.approx(
            _dense_pressure(R, sp, TP, V), rel=1e-13, abs=0)
        np.testing.assert_array_equal(H.matrix, R)
