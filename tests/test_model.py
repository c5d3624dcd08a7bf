"""Tests for model parameters, coupling profiles and lattice geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairboson.errors import ModelError, TailNotConverged
from pairboson.model import (
    Model, LatticeSpec, CouplingProfile, epsilon_radial,
    gaussian_profile, power_profile, delta_profile,
    lattice_norms, coupling_norms,
)


def make_model(dim=3, mass=0.5, u=0.5, v=1.0, profile=None):
    return Model(dim=dim, mass=mass, u=u, v=v,
                 lambda_profile=profile or gaussian_profile(1.0))


class TestCouplingProfile:
    def test_gaussian_values(self):
        prof = gaussian_profile(0.5)
        r = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(prof.value_radial(r),
                                   np.exp(-0.5 * r * r))

    def test_normalization_at_zero(self):
        for prof in (gaussian_profile(2.0), power_profile(1.0, 6.0, 3),
                     delta_profile()):
            assert float(prof.value_radial(0.0)) == 1.0

    def test_power_profile_large_r(self):
        prof = power_profile(1.0, 6.0, 3)
        # (1 + c r^p)^{-1} ~ r^{-p} for large r
        val = float(prof.value_radial(100.0))
        assert val == pytest.approx(100.0 ** -6.0, rel=1e-3)

    def test_delta_profile_vanishes_off_zero(self):
        prof = delta_profile()
        assert float(prof.value_radial(1e-12)) == 0.0
        assert float(prof.value_radial(0.0)) == 1.0

    def test_declared_decay_is_a_true_bound(self):
        # |lambda(r)| <= C r^{-delta} on a wide radius sweep
        for prof in (gaussian_profile(0.3), power_profile(2.0, 7.0, 3)):
            c, delta = prof.declared_decay
            r = np.geomspace(0.5, 200.0, 400)
            assert np.all(np.abs(prof.value_radial(r)) <= c * r ** -delta
                          + 1e-300)

    def test_power_profile_requires_integrable_decay(self):
        # decay must beat max(nu, nu/2 + 1) for the norms to converge
        with pytest.raises(ModelError):
            power_profile(1.0, 2.0, 3)

    @given(a=st.floats(0.05, 10.0), r=st.floats(0.0, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_gaussian_bounded_by_one(self, a, r):
        val = float(gaussian_profile(a).value_radial(r))
        assert 0.0 <= val <= 1.0


class TestModel:
    def test_alpha(self):
        assert make_model(u=0.3, v=1.0).alpha == pytest.approx(0.7)

    def test_rejects_nonpositive_v(self):
        with pytest.raises(ModelError):
            make_model(v=0.0)

    def test_rejects_u_geq_v(self):
        with pytest.raises(ModelError):
            make_model(u=1.0, v=1.0)

    def test_rejects_bad_dimension_and_mass(self):
        with pytest.raises(ModelError):
            make_model(dim=0)
        with pytest.raises(ModelError):
            make_model(mass=-1.0)

    def test_epsilon_radial(self):
        m = make_model(mass=0.5)
        assert epsilon_radial(m, 2.0) == pytest.approx(4.0)  # r^2 / (2m)


class TestLattice:
    def test_spacing_and_volume(self):
        lat = LatticeSpec(L=4.0, s_max=2)
        assert lat.spacing == pytest.approx(math.pi / 2.0)

    def test_lattice_norms_match_brute_force(self):
        m = make_model(dim=3)
        lat = LatticeSpec(L=6.0, s_max=3)
        norms = np.sort(lattice_norms(m, lat))
        d = lat.spacing
        brute = np.sort([
            math.sqrt(sum((d * s) ** 2 for s in sv))
            for sv in np.ndindex(7, 7, 7)
            for sv in [tuple(x - 3 for x in sv)]
        ])
        np.testing.assert_allclose(norms, brute, atol=1e-12)


class TestCouplingNorms:
    def test_against_direct_shell_sum(self):
        m = make_model(dim=1, profile=gaussian_profile(0.5))
        lat = LatticeSpec(L=8.0, s_max=64)
        m_norm, n_norm, c_norm, M = coupling_norms(m, lat)
        r = np.abs(lattice_norms(m, lat))
        lam = np.abs(m.lambda_profile.value_radial(r))
        eps = r * r / (2.0 * m.mass)
        assert m_norm == pytest.approx(float(lam.sum()), rel=1e-8)
        assert n_norm == pytest.approx(float((eps * lam * lam).sum()),
                                       rel=1e-8)
        assert c_norm == pytest.approx(float((eps * lam * lam).max()),
                                       rel=1e-12)
        V = lat.volume(m.dim)
        assert M == pytest.approx(max(m_norm / V, n_norm / V, c_norm))

    def test_tail_certified(self):
        # truncating the shell sum early must raise, not silently undershoot
        m = make_model(dim=3, profile=power_profile(1.0, 4.5, 3))
        lat = LatticeSpec(L=4.0, s_max=2)
        with pytest.raises(TailNotConverged):
            coupling_norms(m, lat, tail_tol=1e-14)
