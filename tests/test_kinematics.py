import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FourMomentum,
    boost_momentum,
    rotation_angle,
    standard_boost,
    su2_from_so3,
    wigner_matrix,
    wigner_oracle,
    wigner_rotation,
)
from relent.correlations import ObservableDirection, quantum_correlation
from relent.entanglement import bell_ABCD, fidelity
from relent.kinematics import BETA_CAP, Boost, wigner_half_angle
from relent.relstate import bell_phi_plus
from relent.wavepacket import EntangledMomentum, GaussianProduct, build_grid, default_p_max

momenta = st.builds(
    FourMomentum.from_spherical,
    p=st.floats(0.0, 20.0),
    theta=st.floats(0.0, np.pi),
    phi=st.floats(0.0, 2 * np.pi),
)
boosts = st.builds(Boost, beta=st.floats(0.0, 0.99))


class TestFourMomentum:
    def test_mass_shell(self):
        mom = FourMomentum.from_spherical(3.0, 1.2, 0.4, m=2.0)
        assert mom.p0**2 - mom.p**2 == pytest.approx(4.0, rel=1e-12)

    def test_spherical_round_trip(self):
        p, theta, phi = 2.5, 0.9, 5.1
        mom = FourMomentum.from_spherical(p, theta, phi)
        assert mom.p == pytest.approx(p, abs=1e-12)
        assert mom.theta == pytest.approx(theta, abs=1e-12)
        assert mom.phi == pytest.approx(phi - 2 * np.pi, abs=1e-12)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            FourMomentum(p_vec=np.zeros(3), m=0.0)

    def test_collinear_phi_convention(self):
        assert FourMomentum(p_vec=np.array([2.0, 0.0, 0.0])).phi == 0.0


class TestBoost:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Boost(-0.1)
        with pytest.raises(ValueError):
            Boost(1.0)

    def test_cap_is_accepted(self):
        assert Boost(BETA_CAP).beta == BETA_CAP

    def test_gamma(self):
        assert Boost(0.6).gamma == pytest.approx(1.25, rel=1e-14)

    def test_list_of_speeds_is_an_array(self):
        # a list used to reach Boost.gamma and the correlation's speed check as a list
        grid = build_grid(16, 16, default_p_max(1.0))
        x = ObservableDirection(np.array([1.0, 0.0, 0.0]))
        calls = (
            lambda b: fidelity(GaussianProduct(1.0), b, grid),
            lambda b: np.stack(bell_ABCD(GaussianProduct(1.0), b, grid)),
            lambda b: quantum_correlation(x, x, EntangledMomentum(1.0), bell_phi_plus(), b, grid),
        )
        for call in calls:
            got, want = call(Boost([0.0, 0.5])), call(Boost(np.array([0.0, 0.5])))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBoostMomentum:
    def test_identity_boost(self):
        mom = FourMomentum.from_spherical(2.0, 1.0, 2.0)
        out = boost_momentum(mom, Boost(0.0))
        assert np.allclose(out.p_vec, mom.p_vec, atol=0)

    def test_rest_frame_boost(self):
        out = boost_momentum(FourMomentum(p_vec=np.zeros(3)), Boost(0.6))
        assert out.p0 == pytest.approx(1.25, rel=1e-14)
        assert out.p_vec[0] == pytest.approx(0.75, rel=1e-14)

    @given(mom=momenta, b=boosts)
    def test_mass_shell_preserved(self, mom, b):
        out = boost_momentum(mom, b)
        # relative to the energy scale, where the cancellation happens
        assert abs(out.p0**2 - out.p**2 - mom.m**2) <= 1e-12 * max(1.0, out.p0**2)

    def test_transverse_unchanged(self):
        mom = FourMomentum.from_spherical(3.0, 2.0, 0.7)
        out = boost_momentum(mom, Boost(0.9))
        assert np.allclose(out.p_vec[1:], mom.p_vec[1:], atol=0)


class TestWignerRotation:
    def test_no_boost_no_rotation(self):
        wr = wigner_rotation(FourMomentum.from_spherical(5.0, 1.0, 1.0), Boost(0.0))
        assert wr.omega == 0.0
        assert np.allclose(wr.matrix, np.eye(2))

    def test_collinear_no_rotation(self):
        wr = wigner_rotation(FourMomentum.from_spherical(5.0, 0.0, 0.0), Boost(0.9))
        assert wr.omega == 0.0
        assert wr.phi == 0.0

    def test_ultra_relativistic_asymptote(self):
        mom = FourMomentum.from_spherical(1e4, np.pi / 3, 0.0)
        wr = wigner_rotation(mom, Boost(0.999999))
        assert abs(wr.omega - np.pi / 3) < 1e-2
        # and the matrix-composition oracle lands at the same angle
        assert abs(rotation_angle(wigner_oracle(mom, Boost(0.999999))) - np.pi / 3) < 1e-2

    @given(mom=momenta, b=boosts)
    @settings(max_examples=150)
    def test_angle_matches_oracle(self, mom, b):
        wr = wigner_rotation(mom, b)
        assert rotation_angle(wigner_oracle(mom, b)) == pytest.approx(wr.omega, abs=1e-10)

    def test_monotone_in_beta(self):
        mom = FourMomentum.from_spherical(2.0, 1.9, 0.5)
        omegas = [wigner_rotation(mom, Boost(b)).omega for b in np.linspace(0.0, 0.99, 40)]
        assert all(o2 >= o1 - 1e-9 for o1, o2 in zip(omegas, omegas[1:]))


class TestWignerOracle:
    def test_identity_cases(self):
        assert np.allclose(wigner_oracle(FourMomentum.from_spherical(2.0, 1.0, 1.0), Boost(0.0)), np.eye(3), atol=1e-14)
        assert np.allclose(wigner_oracle(FourMomentum.from_spherical(2.0, 0.0, 0.0), Boost(0.9)), np.eye(3), atol=1e-12)

    @given(mom=momenta, b=boosts)
    @settings(max_examples=100)
    def test_rotation_properties(self, mom, b):
        R = wigner_oracle(mom, b)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-10
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)

    def test_axis_orthogonal_to_boost_plane(self):
        mom = FourMomentum.from_spherical(2.0, 1.1, 0.7)
        R = wigner_oracle(mom, Boost(0.8))
        axis = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
        axis /= np.linalg.norm(axis)
        assert abs(axis[0]) < 1e-10
        assert abs(axis @ mom.p_vec) < 1e-10

    def test_standard_boost_takes_rest_to_momentum(self):
        mom = FourMomentum.from_spherical(3.0, 0.8, 2.2, m=1.5)
        out = standard_boost(mom) @ np.array([mom.m, 0.0, 0.0, 0.0])
        assert np.allclose(out, np.concatenate(([mom.p0], mom.p_vec)), atol=1e-12)


class TestWignerMatrix:
    def test_zero_angle_identity(self):
        assert np.allclose(wigner_matrix(0.0, 1.3), np.eye(2), atol=0)

    def test_pi_rotation(self):
        assert np.allclose(wigner_matrix(np.pi, np.pi / 2), [[0, -1], [1, 0]], atol=1e-15)

    @given(omega=st.floats(0.0, np.pi), phi=st.floats(0.0, 2 * np.pi))
    def test_unitary_unimodular(self, omega, phi):
        D = wigner_matrix(omega, phi)
        assert np.max(np.abs(D.conj().T @ D - np.eye(2))) < 1e-12
        assert np.linalg.det(D) == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_on_dense_grid(self):
        omega, phi = np.meshgrid(
            np.linspace(0.0, np.pi, 60), np.linspace(0.0, 2 * np.pi, 60), indexing="ij"
        )
        D_all = wigner_matrix(omega, phi)  # the whole mesh in one broadcast call
        assert D_all.shape == (2, 2, 60, 60)
        for i in range(60):
            for j in range(60):
                D = wigner_matrix(omega[i, j], phi[i, j])
                assert D.shape == (2, 2)
                assert np.max(np.abs(D.conj().T @ D - np.eye(2))) < 1e-12
                assert np.max(np.abs(D_all[:, :, i, j] - D)) <= 1e-15


class TestSU2FromSO3:
    def test_identity(self):
        assert np.allclose(su2_from_so3(np.eye(3)), np.eye(2), atol=0)

    def test_pi_about_z(self):
        R = np.diag([-1.0, -1.0, 1.0])
        U = su2_from_so3(R)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.min([np.max(np.abs(U - s * expected)) for s in (1, -1)]) < 1e-12

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            su2_from_so3(np.eye(3) * 1.1)
        with pytest.raises(ValueError):
            su2_from_so3(np.diag([1.0, 1.0, -1.0]))  # det -1

    @given(mom=momenta, b=boosts)
    @settings(max_examples=150)
    def test_matches_wigner_matrix(self, mom, b):
        U = su2_from_so3(wigner_oracle(mom, b))
        wr = wigner_rotation(mom, b)
        assert np.max(np.abs(U - wr.matrix)) < 1e-10

    @given(mom=momenta, b=boosts)
    @settings(max_examples=60)
    def test_homomorphism_convention(self, mom, b):
        R = wigner_oracle(mom, b)
        U = su2_from_so3(R)
        sigma = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        for i in range(3):
            rhs = sum(R[j, i] * sigma[j] for j in range(3))
            assert np.max(np.abs(U @ sigma[i] @ U.conj().T - rhs)) < 1e-10


class TestWignerHalfAngle:
    @given(
        p=st.floats(0.0, 1e8),
        theta=st.floats(0.0, np.pi),
        beta=st.one_of(st.floats(0.0, BETA_CAP), st.sampled_from([0.0, BETA_CAP])),
    )
    @settings(max_examples=200)
    def test_scalars_match_arrays_bit_for_bit(self, p, theta, beta):
        ct, st_ = np.cos(theta), np.sin(theta)
        scalar = wigner_half_angle(p, ct, beta, sintheta=st_)
        array = wigner_half_angle(np.array([p]), np.array([ct]), np.array([beta]),
                                  sintheta=np.array([st_]))
        for x, x_arr in zip(scalar, array):
            assert np.ndim(x) == 0
            assert np.array_equal(np.float64(x).view(np.uint64), x_arr[0].view(np.uint64))

    def test_sintheta_is_required(self):
        with pytest.raises(TypeError):
            wigner_half_angle(1.0, 0.5, 0.5)
