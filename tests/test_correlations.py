import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bell_expectation,
    quantum_correlation_asymptotic,
    signed_companion_angles,
    xyzw,
    xyzw_from_angles,
)
from relent.correlations import (
    ObservableDirection,
    classical_correlation,
    quantum_correlation,
    relativistic_observable,
)
from relent.kinematics import Boost, FourMomentum
from relent.relstate import bell_phi_plus
from relent.wavepacket import EntangledMomentum, build_grid, default_p_max


def direction(vec):
    v = np.asarray(vec, dtype=float)
    return ObservableDirection(v / np.linalg.norm(v))


unit_vectors = st.builds(
    lambda ct, ph: direction(
        [ct, np.sqrt(1 - ct**2) * np.cos(ph), np.sqrt(1 - ct**2) * np.sin(ph)]
    ),
    ct=st.floats(-1.0, 1.0),
    ph=st.floats(0.0, 2 * np.pi),
)
boosts = st.builds(Boost, beta=st.floats(0.0, 0.99))


class TestObservableDirection:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            ObservableDirection(np.array([1.0, 1.0, 0.0]))


class TestRelativisticObservable:
    def test_rest_frame_is_plain_spin(self):
        a = direction([0.3, 0.5, np.sqrt(1 - 0.09 - 0.25)])
        op = relativistic_observable(a, Boost(0.0))
        expected = sum(
            a.a_vec[i] * s
            for i, s in enumerate(
                [
                    np.array([[0, 1], [1, 0]], dtype=complex),
                    np.array([[0, -1j], [1j, 0]], dtype=complex),
                    np.array([[1, 0], [0, -1]], dtype=complex),
                ]
            )
        )
        assert np.max(np.abs(op - expected)) < 1e-14

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.99])
    def test_longitudinal_direction_unchanged(self, beta):
        op = relativistic_observable(direction([1, 0, 0]), Boost(beta))
        assert np.allclose(op, [[0, 1], [1, 0]], atol=1e-14)

    def test_tilted_direction_collapses_to_axis(self):
        # half-longitudinal direction at beta = 0.99: residual tilt from the
        # boost axis is atan(sqrt(1 - beta^2) tan(theta_a)) ~ 0.24 rad
        a = direction([0.5, np.sqrt(0.75), 0.0])
        op = relativistic_observable(a, Boost(0.99))
        # op = n . sigma with nz = op[0,0], nx = Re op[0,1], ny = -Im op[0,1]
        n_vec = np.array([op[0, 1].real, -op[0, 1].imag, op[0, 0].real])
        assert np.linalg.norm(n_vec) == pytest.approx(1.0, abs=1e-12)
        tilt = np.arccos(np.clip(n_vec[0], -1.0, 1.0))
        expected = np.arctan(np.sqrt(1 - 0.99**2) * np.tan(np.arccos(0.5)))
        assert tilt == pytest.approx(expected, abs=1e-12)
        assert tilt < 0.25

    @given(a=unit_vectors, b=boosts)
    @settings(max_examples=100)
    def test_unit_eigenvalues(self, a, b):
        op = relativistic_observable(a, b)
        eig = np.linalg.eigvalsh(op)
        assert eig[0] == pytest.approx(-1.0, abs=1e-12)
        assert eig[1] == pytest.approx(1.0, abs=1e-12)


class TestClassicalCorrelation:
    def test_aligned_longitudinal(self):
        assert classical_correlation(direction([1, 0, 0]), direction([1, 0, 0])) == 1.0

    def test_sign_product(self):
        b = direction([-1, 1e-3, 0])
        assert classical_correlation(direction([1, 0, 0]), b) == -1.0

    def test_transverse_is_error(self):
        with pytest.raises(ValueError):
            classical_correlation(direction([0, 1, 0]), direction([1, 0, 0]))


class TestXYZW:
    def test_rest_frame(self):
        k = xyzw(FourMomentum.from_spherical(2.0, 1.0, 0.7), Boost(0.0))
        assert (k.X, k.Y, k.Z, k.W) == (1.0, 0.0, 0.0, 0.0)

    def test_half_turn_substitution(self):
        X, Y, Z, W = xyzw_from_angles(np.pi, np.pi, np.pi / 2)
        assert (X, Y, Z, W) == pytest.approx((-1.0, 0.0, 0.0, 0.0), abs=1e-12)
        assert X**2 - Y**2 - Z**2 + W**2 == pytest.approx(1.0, abs=1e-12)

    def test_collinear_momentum(self):
        k = xyzw(FourMomentum.from_spherical(2.0, 0.0, 0.0), Boost(0.9))
        assert k.combination == pytest.approx(1.0, abs=1e-14)

    @given(
        p=st.floats(0.01, 20.0),
        theta=st.floats(0.0, np.pi),
        phi=st.floats(0.0, 2 * np.pi),
        b=boosts,
    )
    @settings(max_examples=200)
    def test_bound_invariant(self, p, theta, phi, b):
        mom = FourMomentum.from_spherical(p, theta, phi)
        k = xyzw(mom, b)
        comb = k.combination
        lower = 2 * np.sin(theta) ** 2 * np.sin(phi) ** 2 - 1
        assert comb <= 1.0 + 1e-12
        assert comb >= lower - 1e-12

    def test_signed_companion_convention(self):
        # the companion's rotation about p's own axis carries a minus sign
        op, om = signed_companion_angles(2.0, 0.4, 0.8)
        assert op > 0 and om < 0


@pytest.fixture(scope="module")
def narrow_setup():
    dist = EntangledMomentum(0.01, sign=-1)
    grid = build_grid(32, 32, 16, default_p_max(0.01))
    return dist, grid


class TestQuantumCorrelation:
    def test_rest_frame_matches_bruteforce(self, narrow_setup, rng):
        dist, grid = narrow_setup
        for _ in range(10):
            a = direction(rng.normal(size=3))
            b = direction(rng.normal(size=3))
            got = quantum_correlation(a, b, dist, bell_phi_plus(), Boost(0.0), grid)
            want = bell_expectation(a.a_vec, b.a_vec, bell_phi_plus())
            assert got == pytest.approx(want, abs=1e-8)

    def test_rest_frame_closed_form(self, narrow_setup):
        dist, grid = narrow_setup
        a = direction([0.6, 0.8, 0.0])
        b = direction([0.0, 0.6, 0.8])
        got = quantum_correlation(a, b, dist, bell_phi_plus(), Boost(0.0), grid)
        av, bv = a.a_vec, b.a_vec
        assert got == pytest.approx(av[0] * bv[0] - av[1] * bv[1] + av[2] * bv[2], abs=1e-8)

    @given(a=unit_vectors, b_dir=unit_vectors, b=st.builds(Boost, beta=st.floats(0.0, 0.99)))
    @settings(max_examples=25, deadline=None)
    def test_bounded_by_one(self, narrow_setup, a, b_dir, b):
        dist, grid = narrow_setup
        val = quantum_correlation(a, b_dir, dist, bell_phi_plus(), b, grid)
        assert abs(val) <= 1.0 + 1e-9

    def test_approaches_classical_at_light_speed(self, narrow_setup):
        dist, grid = narrow_setup
        x = direction([1, 0, 0])
        q = quantum_correlation(x, x, dist, bell_phi_plus(), Boost(0.9999), grid)
        c = classical_correlation(x, x)
        assert abs(q - c) < 0.05

    def test_longitudinal_sequence_is_monotone(self, narrow_setup):
        # starts at +1 and settles monotonically toward its saturation value
        dist, grid = narrow_setup
        x = direction([1, 0, 0])
        seq = [
            quantum_correlation(x, x, dist, bell_phi_plus(), Boost(b), grid)
            for b in (0.0, 0.3, 0.6, 0.9, 0.99, 0.9999)
        ]
        assert seq[0] == pytest.approx(1.0, abs=1e-9)
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(seq, seq[1:]))

    def test_asymptotic_kernel_form_agrees(self, narrow_setup):
        dist, grid = narrow_setup
        x = direction([1, 0, 0])
        q = quantum_correlation(x, x, dist, bell_phi_plus(), Boost(0.9999), grid)
        qa = quantum_correlation_asymptotic(x, x, dist, Boost(0.9999), grid)
        assert q == pytest.approx(qa, abs=1e-10)

    def test_transverse_degeneracy_guard(self, narrow_setup):
        dist, grid = narrow_setup
        y = direction([0, 1, 0])
        x = direction([1, 0, 0])
        with pytest.raises(ValueError):
            quantum_correlation(y, x, dist, bell_phi_plus(), Boost(1.0 - 1e-7), grid)
        # below the degeneracy threshold the transverse correlation is fine
        val = quantum_correlation(y, y, dist, bell_phi_plus(), Boost(0.5), grid)
        assert abs(val) <= 1.0 + 1e-9
