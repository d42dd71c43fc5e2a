import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _SIGMA,
    FourMomentum,
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
from relent.kinematics import Boost
from relent.relstate import BipartiteState, bell_phi_plus, reduced_spin_density
from relent.wavepacket import EntangledMomentum, build_grid, default_p_max


def direction(vec):
    v = np.asarray(vec, dtype=float)
    return ObservableDirection(v / np.linalg.norm(v))


def directions_at(cos_theta):
    """Unit directions with the x component drawn from ``cos_theta``."""
    return st.builds(
        lambda ct, ph: direction(
            [ct, np.sqrt(1 - ct**2) * np.cos(ph), np.sqrt(1 - ct**2) * np.sin(ph)]
        ),
        ct=cos_theta,
        ph=st.floats(0.0, 2 * np.pi),
    )


unit_vectors = directions_at(st.floats(-1.0, 1.0))
tilted_vectors = directions_at(st.floats(-0.95, 0.95))  # off the boost axis
boosts = st.builds(Boost, beta=st.floats(0.0, 0.99))
#: unit two-spin amplitudes
spin_amplitudes = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).map(
    lambda v: np.array(v[:4]) + 1j * np.array(v[4:])
).filter(lambda v: np.sum(np.abs(v) ** 2) > 0.01).map(lambda v: v / np.sqrt(np.sum(np.abs(v) ** 2)))


class TestObservableDirection:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            ObservableDirection(np.array([1.0, 1.0, 0.0]))

    def test_rejects_nan(self):
        # |nan - 1| > tol is False, so the check is written so that a NaN fails
        with pytest.raises(ValueError):
            ObservableDirection(np.array([np.nan, 0.0, 0.0]))


class TestRelativisticObservable:
    def test_rest_frame_is_plain_spin(self):
        # at rest the observable is a.sigma itself: n = a
        a = direction([0.3, 0.5, np.sqrt(1 - 0.09 - 0.25)])
        n = relativistic_observable(a, Boost(0.0))
        assert n.shape == (3,)
        assert np.max(np.abs(n - a.a_vec)) < 1e-14

    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.99])
    def test_longitudinal_direction_unchanged(self, beta):
        n = relativistic_observable(direction([1, 0, 0]), Boost(beta))
        assert np.array_equal(n, [1.0, 0.0, 0.0])

    def test_tilted_direction_collapses_to_axis(self):
        # half-longitudinal direction at beta = 0.99: residual tilt from the
        # boost axis is atan(sqrt(1 - beta^2) tan(theta_a)) ~ 0.24 rad
        a = direction([0.5, np.sqrt(0.75), 0.0])
        n = relativistic_observable(a, Boost(0.99))
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
        assert n[2] == 0.0  # it stays in the plane of the boost axis and a
        tilt = np.arccos(np.clip(n[0], -1.0, 1.0))
        expected = np.arctan(np.sqrt(1 - 0.99**2) * np.tan(np.arccos(0.5)))
        assert tilt == pytest.approx(expected, abs=1e-12)
        assert tilt < 0.25

    @given(a=unit_vectors, b=boosts)
    @settings(max_examples=100)
    def test_unit_eigenvalues(self, a, b):
        # n.sigma has the eigenvalues -1 and 1 exactly when |n| = 1
        n = relativistic_observable(a, b)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)


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
    grid = build_grid(32, 32, default_p_max(0.01))
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

    @given(a=tilted_vectors, b_dir=tilted_vectors, beta=st.floats(0.0, 0.99),
           spin=spin_amplitudes)
    @settings(max_examples=50, deadline=None)
    def test_off_axis_matches_pauli_products(self, narrow_setup, a, b_dir, beta, spin):
        # the golden and benchmark configs measure along x only; off it, the unit-pair
        # contraction must equal Tr[rho (n_a.sigma x n_b.sigma)] on the same rho, every speed
        dist, grid = narrow_setup
        b = Boost(np.array([0.0, beta]))
        got = quantum_correlation(a, b_dir, dist, spin, b, grid)
        rho = reduced_spin_density(BipartiteState(dist, spin), b, grid)
        n_a, n_b = relativistic_observable(a, b), relativistic_observable(b_dir, b)
        assert got.shape == n_a.shape[:1] == (2,)
        for i in range(2):
            op = np.kron(np.einsum("i,ijk->jk", n_a[i], _SIGMA),
                         np.einsum("i,ijk->jk", n_b[i], _SIGMA))
            assert abs(got[i] - np.trace(rho[i] @ op).real) <= 1e-14

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
