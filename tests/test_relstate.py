import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    AZIMUTH_NODES,
    FourMomentum,
    amplitude1,
    azimuth_classes,
    azimuth_grid,
    azimuth_tensor,
    boost_momentum,
    cartesian_pairs,
    momentum_density_samples_cartesian,
    momentum_density_samples_su2,
    polar_moments_panels,
    reduced_spin_density_3d,
    reduced_spin_density_two_angles,
    sample_pairs_loop,
    sample_prefix,
    spin_kernel,
    validate_density,
)

import relent.relstate as relstate
from relent.kinematics import BETA_CAP, Boost
from relent.relstate import (
    SAMPLE_PAIRS,
    bell_phi_plus,
    default_sample_pairs,
    momentum_density_samples,
    product_distance,
    _PHI2_SWITCH,
    _moment_classes,
    _pcg64_doubles,
    _polar_moments,
    reduced_spin_density,
    spin_up_up,
)
from relent.wavepacket import (
    EntangledMomentum,
    GaussianProduct,
    GridCoverageError,
    build_grid,
    default_p_max,
)

momenta = st.builds(
    FourMomentum.from_spherical,
    p=st.floats(0.0, 20.0),
    theta=st.floats(0.0, np.pi),
    phi=st.floats(0.0, 2 * np.pi),
)
boosts = st.builds(Boost, beta=st.floats(0.0, 0.99))

# the sparsity the rotated up-up projector keeps: diagonal plus anti-diagonal
X_PATTERN = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [1, 0, 0, 1],
    ],
    dtype=bool,
)


def spin_kernel_at_rest(dist, spin):
    """The spin kernel that takes ``dist`` (``momentum_density_samples`` for a product packet,
    ``reduced_spin_density`` for a delta-correlated one) at rest, with the amplitude ``spin``."""
    if isinstance(dist, GaussianProduct):
        return momentum_density_samples(dist, Boost(0.0), *default_sample_pairs(dist, seed=0), spin)
    return reduced_spin_density(dist, Boost(0.0), build_grid(32, 32, default_p_max(1.0)), spin)


class TestSpinAmplitude:
    """Both spin kernels check the amplitude they are given."""

    def test_rejects_unnormalised_spin(self):
        with pytest.raises(ValueError):
            spin_kernel_at_rest(GaussianProduct(1.0), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_bell_state_is_normalised(self):
        spin_kernel_at_rest(GaussianProduct(1.0), bell_phi_plus())

    @pytest.mark.parametrize("dist", [GaussianProduct(1.0), EntangledMomentum(1.0)])
    def test_rejects_nan_spin(self, dist):
        # a NaN amplitude used to pass, and reduced_spin_density then blamed the grid
        with pytest.raises(ValueError, match="unit norm"):
            spin_kernel_at_rest(dist, [np.nan, 0.0, 0.0, 0.0])


class TestSpinKernel:
    def test_no_boost_identity(self):
        K = spin_kernel(
            FourMomentum.from_spherical(2.0, 1.0, 0.3),
            FourMomentum.from_spherical(1.0, 2.0, 1.3),
            Boost(0.0),
        )
        assert np.allclose(K, np.eye(4), atol=0)

    def test_collinear_identity(self):
        K = spin_kernel(
            FourMomentum.from_spherical(2.0, 0.0, 0.0),
            FourMomentum.from_spherical(1.0, np.pi, 0.0),
            Boost(0.9),
        )
        assert np.allclose(K, np.eye(4), atol=1e-14)

    @given(p=momenta, q=momenta, b=boosts)
    @settings(max_examples=80)
    def test_unitary(self, p, q, b):
        K = spin_kernel(p, q, b)
        assert np.max(np.abs(K.conj().T @ K - np.eye(4))) < 1e-12


def _assert_moments_match_panels(t, sign):
    got, want = _polar_moments(np.array(t), sign), polar_moments_panels(t, sign)
    assert got.shape == (4,)
    err = np.abs(got - want)
    # absolute, and relative down to the subnormal range
    assert np.all(err <= 1e-14) and np.all(err <= 1e-14 * np.abs(want) + 1e-300), (t, sign, got, want)


class TestPolarMoments:
    """The closed-form cos(theta) moments against graded Gauss-Legendre panels."""

    @given(a=st.floats(0.0, 12.0), d=st.floats(0.0, 12.0), sign=st.sampled_from([-1, 1]))
    @settings(max_examples=300, deadline=None)
    def test_match_panels_over_rapidities(self, a, d, sign):
        _assert_moments_match_panels(np.tanh(a / 2.0) * np.tanh(d / 2.0), sign)

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("t", [1e-300, 1e-8, 1e-3, 1.0 - 1e-9, 1.0 - 1e-12, np.nextafter(1.0, 0.0)])
    def test_match_panels_at_the_ends(self, t, sign):
        _assert_moments_match_panels(t, sign)

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_no_boost_is_exact(self, sign):
        # t = 0: c = 1 and s = 0 at every node
        want = np.zeros((4, 2, 3))
        want[0] = 2.0
        assert np.array_equal(_polar_moments(np.zeros((2, 3)), sign), want)

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_continuous_across_series_switch(self, sign):
        # phi2 switches from its series to the closed form at t = _PHI2_SWITCH:
        # the moments step by no more than their slope over one ulp and match the panels on both sides
        t = np.array([_PHI2_SWITCH])
        for _ in range(20):
            t = np.concatenate(([np.nextafter(t[0], 0.0)], t, [np.nextafter(t[-1], 1.0)]))
        m = _polar_moments(t, sign)
        assert np.max(np.abs(np.diff(m, axis=-1))) <= 1e-15
        for k in (0, 19, 20, 21, 40):
            _assert_moments_match_panels(t[k], sign)

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_unit_trace(self, sign):
        # c_p^2 + s_p^2 = 1 for both particles, so M_00 + 2 M_02 + M_22 = 2 (here a = d)
        t = np.tanh(np.linspace(0.0, 12.0, 200) / 2.0) ** 2
        m = _polar_moments(t, sign)
        assert np.max(np.abs(m[0] + 2.0 * m[1] + m[2] - 2.0)) <= 1e-15


class TestReducedSpinDensity:
    def test_no_boost_recovers_input(self, grid_default, entangled_unit):
        rho = reduced_spin_density(entangled_unit, Boost(0.0), grid_default, bell_phi_plus())
        target = np.outer(bell_phi_plus(), bell_phi_plus().conj())
        assert np.max(np.abs(rho - target)) < 1e-10

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("which", ["product_bell", "entangled_up"])
    def test_density_invariants(self, grid_default, beta, which):
        # the product-momentum channel is a test reference (oracles)
        if which == "product_bell":
            fine = azimuth_grid(32, 32, default_p_max(1.0))
            rho = reduced_spin_density_3d(GaussianProduct(1.0), Boost(beta), fine, bell_phi_plus())
        else:
            rho = reduced_spin_density(EntangledMomentum(1.0, -1), Boost(beta), grid_default,
                                       spin_up_up())
        assert abs(np.trace(rho).real - 1.0) < 1e-6
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-8
        validate_density(rho, trace_tol=1e-6)

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_up_up_entangled_has_x_pattern(self, grid_default, sign):
        rho = reduced_spin_density(EntangledMomentum(1.0, sign), Boost(0.8), grid_default,
                                   spin_up_up())
        assert np.max(np.abs(rho[~X_PATTERN])) < 1e-8

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("n_theta", [2, 9, 32, 33])
    @pytest.mark.parametrize(
        "spin",
        [spin_up_up(), bell_phi_plus(), np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)],
        ids=["up_up", "bell", "generic"],
    )
    def test_matches_two_angle_reference(self, sign, n_theta, spin):
        # the closed-form polar moments and the 3x3 moment against the same
        # radial rule with both Wigner angles evaluated on graded polar panels
        # and the 4x4 moment summed entry by entry; grid.n_theta plays no part
        betas = np.array([0.0, 0.05, 0.3, 0.6, 0.9, 0.99, BETA_CAP])
        for delta in (0.5, 1.0, 4.0):
            dist = EntangledMomentum(delta, sign)
            grid = build_grid(24, n_theta, default_p_max(delta))
            for b in (Boost(betas), Boost(0.0), Boost(BETA_CAP)):
                rho = reduced_spin_density(dist, b, grid, spin)
                ref = reduced_spin_density_two_angles(dist, b, grid, spin)
                assert np.max(np.abs(rho - ref)) <= 1e-15
                assert np.array_equal(rho, reduced_spin_density(dist, b, grid._replace(
                    n_theta=2, costheta=np.zeros(2), polar_weights=np.zeros(2)), spin))

    @given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8))
    @settings(max_examples=200)
    def test_odd_azimuth_entries_vanish(self, parts):
        # reduced_spin_density sums only the moments M[a, b] with a + b even:
        # G[k, l] = M[i_k + i_l, j_k + j_l] meets Y[k, l] = 0 whenever
        # i_k + j_k + i_l + j_l is odd, with k = i_k + 2 j_k
        spin = np.array(parts[:4]) + 1j * np.array(parts[4:])
        norm = np.linalg.norm(spin)
        if norm < 1e-3:
            spin, norm = spin_up_up(), 1.0
        Y = azimuth_tensor(spin / norm, AZIMUTH_NODES)
        parity = np.arange(4) % 2 + np.arange(4) // 2
        odd = (parity[:, None] + parity[None, :]) % 2 == 1
        assert np.max(np.abs(Y[odd])) <= 1e-15

    @given(parts=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
           named=st.sampled_from([None, "up_up", "bell"]))
    @settings(max_examples=200)
    def test_moment_classes_match_azimuth_rule(self, parts, named):
        # the closed-form class table against the azimuth tensor summed by class on
        # the exact 5-node rule and on a 64-node one, both in extended precision: in
        # doubles the 64-node sums themselves round by up to 1.2e-15
        spin = np.array(parts[:4]) + 1j * np.array(parts[4:])
        norm = np.linalg.norm(spin)
        if named is not None or norm < 1e-3:
            spin, norm = (bell_phi_plus() if named == "bell" else spin_up_up()), 1.0
        spin = spin / norm
        classes = _moment_classes(spin)
        assert classes.shape == (4, 4, 4)
        for n_phi in (AZIMUTH_NODES, 64):
            ref = azimuth_classes(spin.astype(np.clongdouble), n_phi)
            assert np.max(np.abs(classes - ref)) <= 1e-15

    def test_generic_spin_product_distribution(self, grid_default, gauss_unit):
        spin = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
        grid = azimuth_grid(32, 32, default_p_max(1.0))
        rho = reduced_spin_density_3d(gauss_unit, Boost(0.6), grid, spin)
        validate_density(rho, trace_tol=1e-6)

    def test_validate_rejects_nan(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            validate_density(m)

    def test_grid_coverage_error(self, entangled_unit):
        bad = build_grid(8, 8, 0.5)  # cuts most of the Gaussian
        with pytest.raises(GridCoverageError):
            reduced_spin_density(entangled_unit, Boost(0.5), bad, bell_phi_plus())

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_per_speed_grid_with_scalar_boost(self, sign):
        # the moments take the grid's leading axis when the boost has none
        cutoffs = default_p_max(1.0, np.array([0.0, 0.5, 0.9]))
        dist, spin = EntangledMomentum(1.0, sign), bell_phi_plus()
        rho = reduced_spin_density(dist, Boost(0.5), build_grid(32, 32, cutoffs), spin)
        assert rho.shape == (3, 4, 4)
        for got, cut in zip(rho, cutoffs):
            want = reduced_spin_density(dist, Boost(0.5), build_grid(32, 32, cut), spin)
            assert np.max(np.abs(got - want)) <= 1e-15

    def test_product_path_matches_delta_free_quadrature(self, gauss_unit):
        # same physics through spin_kernel at scattered nodes: coarse consistency
        grid = azimuth_grid(24, 24, default_p_max(1.0))
        rho_a = reduced_spin_density_3d(gauss_unit, Boost(0.5), grid, bell_phi_plus())
        grid_b = azimuth_grid(32, 32, default_p_max(1.0))
        rho_b = reduced_spin_density_3d(gauss_unit, Boost(0.5), grid_b, bell_phi_plus())
        assert np.max(np.abs(rho_a - rho_b)) < 1e-6


@pytest.fixture(scope="module")
def ur_setup():
    dist = GaussianProduct(1.0e6)
    return dist, default_sample_pairs(dist, seed=42)


def _scalar_samples(dist, b, pairs, phi):
    """Per-row reference for momentum_density_samples through spin_kernel.

    Returns the spin overlap, the product of the single-party overlaps and the
    factor the density elements and the marginal products share: the square
    root of the ratios of the boosted to the unboosted energy of each momentum
    times the product of the four single-particle amplitudes.  A zero momentum
    stands in for the identity on the other party, whose traced-out momentum
    contributes exactly 1.
    """
    rest = FourMomentum(np.zeros(3))
    overlaps, products, factors = [], [], []
    for row in pairs:
        p, q, p2, q2 = (FourMomentum(v) for v in row)
        jac = np.sqrt(np.prod([boost_momentum(k, b).p0 / k.p0 for k in (p, q, p2, q2)]))
        amp = np.prod([amplitude1(dist, k.p_vec @ k.p_vec) for k in (p, q, p2, q2)])

        def overlap(k, k2):
            return (spin_kernel(*k2, b) @ phi).conj() @ (spin_kernel(*k, b) @ phi)

        overlaps.append(overlap((p, q), (p2, q2)))
        products.append(overlap((p, rest), (p2, rest)) * overlap((rest, q), (rest, q2)))
        factors.append(jac * amp)
    return np.array(overlaps), np.array(products), np.array(factors)


class TestMomentumDensitySamples:
    @pytest.mark.parametrize("beta", [0.0, 0.6, 0.9999])
    @pytest.mark.parametrize(
        "spin",
        [bell_phi_plus(), spin_up_up(), np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)],
        ids=["bell", "up_up", "generic"],
    )
    def test_matches_scalar_reference(self, beta, spin):
        # the library on its own draw, the Cartesian reference on it and on a collinear and a
        # p = 0 row
        dist = GaussianProduct(1.0)
        radii, directions = sample_prefix(dist, 16, seed=3)
        collinear = [[0.7, 0.0, 0.0], [-1.2, 0.0, 0.0], [0.3, 0.0, 0.0], [2.0, 0.0, 0.0]]
        pairs = np.concatenate(
            [cartesian_pairs(radii, directions)[0], [collinear], np.zeros((1, 4, 3))]
        )
        ref_el, ref_marg, _ = _scalar_samples(dist, Boost(beta), pairs, spin)
        drawn = momentum_density_samples(dist, Boost(beta), radii, directions, spin)
        drawn = [np.ravel(x) for x in drawn]
        general = momentum_density_samples_cartesian(dist, Boost(beta), pairs, spin)
        for elements, marginals in (drawn, general):
            n = len(elements)
            assert np.max(np.abs(elements - ref_el[:n])) <= 1e-13 * np.max(np.abs(ref_el))
            assert np.max(np.abs(marginals - ref_marg[:n])) <= 1e-13 * np.max(np.abs(ref_marg))
        # collinear and p = 0 rows rotate by exactly the identity: no imaginary part
        assert np.all(general[0][-2:].imag == 0.0)

    def test_no_boost_is_exactly_product(self, ur_setup):
        dist, pairs = ur_setup
        sample = momentum_density_samples(dist, Boost(0.0), *pairs, bell_phi_plus())
        assert np.allclose(*sample, rtol=1e-10)
        assert product_distance(*sample) < 1e-10

    def test_ultra_relativistic_factorization(self, ur_setup):
        dist, pairs = ur_setup
        sample = momentum_density_samples(dist, Boost(0.9999), *pairs, bell_phi_plus())
        assert product_distance(*sample) < 1e-2

    def test_requires_product_distribution(self):
        dist = EntangledMomentum(1.0, -1)
        with pytest.raises(TypeError):
            momentum_density_samples(dist, Boost(0.5), *default_sample_pairs(dist, seed=0),
                                     bell_phi_plus())

    def test_sampler_is_deterministic(self):
        dist = GaussianProduct(1.0e6)
        a, b, c = (default_sample_pairs(dist, seed=seed) for seed in (9, 9, 10))
        assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
        assert all(x.tobytes() != y.tobytes() for x, y in zip(a, c))

    @pytest.mark.parametrize("width", [0.5, 1.0, 4.0, 1.0e6])
    @pytest.mark.parametrize("seed", [0, 7, 42, 43])
    def test_sampler_matches_per_pair_loop(self, width, seed):
        dist = GaussianProduct(width)
        radii, directions = default_sample_pairs(dist, seed=seed)
        assert radii.shape == (1, SAMPLE_PAIRS, 4) and directions.shape == (SAMPLE_PAIRS, 2, 4)
        for n in (64, 1, 5, 13, 63):  # each prefix is the loop's draw; four not a multiple of 4
            want_radii, want_directions = sample_pairs_loop(dist, n=n, seed=seed)
            assert np.array_equal(radii[0, :n], want_radii)
            assert np.array_equal(directions[:n], want_directions)

    def test_sampler_draws_match_default_rng(self):
        # the sampler draws default_rng's stream written out in Python: a NumPy
        # whose default_rng changes must fail here, not drift silently
        big = [2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**128 + 5, 2**160 + 11, 10**40]
        for seed in list(range(300)) + big:
            for n in (1, 4, 64, 200):
                ref = np.random.default_rng(seed).uniform(0.0, 1.0, size=8 * n)
                assert np.array_equal(_pcg64_doubles(seed, 8 * n), ref)
        with pytest.raises(ValueError):
            default_sample_pairs(GaussianProduct(1.0), seed=-1)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 12345, 2**130 + 7])
    def test_long_stream_matches_default_rng(self, seed):
        # the output step runs in numpy on the state's 64-bit halves: a long
        # stream visits every rotation, including none
        doubles = _pcg64_doubles(seed, 100_000)
        assert not doubles.flags.writeable
        assert np.array_equal(doubles, np.random.default_rng(seed).random(100_000))

    @given(seed=st.integers(0, 2**192), n=st.integers(1, SAMPLE_PAIRS))
    @settings(max_examples=60, deadline=None)
    def test_sampler_draws_match_default_rng_for_any_seed(self, seed, n):
        dist = GaussianProduct(1.0)
        radii, directions = sample_prefix(dist, n, seed=seed)
        want_radii, want_directions = sample_pairs_loop(dist, n=n, seed=seed)
        assert np.array_equal(radii[0], want_radii)
        assert np.array_equal(directions, want_directions)

    def test_diagonal_pairs_present_and_real(self, ur_setup):
        dist, (radii, directions) = ur_setup
        elements, _ = momentum_density_samples(dist, Boost(0.7), radii, directions, bell_phi_plus())
        diag = np.all(radii[0, :, :2] == radii[0, :, 2:], axis=1)
        assert diag.sum() >= 16
        assert np.max(np.abs(elements[0, 0, diag].imag)) < 1e-12

    def test_product_distance_empty_rejected(self):
        with pytest.raises(ValueError, match="sample is empty"):
            product_distance(np.zeros(0, dtype=complex), np.zeros(0, dtype=complex))
        # the sampler's own result for no pairs, at two speeds
        dist = GaussianProduct(1.0)
        no_pairs = sample_prefix(dist, 0, seed=1)
        sample = momentum_density_samples(dist, Boost(np.array([0.0, 0.5])), *no_pairs,
                                          bell_phi_plus())
        with pytest.raises(ValueError, match="sample is empty"):
            product_distance(*sample)


#: a collinear row and a p = 0 row, which both rotate by exactly the identity
EDGE_ROWS = np.array([
    [[0.7, 0.0, 0.0], [-1.2, 0.0, 0.0], [0.3, 0.0, 0.0], [2.0, 0.0, 0.0]],
    np.zeros((4, 3)),
])
SAMPLE_SPINS = (bell_phi_plus(), spin_up_up(), np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex))
#: the largest gap between the library's sampler and the Cartesian reference, absolute, in a
#: spin factor or a product distance; measured 2.5e-15 and 1.3e-16 at most over widths 1e-12 to
#: 1e12, beta in {0, 0.5, 0.99, cap}, five seeds and the spins Phi+, up-up and ``GENERIC_SPIN``
SAMPLER_TOL = 1e-14


@st.composite
def sample_cases(draw):
    """Spin, widths (one per row of a width axis, or None for a scalar width) and boost."""
    spin = SAMPLE_SPINS[draw(st.integers(0, 2))]
    exponents = draw(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=3))
    widths = None if draw(st.booleans()) else np.power(10.0, exponents)[:, None]
    speed = st.one_of(st.floats(0.0, BETA_CAP), st.sampled_from([0.0, 0.99, BETA_CAP]))
    if draw(st.booleans()):
        beta = draw(speed)
    else:
        beta = np.array(sorted(draw(st.lists(speed, min_size=1, max_size=4))))
    return spin, 10.0 ** exponents[0], widths, beta, draw(st.integers(0, 100))


def sample_rows(dist, seed):
    """The sampler's pairs, rows in four unrelated directions, and ``EDGE_ROWS``, scaled by each width.

    ``default_sample_pairs`` keeps each primed momentum on its unprimed one's
    ray, so only the general rows give azimuths phi' != phi.  All are Cartesian
    rows, for the reference forms.
    """
    scale = np.sqrt(dist.delta)[..., None, None]  # (n_delta, 1, 1, 1) for an array width
    general = np.random.default_rng(seed).normal(size=(6, 4, 3))
    drawn = cartesian_pairs(*sample_prefix(dist, 9, seed=seed))
    return np.concatenate(
        [drawn if np.ndim(dist.delta) else drawn[0], scale * general, scale * EDGE_ROWS], axis=-3
    )


#: a complex unit spin amplitude with no zero, real or purely imaginary component
GENERIC_SPIN = np.array([0.3 + 0.4j, -0.2 + 0.5j, 0.6 - 0.1j, 0.25 + 0.15j])
GENERIC_SPIN /= np.linalg.norm(GENERIC_SPIN)


class TestQuaternionSampler:
    """The real-quaternion samplers: the library's same-axis kernel against the Cartesian
    reference on its own draw, and that reference against the complex SU(2) form, width by width,
    on any rows."""

    @pytest.mark.parametrize("spin", [bell_phi_plus(), GENERIC_SPIN], ids=["bell", "generic"])
    def test_matches_cartesian_form(self, spin):
        # every width bound and decade between, at rest, two speeds and the cap: the two
        # kernels form the same half-angles from differently rounded inputs
        widths = np.power(10.0, np.arange(-12.0, 13.0))[:, None]
        dist, b = GaussianProduct(widths), Boost(np.array([0.0, 0.5, 0.99, BETA_CAP]))
        radii, directions = default_sample_pairs(dist, seed=42)
        got = momentum_density_samples(dist, b, radii, directions, spin)
        want = momentum_density_samples_cartesian(dist, b, cartesian_pairs(radii, directions), spin)
        for x, x_ref in zip(got, want):
            assert x.shape == x_ref.shape == (25, 4, 64)
            assert np.max(np.abs(x - x_ref)) <= SAMPLER_TOL
        assert np.max(np.abs(product_distance(*got) - product_distance(*want))) <= SAMPLER_TOL

    @given(case=sample_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_su2_form(self, case):
        spin, delta, widths, beta, seed = case
        b = Boost(beta)
        dist = GaussianProduct(delta if widths is None else widths)
        pairs = sample_rows(dist, seed)
        if widths is None:
            per_width = [(delta, pairs, Ellipsis)]
        else:
            per_width = [(w, rows, i) for i, (w, rows) in enumerate(zip(widths[:, 0], pairs))]
        got = momentum_density_samples_cartesian(dist, b, pairs, spin)
        for width, rows, i in per_width:
            want = momentum_density_samples_su2(GaussianProduct(width), b, rows, spin)
            for x, x_ref in ((got[0][i], want[0]), (got[1][i], want[1])):
                x = np.reshape(x, x_ref.shape)
                scale = np.max(np.abs(x_ref), axis=-1, keepdims=True)
                assert np.all(np.abs(x - x_ref) <= 1e-13 * scale)
                # collinear and p = 0 rows keep an imaginary part of exactly 0
                assert np.all(x[..., -2:].imag == 0.0)

    @pytest.mark.parametrize("delta", [1e-12, 1e-6, 1.0, 1e4, 1e12])
    def test_left_out_factor_cancels(self, delta):
        # the density elements are the overlaps times the factor the sampler leaves out, and on
        # the sweep's own draw product_distance reads the same with the factor as without it
        dist, betas = GaussianProduct(delta), np.array([0.0, 0.6, 0.9999, BETA_CAP])
        drawn = default_sample_pairs(dist, seed=5)
        for pairs, distance in ((sample_rows(dist, seed=5), False),
                                (cartesian_pairs(*drawn)[0], True)):
            for spin in SAMPLE_SPINS:
                if distance:  # the library's kernel on the sweep's draw
                    overlaps, products = (x[0] for x in momentum_density_samples(
                        dist, Boost(betas), *drawn, spin))
                else:
                    overlaps, products = momentum_density_samples_cartesian(dist, Boost(betas),
                                                                            pairs, spin)
                for i, beta in enumerate(betas):
                    ref_overlaps, _, factor = _scalar_samples(dist, Boost(beta), pairs, spin)
                    ref_elements = factor * ref_overlaps
                    err = np.max(np.abs(factor * overlaps[i] - ref_elements))
                    assert err <= 1e-13 * np.max(np.abs(ref_elements))
                    if distance:
                        got = product_distance(overlaps[i], products[i])
                        assert abs(got - product_distance(factor * overlaps[i],
                                                          factor * products[i])) <= 1e-15

    @pytest.mark.parametrize("scale", [1.01, np.nan])
    def test_diagonal_overlap_guard(self, monkeypatch, scale):
        # a half-angle pair off the unit circle, or a NaN, moves the diagonal overlaps off <Phi|Phi>
        half_angle = relstate.wigner_half_angle

        def off_circle(*args, **kwargs):
            c, s = half_angle(*args, **kwargs)
            return scale * c, scale * s

        monkeypatch.setattr(relstate, "wigner_half_angle", off_circle)
        dist = GaussianProduct(1.0)
        with pytest.raises(ValueError, match="diagonal spin overlaps must lie within 1e-12"):
            momentum_density_samples(dist, Boost(0.5), *sample_prefix(dist, 8, seed=1),
                                     bell_phi_plus())

    @pytest.mark.parametrize("dist, pairs", [
        (EntangledMomentum(1.0), np.zeros((2, 4, 3))),
        (GaussianProduct(1.0), np.zeros((2, 3, 3))),
        (GaussianProduct(1.0), np.zeros((2, 4, 2))),
        (GaussianProduct(1.0), np.zeros((4, 3))),
        (GaussianProduct(1.0), np.zeros((1, 1, 2, 4, 3))),
    ])
    def test_raises_like_su2_form(self, dist, pairs):
        errors = []
        for fn in (momentum_density_samples_cartesian, momentum_density_samples_su2):
            with pytest.raises((TypeError, ValueError)) as err:
                fn(dist, Boost(0.5), pairs, bell_phi_plus())
            errors.append((err.type, str(err.value)))
        assert errors[0] == errors[1]
