import numpy as np
import pytest

from oracles import (
    AZIMUTH_NODES,
    amplitude1,
    as_azimuth_grid,
    azimuth_grid,
    azimuth_tensor,
    bell_ABCD_3d,
    fidelity_3d,
    gauss_legendre_longdouble,
    lattice_weights,
    reduced_spin_density_3d,
    wigner_angle,
    xstate_stats_3d,
)
from relent.entanglement import bell_ABCD, fidelity, xstate_stats
from relent.kinematics import Boost
from relent.relstate import (
    BipartiteState,
    bell_phi_plus,
    reduced_spin_density,
    spin_up_up,
)
from relent.wavepacket import (
    EntangledMomentum,
    GaussianProduct,
    build_grid,
    default_p_max,
    gauss_legendre,
)


class TestDistributions:
    def test_gaussian_norm_constant(self):
        assert GaussianProduct(2.0).norm == pytest.approx((np.pi * 2.0) ** -1.5, rel=1e-15)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GaussianProduct(0.0)
        with pytest.raises(ValueError):
            EntangledMomentum(1.0, sign=2)

    def test_amplitude_squares_to_density(self):
        gp = GaussianProduct(0.7)
        p_sq = np.array([0.1, 2.3])
        assert np.allclose(amplitude1(gp, p_sq) ** 2, gp.density1(p_sq), rtol=1e-14)


class TestBuildGrid:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            build_grid(1, 16, 6.0)
        with pytest.raises(ValueError):
            build_grid(16, 16, 0.0)

    def test_minimal_grid_is_valid(self):
        g = build_grid(2, 2, 1.0)
        assert g.size == 2 * 2 == 4
        assert np.all(g.radial_weights > 0) and np.all(g.polar_weights > 0)

    def test_cutoff_array_stacks_lattices(self):
        # one lattice per cutoff, each bit-identical to the grid of that cutoff alone
        cutoffs = np.array([1.0, 2.5, 7.0])
        g = build_grid(6, 5, cutoffs)
        assert g.radial_weights.shape == g.p.shape == (3, 6, 1) and g.polar_weights.shape == (5,)
        assert g.size == 3 * 6 * 5
        for i, p_max in enumerate(cutoffs):
            one = build_grid(6, 5, p_max)
            assert np.array_equal(g.p[i], one.p)
            assert np.array_equal(g.radial_weights[i], one.radial_weights)
            assert np.array_equal(g.polar_weights, one.polar_weights)

    def test_gaussian_norm_small_grid(self):
        g = build_grid(16, 16, 6.0)
        val = np.sum(lattice_weights(g) * GaussianProduct(1.0).density1(g.p**2))
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_ball_volume(self):
        g = build_grid(32, 32, 2.0)
        assert np.sum(lattice_weights(g)) == pytest.approx(4 * np.pi * 8.0 / 3.0, abs=1e-6)
        assert np.sum(g.radial_weights) * np.sum(g.polar_weights) == pytest.approx(
            4 * np.pi * 8.0 / 3.0, abs=1e-6)

    def test_deterministic_construction(self):
        g1 = build_grid(8, 8, 3.0)
        g2 = build_grid(8, 8, 3.0)
        assert g1.p.tobytes() == g2.p.tobytes()
        assert g1.radial_weights.tobytes() == g2.radial_weights.tobytes()
        assert g1.polar_weights.tobytes() == g2.polar_weights.tobytes()

    def test_arrays_are_read_only(self):
        g = build_grid(8, 8, 3.0)
        for a in (g.p, g.costheta, g.radial_weights, g.polar_weights):
            assert not a.flags.writeable
        for a in (g.radial_weights, g.polar_weights):
            with pytest.raises(ValueError):
                a[0] = 0.0
            with pytest.raises(ValueError):
                a *= 2.0

    def test_cached_rule_matches_leggauss(self):
        first = gauss_legendre(12)
        x, w = gauss_legendre(12)
        assert x is first[0] and w is first[1]
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w += 1.0
        for n in (2, 3, 12, 32, 64, 128):
            x, w = gauss_legendre(n)
            # exact for every monomial of degree <= 2n - 1
            for k in range(2 * n):
                assert abs(np.sum(w * x**k) - (2.0 / (k + 1)) * (k % 2 == 0)) <= 1e-14
            # leggauss's own weight error is 1.4e-11 at n = 128
            x_ref, w_ref = np.polynomial.legendre.leggauss(n)
            assert np.max(np.abs(x - x_ref)) <= 1e-15
            assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-10

    def test_rules_exactly_symmetric(self):
        # -x == x[::-1] and w == w[::-1] bit for bit, so a rule integrates every
        # odd function of cos(theta) to exactly 0; every count up to 256 and
        # odd/even counts up to GRID_COUNT_MAX (at 1,024 nodes, five evaluations
        # of a (512, 513) cosine series)
        for n in list(range(2, 257)) + [511, 512, 513, 1023, 1024]:
            x, w = gauss_legendre(n)
            assert np.array_equal(-x, x[::-1]), n
            assert np.array_equal(w, w[::-1]), n

    def test_rules_match_extended_precision(self):
        # nodes within 2 ulp of the outermost ones, which lie in [1/2, 1), and
        # weights within 2e-13 relative.  Golub-Welsch with two Newton steps on
        # the recurrence missed the weights by 9.1e-13 at n = 256, and the cosine
        # series with its phases m theta rounded by 1.1e-12 at n = 1,024
        for n in list(range(2, 257)) + [512, 1024]:
            x, w = gauss_legendre(n)
            x_ref, w_ref = gauss_legendre_longdouble(n)
            x, w = x[::-1][: len(x_ref)], w[::-1][: len(w_ref)]  # non-negative nodes, descending
            assert np.all(np.abs(x - x_ref) <= 2 * 2.0**-53), n
            assert np.all(np.abs(w / w_ref - 1) <= 2e-13), n
            assert n % 2 == 0 or x[-1] == 0.0

    def test_p_max_policy(self):
        assert default_p_max(1.0) == pytest.approx(6.0)
        assert default_p_max(1.0, beta=0.6) > 6.0


class TestIntegrate3:
    """3D integrals as node sums against the lattice of radial times polar weights."""

    def test_normalization(self, grid_default, gauss_unit):
        val = np.sum(lattice_weights(grid_default) * gauss_unit.density1(grid_default.p**2))
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_azimuthal_annihilation(self, grid_default, gauss_unit):
        # the polar weights carry the exact azimuth: the lattice weights equal a
        # 64-node azimuth rule's weights summed over phi, on which cos(phi) annihilates
        g, W = grid_default, lattice_weights(grid_default)
        fine = azimuth_grid(g.n_r, g.n_theta, g.p_max, 64)
        w = fine.weights * gauss_unit.density1(fine.p**2)
        assert abs(np.sum(w * np.cos(fine.phi))) < 1e-10
        folded = fine.weights.reshape(W.shape + (64,)).sum(axis=-1)
        assert np.max(np.abs(folded - W)) < 1e-13 * np.max(W)

    def test_zero_boost_wigner_weight(self, grid_default, gauss_unit):
        g = grid_default
        omega = wigner_angle(g.p, g.costheta, 0.0)
        w = lattice_weights(g) * gauss_unit.density1(g.p**2)
        assert np.sum(w * np.sin(omega / 2) ** 2) == 0.0

    def test_deterministic_sum(self, grid_default, gauss_unit):
        g = grid_default
        first = np.sum(lattice_weights(g) * gauss_unit.density1(g.p**2))
        assert np.sum(lattice_weights(g) * gauss_unit.density1(g.p**2)) == first


class TestIntegrate6:
    """Integrals over both momenta of a pair, on the same weighted node sums.

    The product measure is the outer product of the single-packet weights;
    the delta-correlated measure collapses the companion (q = s p) and leaves
    one 3D sum.
    """

    def test_product_normalization(self, gauss_unit):
        g = build_grid(16, 16, 6.0)
        w = lattice_weights(g) * gauss_unit.density1(g.p**2)
        assert np.sum(np.outer(w, w)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_entangled_normalization(self, sign):
        g = build_grid(16, 16, 6.0)
        em = EntangledMomentum(1.0, sign)
        assert np.sum(lattice_weights(g) * em.density1(g.p**2)) == pytest.approx(1.0, abs=1e-6)

    def test_independent_azimuths_annihilate(self, gauss_unit):
        # on the fixed azimuth rule the lattice kernels drop these cross terms
        g = azimuth_grid(8, 8, 6.0, AZIMUTH_NODES)
        w = g.weights * gauss_unit.density1(g.p**2)
        assert abs(np.sum(np.outer(w, w) * np.cos(g.phi[:, None] + g.phi[None, :]))) < 1e-10


class TestAzimuthRule:
    """The lattice kernels against per-speed 3D quadratures on a 64-node azimuth.

    Every production integrand is a trigonometric polynomial of degree <= 4
    in phi, which the lattice kernels average exactly, so the two agree to
    rounding.  A 4-node rule misses the entangled-pair aggregates by up to
    2.8e-3, and a 2-node rule misses bell_ABCD too.  ``reduced_spin_density``
    integrates cos(theta) in closed form, so its references take a 64-node
    polar rule (converged to rounding at width 1) with the same radial rule.
    """

    BETAS = [0.3, 0.9, 0.99]

    @staticmethod
    def _grids(p_max, n_theta_ref=24):
        return build_grid(24, 24, p_max), azimuth_grid(24, n_theta_ref, p_max, 64)

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_xstate_stats(self, beta, sign):
        grid, fine = self._grids(default_p_max(1.0), n_theta_ref=64)
        em = EntangledMomentum(1.0, sign)
        s, f = xstate_stats(em, Boost(beta), grid), xstate_stats_3d(em, Boost(beta), fine)
        for name, x, x_ref in zip(("diag", "rho03", "rho12"), s, f):
            assert np.max(np.abs(x - x_ref)) < 1e-13, name

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("dist", [EntangledMomentum(1.0, -1), GaussianProduct(1.0)])
    def test_reduced_spin_density(self, beta, dist):
        # the product-momentum channel is a test reference only: its exact
        # azimuth rule is checked against the 64-node one
        pair = isinstance(dist, EntangledMomentum)
        grid, fine = self._grids(default_p_max(1.0), n_theta_ref=64 if pair else 24)
        state = BipartiteState(dist, bell_phi_plus())
        if pair:
            rho = reduced_spin_density(state, Boost(beta), grid)
        else:
            rho = reduced_spin_density_3d(state, Boost(beta), as_azimuth_grid(grid))
        ref = reduced_spin_density_3d(state, Boost(beta), fine)
        assert np.max(np.abs(rho - ref)) < 1e-13

    @pytest.mark.parametrize("beta", BETAS)
    def test_bell_ABCD(self, beta):
        gp = GaussianProduct(1.0)
        grid, fine = self._grids(default_p_max(1.0))
        v, f = bell_ABCD(gp, Boost(beta), grid), bell_ABCD_3d(gp, Boost(beta), fine)
        for name in ("A", "B", "C", "D", "eta"):
            assert abs(getattr(v, name) - getattr(f, name)) < 1e-13, name

    @pytest.mark.parametrize("beta", BETAS)
    def test_fidelity(self, beta):
        grid, fine = self._grids(default_p_max(1.0, beta))
        state = BipartiteState(GaussianProduct(1.0), bell_phi_plus())
        v, f = fidelity(state.dist, Boost(beta), grid), fidelity_3d(state, Boost(beta), fine)
        assert abs(np.sqrt(v) - np.sqrt(f)) < 1e-13
        assert abs(v - f) < 1e-13

    @pytest.mark.parametrize("spin", [spin_up_up(), np.array([0.5, 0.5j, -0.5, 0.5])],
                             ids=["up_up", "generic"])
    def test_fidelity_is_spin_independent(self, spin):
        # the moment matrix is the identity times a scalar, so the full-matrix
        # overlap of any unit spin amplitude gives the fidelity that ignores it
        grid, fine = self._grids(default_p_max(1.0, 0.9))
        f = fidelity_3d(BipartiteState(GaussianProduct(1.0), spin), Boost(0.9), fine)
        assert abs(fidelity(GaussianProduct(1.0), Boost(0.9), grid) - f) < 1e-13

    @pytest.mark.parametrize("spin", [spin_up_up(), bell_phi_plus()], ids=["up_up", "bell"])
    def test_moment_tensor_is_exact(self, spin):
        # the pair density's fixed phi tensor on the production rule equals a
        # 64-node one; a 4-node rule aliases its fourth harmonic
        Y = azimuth_tensor(spin, AZIMUTH_NODES)
        assert Y.shape == (4, 4, 4, 4)
        assert np.max(np.abs(Y - azimuth_tensor(spin, 64))) < 1e-15


class TestRefinementConvergence:
    def test_doubling_radial_polar_is_stable(self):
        gp = GaussianProduct(1.0)
        coarse = build_grid(32, 32, default_p_max(1.0))
        fine = build_grid(64, 64, default_p_max(1.0))
        va = bell_ABCD(gp, Boost(0.7), coarse)
        vb = bell_ABCD(gp, Boost(0.7), fine)
        for name in ("A", "B", "C", "D", "eta"):
            assert abs(getattr(va, name) - getattr(vb, name)) < 1e-4

        fa = fidelity(gp, Boost(0.7), build_grid(32, 32, default_p_max(1.0, 0.7)))
        fb = fidelity(gp, Boost(0.7), build_grid(64, 64, default_p_max(1.0, 0.7)))
        assert abs(fa - fb) < 1e-4
