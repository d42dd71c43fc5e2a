import numpy as np
import pytest

from relent.kinematics import wigner_angle
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
        assert np.allclose(gp.amplitude1(p_sq) ** 2, gp.density1(p_sq), rtol=1e-14)


class TestBuildGrid:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            build_grid(1, 16, 8, 6.0)
        with pytest.raises(ValueError):
            build_grid(16, 16, 8, 0.0)

    def test_minimal_grid_is_valid(self):
        g = build_grid(2, 2, 2, 1.0)
        assert g.size == 8
        assert np.all(g.weights > 0)

    def test_gaussian_norm_small_grid(self):
        g = build_grid(16, 16, 8, 6.0)
        val = np.sum(g.weights * GaussianProduct(1.0).density1(g.p**2))
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_ball_volume(self):
        g = build_grid(32, 32, 16, 2.0)
        assert np.sum(g.weights) == pytest.approx(4 * np.pi * 8.0 / 3.0, abs=1e-6)

    def test_deterministic_construction(self):
        g1 = build_grid(8, 8, 4, 3.0)
        g2 = build_grid(8, 8, 4, 3.0)
        assert g1.p.tobytes() == g2.p.tobytes()
        assert g1.weights.tobytes() == g2.weights.tobytes()

    def test_arrays_are_read_only(self):
        g = build_grid(8, 8, 4, 3.0)
        for a in (g.p, g.costheta, g.phi, g.weights):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            g.weights[0] = 0.0
        with pytest.raises(ValueError):
            g.weights *= 2.0

    def test_cached_rule_matches_leggauss(self):
        first = gauss_legendre(12)
        x, w = gauss_legendre(12)
        assert x is first[0] and w is first[1]
        x_ref, w_ref = np.polynomial.legendre.leggauss(12)
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w += 1.0

    def test_p_max_policy(self):
        assert default_p_max(1.0) == pytest.approx(6.0)
        assert default_p_max(1.0, beta=0.6) > 6.0


class TestIntegrate3:
    """3D integrals as the library takes them: np.sum(grid.weights * values)."""

    def test_normalization(self, grid_default, gauss_unit):
        val = np.sum(grid_default.weights * gauss_unit.density1(grid_default.p**2))
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_azimuthal_annihilation(self, grid_default, gauss_unit):
        g = grid_default
        assert abs(np.sum(g.weights * gauss_unit.density1(g.p**2) * np.cos(g.phi))) < 1e-10

    def test_zero_boost_wigner_weight(self, grid_default, gauss_unit):
        g = grid_default
        omega = wigner_angle(g.p, g.costheta, 0.0)
        assert np.sum(g.weights * gauss_unit.density1(g.p**2) * np.sin(omega / 2) ** 2) == 0.0

    def test_deterministic_sum(self, grid_default, gauss_unit):
        g = grid_default
        first = np.sum(g.weights * gauss_unit.density1(g.p**2))
        assert np.sum(g.weights * gauss_unit.density1(g.p**2)) == first


class TestIntegrate6:
    """Integrals over both momenta of a pair, on the same weighted node sums.

    The product measure is the outer product of the single-packet weights;
    the delta-correlated measure collapses the companion (q = s p) and leaves
    one 3D sum.
    """

    def test_product_normalization(self, gauss_unit):
        g = build_grid(16, 16, 8, 6.0)
        w = g.weights * gauss_unit.density1(g.p**2)
        assert np.sum(np.outer(w, w)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_entangled_normalization(self, sign):
        g = build_grid(16, 16, 8, 6.0)
        em = EntangledMomentum(1.0, sign)
        assert np.sum(g.weights * em.density1(g.p**2)) == pytest.approx(1.0, abs=1e-6)

    def test_independent_azimuths_annihilate(self, gauss_unit):
        g = build_grid(8, 8, 8, 6.0)
        w = g.weights * gauss_unit.density1(g.p**2)
        assert abs(np.sum(np.outer(w, w) * np.cos(g.phi[:, None] + g.phi[None, :]))) < 1e-10


class TestRefinementConvergence:
    def test_doubling_radial_polar_is_stable(self):
        from relent.entanglement import bell_ABCD, fidelity
        from relent.kinematics import Boost
        from relent.relstate import BipartiteState, bell_phi_plus

        gp = GaussianProduct(1.0)
        coarse = build_grid(32, 32, 16, default_p_max(1.0))
        fine = build_grid(64, 64, 16, default_p_max(1.0))
        va = bell_ABCD(gp, Boost(0.7), coarse)
        vb = bell_ABCD(gp, Boost(0.7), fine)
        for name in ("A", "B", "C", "D", "eta"):
            assert abs(getattr(va, name) - getattr(vb, name)) < 1e-4

        state = BipartiteState(gp, bell_phi_plus())
        fa = fidelity(state, Boost(0.7), build_grid(32, 32, 16, default_p_max(1.0, 0.7)))
        fb = fidelity(state, Boost(0.7), build_grid(64, 64, 16, default_p_max(1.0, 0.7)))
        assert abs(fa.fidelity - fb.fidelity) < 1e-4
