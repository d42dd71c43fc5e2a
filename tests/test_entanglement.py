import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bell_fidelity_cos, mc_bell_abcd, mc_bell_fidelity
from relent.cli import ConfigError, parse_config, run
from relent.entanglement import (
    ABCDValues,
    XStateStats,
    abcd,
    bell_ABCD,
    bell_density_from_ABCD,
    entanglement_measure,
    fidelity,
    partial_transpose,
    pt_eigenvalues_from_ABCD,
    separability_verdict,
    xstate_stats,
)
from relent.kinematics import Boost, FourMomentum
from relent.relstate import (
    BipartiteState,
    bell_phi_plus,
    reduced_spin_density,
    spin_kernel,
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


class TestABCDAmplitudes:
    def test_zero_angles(self):
        vals = abcd(
            FourMomentum.from_spherical(1.0, 0.0, 0.0),
            FourMomentum.from_spherical(2.0, 0.0, 0.0),
            Boost(0.7),
        )
        assert np.allclose(vals, [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_half_turn_substitution(self):
        # omega_p = pi at phi_p = pi/2 with omega_q = 0 moves all weight to the
        # down-up slot: (a, b, c, d) = (0, 0, 1, 0)
        from relent.kinematics import wigner_matrix

        vals = np.kron(wigner_matrix(np.pi, np.pi / 2), wigner_matrix(0.0, 0.0)) @ spin_up_up()
        assert np.allclose(vals, [0.0, 0.0, 1.0, 0.0], atol=1e-15)

    def test_stationary_companion_leaves_up_up_subspace(self):
        # a zero-momentum companion rotates trivially, so only a and c survive
        p = FourMomentum.from_spherical(5.0, np.pi / 2, np.pi / 2)
        q = FourMomentum.from_spherical(0.0, 0.0, 0.0)
        vals = abcd(p, q, Boost(0.99))
        assert abs(vals[1]) < 1e-14 and abs(vals[3]) < 1e-14
        assert abs(vals[0]) ** 2 + abs(vals[2]) ** 2 == pytest.approx(1.0, abs=1e-12)

    @given(p=momenta, q=momenta, b=boosts)
    @settings(max_examples=120)
    def test_unit_norm_pointwise(self, p, q, b):
        vals = abcd(p, q, b)
        assert sum(abs(v) ** 2 for v in vals) == pytest.approx(1.0, abs=1e-12)

    @given(p=momenta, q=momenta, b=boosts)
    @settings(max_examples=120)
    def test_matches_kernel_on_up_up(self, p, q, b):
        vals = np.array(abcd(p, q, b))
        via_kernel = spin_kernel(p, q, b) @ spin_up_up()
        assert np.max(np.abs(vals - via_kernel)) < 1e-12


class TestXStateStats:
    def test_no_boost(self, grid_default, entangled_unit):
        s = xstate_stats(entangled_unit, Boost(0.0), grid_default)
        assert s.mean_a2 == pytest.approx(1.0, abs=1e-9)
        for x in (s.mean_b2, s.mean_c2, s.mean_d2, abs(s.mean_ad), abs(s.mean_bc)):
            assert abs(x) < 1e-12

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_square_means_sum_to_one(self, grid_default, sign, beta):
        s = xstate_stats(EntangledMomentum(1.0, sign), Boost(beta), grid_default)
        total = s.mean_a2 + s.mean_b2 + s.mean_c2 + s.mean_d2
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_pointwise_modulus_identity(self, grid_default, sign, beta):
        # |a d*| and |b c*| agree pointwise, hence under any common average
        s = xstate_stats(EntangledMomentum(1.0, sign), Boost(beta), grid_default)
        assert s.mean_abs_ad == pytest.approx(s.mean_abs_bc, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_middle_dominates_corner_for_coaligned_pairs(self, grid_default, beta):
        # the co-moving correlation keeps |<b c*>| >= |<a d*>|
        s = xstate_stats(EntangledMomentum(1.0, 1), Boost(beta), grid_default)
        assert abs(s.mean_bc) >= abs(s.mean_ad) - 1e-9

    def test_density_matches_reduced_path(self, grid_default, entangled_unit):
        s = xstate_stats(entangled_unit, Boost(0.8), grid_default)
        state = BipartiteState(entangled_unit, spin_up_up())
        rho = reduced_spin_density(state, Boost(0.8), grid_default).matrix
        assert np.max(np.abs(s.density().matrix - rho)) < 1e-10


class TestCoverageGuards:
    def test_unbounded_grid_is_coverage_error(self):
        # weights at infinite radius come out as inf * 0 = nan, which every
        # norm and trace guard must reject
        grid = build_grid(8, 8, 4, np.inf)
        b = Boost(0.5)
        calls = [
            lambda: reduced_spin_density(
                BipartiteState(EntangledMomentum(1.0, -1), bell_phi_plus()), b, grid
            ),
            lambda: reduced_spin_density(
                BipartiteState(GaussianProduct(1.0), bell_phi_plus()), b, grid
            ),
            lambda: xstate_stats(EntangledMomentum(1.0, -1), b, grid),
            lambda: bell_ABCD(GaussianProduct(1.0), b, grid),
        ]
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for call in calls:
                with pytest.raises(GridCoverageError):
                    call()


class TestSeparabilityVerdict:
    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_never_entangled(self, grid_default, sign, beta):
        s = xstate_stats(EntangledMomentum(1.0, sign), Boost(beta), grid_default)
        v = separability_verdict(s)
        assert not v.entangled
        assert v.margin_corner <= 1e-9
        assert v.margin_middle <= 1e-9

    def test_synthetic_entangled_stats(self):
        s = XStateStats(
            mean_a2=0.4, mean_b2=0.1, mean_c2=0.1, mean_d2=0.4,
            mean_ad=0.5, mean_bc=0.0, mean_abs_ad=0.5, mean_abs_bc=0.5,
        )
        v = separability_verdict(s)
        assert v.entangled
        assert v.margin_corner == pytest.approx(0.24, abs=1e-12)


def bell_overlap_kernel(p, q, b):
    """<Phi+| D(Omega_p) x D(Omega_q) |Phi+> at one momentum pair."""
    bell = bell_phi_plus()
    return complex(bell.conj() @ spin_kernel(p, q, b) @ bell)


class TestOverlapKernels:
    def test_zero_angles_both_one(self):
        p = FourMomentum.from_spherical(1.0, 0.0, 0.0)
        q = FourMomentum.from_spherical(2.0, 0.0, 0.0)
        assert bell_overlap_kernel(p, q, Boost(0.8)) == pytest.approx(1.0)

    @given(p=momenta, q=momenta, b=boosts)
    @settings(max_examples=80)
    def test_generic_equals_closed_form_for_bell(self, p, q, b):
        from relent.kinematics import wigner_rotation

        val = bell_overlap_kernel(p, q, b)
        wp, wq = wigner_rotation(p, b), wigner_rotation(q, b)
        expected = np.cos(wp.omega / 2) * np.cos(wq.omega / 2) - np.sin(wp.omega / 2) * np.sin(
            wq.omega / 2
        ) * np.cos(wp.phi + wq.phi)
        assert val.real == pytest.approx(expected, abs=1e-12)
        assert abs(val.imag) < 1e-12


class TestFidelity:
    def test_no_boost_unity(self, gauss_unit):
        grid = build_grid(32, 32, 16, default_p_max(1.0))
        state = BipartiteState(gauss_unit, bell_phi_plus())
        assert fidelity(state, Boost(0.0), grid).fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_degrades_under_boost(self, delta, beta):
        grid = build_grid(32, 32, 16, default_p_max(delta, beta))
        state = BipartiteState(GaussianProduct(delta), bell_phi_plus())
        f = fidelity(state, Boost(beta), grid).fidelity
        assert f < 1.0 - 1e-6
        assert f >= 0.0

    def test_generic_and_cos_paths_agree(self, gauss_unit):
        grid = build_grid(32, 32, 16, default_p_max(1.0, 0.6))
        state = BipartiteState(gauss_unit, bell_phi_plus())
        f_gen = fidelity(state, Boost(0.6), grid).fidelity
        assert f_gen == pytest.approx(bell_fidelity_cos(1.0, 0.6, grid), abs=1e-8)

    def test_leak_detection(self, gauss_unit):
        # grid without boost headroom cannot account for the boosted marginal
        grid = build_grid(32, 32, 16, default_p_max(1.0, 0.0))
        state = BipartiteState(gauss_unit, bell_phi_plus())
        with pytest.raises(GridCoverageError):
            fidelity(state, Boost(0.9), grid)

    def test_against_monte_carlo(self, gauss_unit):
        grid = build_grid(32, 32, 16, default_p_max(1.0, 0.5))
        state = BipartiteState(gauss_unit, bell_phi_plus())
        f_quad = fidelity(state, Boost(0.5), grid).fidelity
        f_mc, err = mc_bell_fidelity(1.0, 0.5, n=10**6, seed=7)
        assert abs(f_quad - f_mc) < 3.0 * err


class TestBellABCD:
    def test_no_boost(self, grid_default, gauss_unit):
        v = bell_ABCD(gauss_unit, Boost(0.0), grid_default)
        assert v.A == pytest.approx(1.0, abs=1e-9)
        for x in (v.B, v.C, v.D, v.eta):
            assert abs(x) < 1e-9

    def test_analytic_limit_values(self, grid_default, gauss_unit):
        v = bell_ABCD(gauss_unit, Boost(0.0), grid_default, analytic_limit=True)
        assert v.A == pytest.approx(0.375, abs=1e-9)
        assert v.B == pytest.approx(0.25, abs=1e-9)
        assert v.C == pytest.approx(0.125, abs=1e-9)
        assert v.D == pytest.approx(0.25, abs=1e-9)
        assert v.eta == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("beta", [0.2, 0.6, 0.95])
    def test_sum_rule(self, grid_default, gauss_unit, beta):
        v = bell_ABCD(gauss_unit, Boost(beta), grid_default)
        assert v.A + v.B + v.C + v.D == pytest.approx(1.0, abs=1e-6)
        assert 0.0 <= v.eta <= 1.0
        for x in (v.A, v.B, v.C, v.D):
            assert -1e-12 <= x <= 1.0 + 1e-12

    def test_rejects_entangled_distribution(self, grid_default):
        with pytest.raises(TypeError):
            bell_ABCD(EntangledMomentum(1.0, -1), Boost(0.5), grid_default)

    def test_xstate_rejects_product_distribution(self, grid_default, gauss_unit):
        with pytest.raises(TypeError):
            xstate_stats(gauss_unit, Boost(0.5), grid_default)

    def test_eta_closed_relation(self, grid_default, gauss_unit):
        # isotropy collapses the four weights onto eta alone
        v = bell_ABCD(gauss_unit, Boost(0.7), grid_default)
        e = v.eta
        assert v.A == pytest.approx(1 - e + 3 * e**2 / 8, abs=1e-10)
        assert v.B == pytest.approx(e / 2 - e**2 / 4, abs=1e-10)
        assert v.C == pytest.approx(e**2 / 8, abs=1e-10)
        assert v.D == pytest.approx(v.B, abs=1e-10)

    def test_against_monte_carlo(self, grid_default, gauss_unit):
        v = bell_ABCD(gauss_unit, Boost(0.6), grid_default)
        mc = mc_bell_abcd(1.0, 0.6, n=10**6, seed=11)
        for name in ("A", "B", "C", "D"):
            mean, err = mc[name]
            assert abs(getattr(v, name) - mean) < 3.0 * err

    def test_matches_reduced_density(self, grid_default, gauss_unit):
        b = Boost(0.6)
        v = bell_ABCD(gauss_unit, b, grid_default)
        direct = reduced_spin_density(
            BipartiteState(gauss_unit, bell_phi_plus()), b, grid_default
        ).matrix
        assert np.max(np.abs(bell_density_from_ABCD(v).matrix - direct)) < 1e-6


class TestBellDensityAndPT:
    def test_pure_bell_from_unit_A(self):
        rho = bell_density_from_ABCD(ABCDValues(1.0, 0.0, 0.0, 0.0, 0.0)).matrix
        assert np.allclose(rho, np.outer(bell_phi_plus(), bell_phi_plus().conj()), atol=0)

    def test_analytic_limit_matrix_structure(self):
        v = ABCDValues(0.375, 0.25, 0.125, 0.25, 1.0)
        rho = bell_density_from_ABCD(v).matrix
        assert rho[0, 0] == pytest.approx(5 / 16)
        assert rho[0, 3] == pytest.approx(1 / 16)
        assert rho[1, 1] == pytest.approx(3 / 16)
        assert rho[1, 2] == pytest.approx(-1 / 16)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

    def test_partial_transpose_of_product_state_is_psd(self, rng):
        for _ in range(20):
            v1 = rng.normal(size=2) + 1j * rng.normal(size=2)
            v2 = rng.normal(size=2) + 1j * rng.normal(size=2)
            v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
            rho = np.kron(np.outer(v1, v1.conj()), np.outer(v2, v2.conj()))
            assert np.min(np.linalg.eigvalsh(partial_transpose(rho))) > -1e-12

    def test_bell_pt_minimum(self):
        rho = np.outer(bell_phi_plus(), bell_phi_plus().conj())
        assert np.min(np.linalg.eigvalsh(partial_transpose(rho))) == pytest.approx(-0.5, abs=1e-12)

    def test_pt_involution_and_trace(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        pt = partial_transpose(rho)
        assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(partial_transpose(pt), rho, atol=1e-15)

    @given(
        weights=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    )
    @settings(max_examples=100)
    def test_pt_spectrum_closed_form(self, weights):
        total = sum(weights)
        A, B, C, D = (x / total for x in weights)
        v = ABCDValues(A, B, C, D, 0.0)
        eig = np.sort(np.linalg.eigvalsh(partial_transpose(bell_density_from_ABCD(v))))
        assert np.max(np.abs(eig - pt_eigenvalues_from_ABCD(v))) < 1e-10


class TestEntanglementMeasure:
    def test_bell_is_maximal(self):
        rho = np.outer(bell_phi_plus(), bell_phi_plus().conj())
        assert entanglement_measure(rho) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_limit_is_zero(self):
        rho = bell_density_from_ABCD(ABCDValues(0.375, 0.25, 0.125, 0.25, 1.0))
        assert entanglement_measure(rho) == 0.0

    def test_maximally_mixed_is_zero(self):
        assert entanglement_measure(np.eye(4) / 4.0) == 0.0


class TestMeasureSweep:
    """The Bell-spin, product-momentum sweep through its evaluator, ``cli.run``."""

    def test_single_zero_beta(self):
        rows = run(parse_config({"betas": [0.0], "grid": {"p_max": "auto"}}))
        assert rows[0].E == pytest.approx(1.0, abs=1e-9)
        assert rows[0].fidelity == pytest.approx(1.0, abs=1e-9)

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigError, match="ascending"):
            parse_config({"betas": [0.5, 0.1]})

    @pytest.mark.parametrize("delta", [0.5, 1.0, 4.0])
    def test_measure_monotone_fidelity_below_one(self, delta):
        # default betas and 32x32x16 grids, radial headroom for each beta
        rows = run(parse_config({"delta": [delta], "grid": {"p_max": "auto"}}))
        E = [r.E for r in rows]
        assert all(e2 <= e1 + 1e-6 for e1, e2 in zip(E, E[1:]))
        assert all(r.fidelity < 1.0 - 1e-6 for r in rows if r.beta >= 0.1)
        eta = [r.eta for r in rows]
        assert all(x2 >= x1 - 1e-9 for x1, x2 in zip(eta, eta[1:]))
