import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    FourMomentum,
    abcd,
    azimuth_grid,
    bell_ABCD_hypot,
    bell_density_from_ABCD,
    bell_fidelity_cos,
    bell_s2_massless,
    bell_s2_small_width,
    fidelity_massless,
    fidelity_small_width,
    mc_bell_abcd,
    mc_bell_fidelity,
    mean_abs_products,
    lattice_weights,
    leaked_mass,
    leaked_mass_mask,
    leaked_mass_panels,
    massless_corrections,
    partial_transpose,
    reduced_spin_density_3d,
    reduced_spin_density_massless,
    spin_kernel,
    wigner_rotation,
    xstate_concurrence,
    xstate_density,
    xstate_entries,
)
from test_golden import GOLDEN
import relent.cli as cli
import relent.entanglement as entanglement
from relent.cli import ConfigError, parse_config, run
from relent.entanglement import (
    ABCDValues,
    bell_ABCD,
    bell_pt_spectrum,
    bell_weights,
    fidelity,
    negativity_measure,
    product_residual,
    xstate_pt_spectrum,
    xstate_stats,
)
from relent.kinematics import BETA_CAP, Boost
from relent.relstate import (
    bell_phi_plus,
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
        from oracles import wigner_matrix

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
        diag, rho03, rho12 = xstate_stats(entangled_unit, Boost(0.0), grid_default)
        assert diag[0] == pytest.approx(1.0, abs=1e-9)
        for x in (*diag[1:], abs(rho03), abs(rho12)):
            assert abs(x) < 1e-12

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_square_means_sum_to_one(self, grid_default, sign, beta):
        diag, _, _ = xstate_stats(EntangledMomentum(1.0, sign), Boost(beta), grid_default)
        assert np.sum(diag) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_pointwise_modulus_identity(self, grid_default, sign, beta):
        # |a d*| and |b c*| agree pointwise, hence under any common average
        mean_abs_ad, mean_abs_bc = mean_abs_products(
            EntangledMomentum(1.0, sign), Boost(beta), azimuth_grid(32, 32, default_p_max(1.0))
        )
        assert mean_abs_ad == pytest.approx(mean_abs_bc, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_middle_dominates_corner_for_coaligned_pairs(self, grid_default, beta):
        # the co-moving correlation keeps |<b c*>| >= |<a d*>|
        _, rho03, rho12 = xstate_stats(EntangledMomentum(1.0, 1), Boost(beta), grid_default)
        assert abs(rho12) >= abs(rho03) - 1e-9

    def test_density_matches_reduced_path(self, grid_default, entangled_unit):
        diag, rho03, rho12 = xstate_stats(entangled_unit, Boost(0.8), grid_default)
        rho = reduced_spin_density(entangled_unit, Boost(0.8), grid_default, spin_up_up())
        assert np.max(np.abs(xstate_density(diag, rho03, rho12) - rho)) < 1e-10


class TestCoverageGuards:
    def test_unbounded_grid_is_coverage_error(self):
        # weights at infinite radius come out as inf * 0 = nan, which every
        # norm and trace guard must reject
        grid = build_grid(8, 8, np.inf)
        b = Boost(0.5)
        calls = [
            lambda: reduced_spin_density(EntangledMomentum(1.0, -1), b, grid, bell_phi_plus()),
            lambda: xstate_stats(EntangledMomentum(1.0, -1), b, grid),
            lambda: bell_ABCD(GaussianProduct(1.0), b, grid),
        ]
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            for call in calls:
                with pytest.raises(GridCoverageError):
                    call()


    @pytest.mark.parametrize("p_max", [2.0, 3.0])
    def test_under_covered_grid_is_coverage_error(self, p_max):
        # xstate_stats has no norm check of its own: for a unit spin the
        # density's trace is the grid norm, checked at the same 1e-4
        dist, grid = EntangledMomentum(1.0, -1), build_grid(32, 32, p_max)
        deficit = 1.0 - np.sum(lattice_weights(grid) * dist.density1(grid.p**2))
        assert deficit > 1e-4
        with pytest.raises(GridCoverageError):
            xstate_stats(dist, Boost(np.array([0.0, 0.5])), grid)


#: a fixed cutoff that holds 1 - 2.0e-5 of |f1|^2 at width 1, inside the coverage guard
TRUNCATED = build_grid(32, 32, 3.5)


class TestNormalisedByConstruction:
    """The Bell weights and rho belong to the normalised state on every grid that passes the
    coverage guard: the grid's truncated norm reaches no output."""

    @given(log_delta=st.floats(-3.0, 3.0), cut=st.floats(3.2, 8.0), n_r=st.integers(8, 63),
           n_theta=st.integers(2, 39), betas=st.lists(st.floats(0.0, 0.9999), min_size=1,
                                                      max_size=4),
           sign=st.sampled_from([-1, 1]), bell=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_traces_are_one_on_truncated_grids(self, log_delta, cut, n_r, n_theta, betas, sign,
                                               bell):
        delta = 10.0**log_delta
        grid, b = build_grid(n_r, n_theta, cut * math.sqrt(delta)), Boost(np.array(betas))
        spin = bell_phi_plus() if bell else spin_up_up()
        try:
            v = bell_ABCD(GaussianProduct(delta), b, grid)
            rho = reduced_spin_density(EntangledMomentum(delta, sign), b, grid, spin)
        except GridCoverageError:
            assume(False)
        assert np.max(np.abs(v.A + v.B + v.C + v.D - 1.0)) <= 1e-15
        assert np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0)) <= 1e-15

    def test_bell_weights_closer_to_a_fine_rule(self, gauss_unit):
        # against 256-node rules on the policy's cutoff, the normalised weights are no further
        # off than the truncated density's, norm^2 times them (eta was already normalised)
        norm = np.sum(lattice_weights(TRUNCATED) * gauss_unit.density1(TRUNCATED.p**2))
        assert 1e-5 < 1.0 - norm < 1e-4
        betas = np.array([0.0, 0.5, 0.9, 0.99])
        got = bell_ABCD(gauss_unit, Boost(betas), TRUNCATED)
        for i, beta in enumerate(betas):
            ref = bell_ABCD(gauss_unit, Boost(beta), build_grid(256, 256, default_p_max(1.0, beta)))
            for x, x_ref, scale in zip(got, ref, (norm**2,) * 4 + (1.0,)):
                err = abs(x[i] - x_ref)
                assert err <= 1e-5 and err <= abs(scale * x[i] - x_ref) + 1e-15
                assert beta > 0.0 or err <= 1e-15

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_spin_density_closer_to_a_fine_rule(self, sign):
        # as above for rho, whose trace on the truncated grid is its norm
        dist = EntangledMomentum(1.0, sign)
        norm = np.sum(lattice_weights(TRUNCATED) * dist.density1(TRUNCATED.p**2))
        betas = np.array([0.0, 0.5, 0.9, 0.99])
        got = reduced_spin_density(dist, Boost(betas), TRUNCATED, spin_up_up())
        for i, beta in enumerate(betas):
            ref = reduced_spin_density(dist, Boost(beta),
                                       build_grid(256, 16, default_p_max(1.0, beta)), spin_up_up())
            err = np.max(np.abs(got[i] - ref))
            assert err <= 5e-6 and err <= np.max(np.abs(norm * got[i] - ref)) + 1e-15
            assert beta > 0.0 or err <= 1e-15


class TestSeparabilityVerdict:
    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_never_entangled(self, grid_default, sign, beta):
        s = xstate_stats(EntangledMomentum(1.0, sign), Boost(beta), grid_default)
        spectrum, margin_corner, margin_middle = xstate_pt_spectrum(*s)
        assert margin_corner <= 1e-9
        assert margin_middle <= 1e-9
        assert spectrum[0] >= -1e-9

    def test_synthetic_entangled_stats(self):
        spectrum, margin_corner, _ = xstate_pt_spectrum([0.4, 0.1, 0.1, 0.4], 0.5, 0.0)
        assert margin_corner == pytest.approx(0.24, abs=1e-12)
        assert spectrum[0] == pytest.approx(-0.4, abs=1e-12)

    def test_product_residual(self):
        # |d0 d3 - d1 d2| / max(d0 d3, d1 d2), per cell of the leading axes
        diag = np.array([[0.4, 0.1, 0.2, 0.3], [0.1, 0.4, 0.3, 0.2], [0.25] * 4, [0.0] * 4])
        assert product_residual(diag) == pytest.approx([0.1 / 0.12, 0.1 / 0.12, 0.0, 0.0])


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
        val = bell_overlap_kernel(p, q, b)
        wp, wq = wigner_rotation(p, b), wigner_rotation(q, b)
        expected = np.cos(wp.omega / 2) * np.cos(wq.omega / 2) - np.sin(wp.omega / 2) * np.sin(
            wq.omega / 2
        ) * np.cos(wp.phi + wq.phi)
        assert val.real == pytest.approx(expected, abs=1e-12)
        assert abs(val.imag) < 1e-12


class TestFidelity:
    def test_no_boost_unity(self, gauss_unit):
        grid = build_grid(32, 32, default_p_max(1.0))
        assert fidelity(gauss_unit, Boost(0.0), grid) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 0.99])
    def test_degrades_under_boost(self, delta, beta):
        grid = build_grid(32, 32, default_p_max(delta, beta))
        f = fidelity(GaussianProduct(delta), Boost(beta), grid)
        assert f < 1.0 - 1e-6
        assert f >= 0.0

    def test_range_error_names_the_cell(self):
        # a 2-node radial rule does not resolve the packet; the message used to
        # print all 21 fidelities and name no cell
        delta = np.array([[1.0]])  # the default sweep's call
        grid = build_grid(2, 4, default_p_max(delta))
        with pytest.raises(ValueError) as err:
            fidelity(GaussianProduct(delta), Boost(np.array(cli._DEFAULT_BETAS)), grid)
        found = re.fullmatch(
            r"fidelity out of \[0, 1\]: (\S+) at beta (\S+), delta (\S+)", str(err.value)
        )
        assert found is not None, err.value
        value, beta, delta = map(float, found.groups())
        # the worst cell: 22.6 at rest, falling with beta
        assert (value, beta, delta) == (pytest.approx(22.6145284, rel=1e-8), 0.0, 1.0)

    def test_generic_and_cos_paths_agree(self, gauss_unit):
        grid = build_grid(32, 32, default_p_max(1.0, 0.6))
        f_gen = fidelity(gauss_unit, Boost(0.6), grid)
        assert f_gen == pytest.approx(bell_fidelity_cos(1.0, 0.6, grid), abs=1e-8)

    @pytest.mark.parametrize("delta", [1e-12, 1e-3, 0.5, 1.0, 4.0, 100.0, 1e6, 1e12])
    def test_fixed_cutoff_leaks_past_p_max(self, delta):
        dist = GaussianProduct(delta)
        b = Boost(np.append(np.arange(20) * 0.05, [0.99, 0.999, BETA_CAP]))
        # the auto cutoff holds every speed's boosted packet, a fixed one does not
        assert np.all(leaked_mass(dist, b, default_p_max(delta, b.beta)) < 1e-6)
        assert np.any(leaked_mass(dist, b, default_p_max(delta)) > 1e-4)

    def test_narrow_packet_on_a_wide_grid(self):
        # a 32-node rule on [0, 1] misses a packet of width 1e-12 and used to give 0;
        # the fidelity scales the rule to the packet's own cutoff
        f = fidelity(GaussianProduct(1e-12), Boost(0.0), build_grid(32, 32, 1.0))
        assert abs(f - 1.0) <= 1e-14

    def test_one_value_per_cell(self):
        # a (width, beta) lattice of cells gives each cell's own fidelity, bit for bit
        widths, betas = np.array([[0.5], [1.0], [4.0]]), np.array([0.0, 0.6, 0.99])
        grid = build_grid(16, 16, default_p_max(widths))
        f = fidelity(GaussianProduct(widths), Boost(betas), grid)
        assert f.shape == (3, 3)
        for (i, j), value in np.ndenumerate(f):
            one = fidelity(GaussianProduct(widths[i, 0]), Boost(betas[j]), grid)
            assert one == value

    def test_against_monte_carlo(self, gauss_unit):
        grid = build_grid(32, 32, default_p_max(1.0, 0.5))
        f_quad = fidelity(gauss_unit, Boost(0.5), grid)
        f_mc, err = mc_bell_fidelity(1.0, 0.5, n=10**6, seed=7)
        assert abs(f_quad - f_mc) < 3.0 * err


def _leak_cases():
    """(width, betas, cutoffs) of every fidelity sweep in the goldens and the seed-0 benchmark."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    docs = list(GOLDEN.values())
    docs += [d for w in workloads.WORKLOADS for d in workloads.configs(w, 0)]
    for doc in docs:
        cfg = parse_config(doc)
        if cfg.scenario in ("spin_bell_momentum_product", "fidelity_only"):
            for delta in cfg.delta:
                betas = np.array(cfg.betas)
                yield delta, betas, default_p_max(delta, betas)


class TestPolicyCutoff:
    """``fidelity`` integrates on ``default_p_max``, which leaks at most 1e-6; a larger cutoff leaks less."""

    def test_leak_bound_over_the_config_domain(self):
        widths = np.logspace(-12.0, 12.0, 97)[:, None]
        betas = np.linspace(0.0, 0.99, 100)
        betas = np.unique(np.concatenate((betas, 1.0 - np.logspace(-2.0, -9.0, 51))))
        assert len(betas) == 150 and betas[-1] == BETA_CAP
        leak = leaked_mass(GaussianProduct(widths), Boost(betas), default_p_max(widths, betas))
        assert np.max(leak[:, 0]) < 1e-14
        # the worst, 7.42e-7, is at width 1e12 and the cap
        assert np.max(leak) <= 1e-6

    @settings(max_examples=300, deadline=None)
    @given(
        log_delta=st.floats(-12.0, 12.0),
        beta=st.one_of(
            st.just(0.0),
            st.floats(0.0, BETA_CAP),
            st.floats(-9.0, -1.0).map(lambda e: 1.0 - 10.0**e),
        ),
        frac=st.floats(-1.0, 1.0),
        grow=st.floats(0.0, 1.0),
    )
    def test_leak_does_not_grow_with_the_cutoff(self, log_delta, beta, frac, grow):
        dist, b = GaussianProduct(10.0**log_delta), Boost(min(beta, BETA_CAP))
        policy = float(default_p_max(dist.delta, b.beta))
        p_max = policy * 2.0**frac
        small, large = (float(leaked_mass(dist, b, P)) for P in (p_max, p_max * (1.0 + grow)))
        # the slack is the closed form's rounding, for cutoffs a few ulps apart
        assert large <= small * (1.0 + 1e-12)
        if p_max >= policy:
            assert small <= float(leaked_mass(dist, b, policy)) * (1.0 + 1e-12)

    @pytest.mark.parametrize("delta", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("beta", [0.0, 0.5, BETA_CAP])
    def test_any_cutoff_gives_the_policy_bits(self, delta, beta):
        # the grid lends the fidelity its rules, not its cutoff: a thousandth of the
        # policy's cutoff, which used to raise, and a thousand times it give the same bits
        dist, b = GaussianProduct(delta), Boost(beta)
        policy = default_p_max(delta, beta)
        f = fidelity(dist, b, build_grid(32, 32, policy))
        assert 0.0 <= f <= 1.0
        for scale in (1e-3, 1e3):
            assert fidelity(dist, b, build_grid(32, 32, scale * policy)) == f


class TestLeakedMass:
    """The closed-form leaked mass against the exact 3D tail and two quadratures."""

    @pytest.mark.parametrize("delta", [1e-12, 1e-3, 1.0, 4.0, 1e6, 1e12])
    @pytest.mark.parametrize("u", [0.5, 2.5, 3.25, 6.0, 12.0])
    def test_unboosted_is_the_3d_tail(self, delta, u):
        tail = math.erfc(u) + 2.0 * u * math.exp(-u * u) / math.sqrt(math.pi)
        got = leaked_mass(GaussianProduct(delta), Boost(0.0), u * math.sqrt(delta))
        assert abs(got / tail - 1.0) <= 1e-13

    @settings(max_examples=300, deadline=None)
    @given(
        log_delta=st.floats(-12.0, 12.0),
        beta=st.one_of(
            st.just(0.0),
            st.floats(1e-14, BETA_CAP),
            st.floats(-14.0, -1.0).map(lambda e: 10.0**e),
            st.floats(-9.0, -1.0).map(lambda e: 1.0 - 10.0**e),
        ),
        frac=st.floats(0.0, 1.0),
    )
    def test_against_panel_quadrature(self, log_delta, beta, frac):
        delta = 10.0**log_delta
        beta = min(beta, BETA_CAP)
        lo, hi = 2.5 * math.sqrt(delta), float(default_p_max(delta, beta))
        p_max = lo * (hi / lo) ** frac
        got = float(leaked_mass(GaussianProduct(delta), Boost(beta), p_max))
        assert math.isfinite(got) and 0.0 <= got <= 1.0
        want = leaked_mass_panels(delta, beta, p_max)
        assert abs(got - want) <= 1e-6 * want + 1e-12

    @pytest.mark.parametrize("delta", [1e-12, 1.0, 1e12])
    @pytest.mark.parametrize("u", [2.5, 4.0])
    def test_continuous_as_beta_vanishes(self, delta, u):
        # both branches: the tiny-speed rule below the switch at an exponent
        # change of 0.1 across [x-, x+], the two erfcx terms above it
        p_max = u * math.sqrt(delta)
        e_p = math.sqrt(1.0 + p_max**2)
        switch = 0.1 * delta / (4.0 * p_max * e_p)
        betas = np.concatenate(
            ([0.0], 10.0 ** -np.arange(14.0, 0.0, -1.0), switch * (1.0 + np.linspace(-0.01, 0.01, 41)))
        )
        betas = betas[betas <= BETA_CAP]
        dist = GaussianProduct(delta)
        got = leaked_mass(dist, Boost(betas), p_max)
        want = np.array([leaked_mass_panels(delta, b, p_max) for b in betas])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-11
        assert abs(got[1] / got[0] - 1.0) <= 1e-13  # beta = 1e-14 against beta = 0

    @pytest.mark.parametrize(
        "p_max, want",
        # mpmath at 50 digits on the same closed form's integral
        [(22360.6868, 0.33528651763260137), (22360.7136, 0.01698865100809349),
         (22360.73, 0.0007954608759120591)],
    )
    def test_packet_on_the_cutoff_at_the_cap(self, p_max, want):
        # at width 1e-12 and BETA_CAP a cutoff just past gamma beta m puts the
        # boosted packet on the edge; gamma (beta E_P - P) then cancels from
        # 2.2e4 down to a few sqrt(delta), and taken as written it errs by 4-13%
        got = leaked_mass(GaussianProduct(1e-12), Boost(BETA_CAP), p_max)
        assert abs(got / want - 1.0) <= 1e-8

    def test_same_verdict_as_mask_quadrature(self):
        # every golden and seed-0 benchmark cell passes the check under both,
        # and with the cutoff fixed at beta = 0 both fail from the same speeds
        # on (the mask quadrature errs by a few percent, so cells within 20% of
        # the threshold may differ; none of these is)
        cases = 0
        for delta, betas, p_max in _leak_cases():
            dist, b = GaussianProduct(delta), Boost(betas)
            for cutoff in (p_max, default_p_max(delta)):
                exact, mask = leaked_mass(dist, b, cutoff), leaked_mass_mask(dist, b, cutoff)
                assert np.all(np.abs(exact / 1e-4 - 1.0) > 0.2)
                assert np.array_equal(exact > 1e-4, mask > 1e-4)
            assert not np.any(leaked_mass(dist, b, p_max) > 1e-4)
            cases += 1
        assert cases == 11  # 5 golden and 6 benchmark sweeps of one width


class TestBellABCD:
    def test_no_boost(self, grid_default, gauss_unit):
        v = bell_ABCD(gauss_unit, Boost(0.0), grid_default)
        assert v.A == pytest.approx(1.0, abs=1e-9)
        for x in (v.B, v.C, v.D, v.eta):
            assert abs(x) < 1e-9

    def test_analytic_limit_values(self, grid_default, gauss_unit):
        # Omega = theta gives s2 = 1/2 exactly: the light-speed table, bit for bit, and the
        # oracle's lattice quadrature of cos^2(theta/2), an independent statement of it
        v = bell_weights(0.5)
        assert tuple(v) == (0.375, 0.25, 0.125, 0.25, 1.0)
        ref = bell_ABCD_hypot(gauss_unit, Boost(0.0), grid_default, analytic_limit=True)
        for got, want in zip(v, ref):
            assert abs(got - want) <= 1e-15

    def test_analytic_limit_is_closed_form(self):
        # the weights broadcast over an array of s2, as bell_ABCD's (width, beta) cells
        v = bell_weights(np.full((3, 21), 0.5))
        for name, want in zip(ABCDValues._fields, (0.375, 0.25, 0.125, 0.25, 1.0)):
            got = getattr(v, name)
            assert got.shape == (3, 21)
            assert np.all(got == want), name

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

    def test_per_speed_grid_equals_single_speed_calls(self, gauss_unit):
        # the norm is checked on each lattice, not on the sum of all three
        betas = [0.0, 0.5, 0.9]
        cutoffs = default_p_max(1.0, np.array(betas))
        v = bell_ABCD(gauss_unit, Boost(np.array(betas)), build_grid(32, 32, cutoffs))
        for i, (beta, cut) in enumerate(zip(betas, cutoffs)):
            single = bell_ABCD(gauss_unit, Boost(beta), build_grid(32, 32, cut))
            for got, want in zip(v, single):
                assert got[i] == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_norm_error_reports_worst_lattice(self, gauss_unit):
        # the second and third lattices both fail; the third fails worse
        grid = build_grid(32, 32, [default_p_max(1.0), 2.0, 1.5])
        with pytest.raises(GridCoverageError, match=r"norm on the grid is 0\.787710;"):
            bell_ABCD(gauss_unit, Boost(np.array([0.0, 0.5, 0.9])), grid)

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
        direct = reduced_spin_density_3d(gauss_unit, b, azimuth_grid(32, 32, default_p_max(1.0)),
                                         bell_phi_plus())
        assert np.max(np.abs(bell_density_from_ABCD(v) - direct)) < 1e-6


class TestBellDensityAndPT:
    def test_pure_bell_from_unit_A(self):
        rho = bell_density_from_ABCD(ABCDValues(1.0, 0.0, 0.0, 0.0, 0.0))
        assert np.allclose(rho, np.outer(bell_phi_plus(), bell_phi_plus().conj()), atol=0)

    def test_analytic_limit_matrix_structure(self):
        v = bell_weights(0.5)
        rho = bell_density_from_ABCD(v)
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
        spectrum = bell_pt_spectrum(v)
        assert np.max(np.abs(eig - spectrum)) < 1e-10
        # unit trace makes the spectrum the weights' complements (1 - 2x)/2
        assert np.max(np.abs(spectrum - np.sort([(1 - 2 * x) / 2 for x in (A, B, C, D)]))) < 1e-10


def measure(rho):
    """Doubled negativity of an X-state density through the closed-form spectrum."""
    return negativity_measure(xstate_pt_spectrum(*xstate_entries(rho))[0])


class TestEntanglementMeasure:
    def test_bell_is_maximal(self):
        rho = np.outer(bell_phi_plus(), bell_phi_plus().conj())
        assert measure(rho) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_limit_is_zero(self):
        v = bell_weights(0.5)
        assert negativity_measure(bell_pt_spectrum(v)) == 0.0
        assert measure(bell_density_from_ABCD(v)) == 0.0

    def test_maximally_mixed_is_zero(self):
        assert measure(np.eye(4) / 4.0) == 0.0


def assert_matches_eigensolve(diag, rho03, rho12, atol):
    """The closed form against the eigensolve of the X-state's partial transpose.

    Returns the closed-form spectrum and the X-state density.
    """
    spectrum, margin_corner, margin_middle = xstate_pt_spectrum(diag, rho03, rho12)
    rho = xstate_density(diag, rho03, rho12)
    pt = partial_transpose(rho)
    assert np.max(np.abs(spectrum - np.linalg.eigvalsh(pt))) <= atol
    # each margin is the negated determinant of its 2x2 block of the transpose,
    # written out: LAPACK's LU determinant warns of a division by zero on
    # blocks of subnormal entries (hypothesis drew a coherence of 1.1e-311)
    for margin, block in ((margin_corner, [1, 2]), (margin_middle, [0, 3])):
        m = pt[..., block, :][..., :, block]
        det = (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).real
        assert np.max(np.abs(margin + det)) <= atol
    return spectrum, rho


def assert_negativity_within_concurrence(spectrum, rho, atol):
    """N <= C for two qubits (Verstraete et al., J. Phys. A 34, 10327 (2001))."""
    N, C = negativity_measure(spectrum), xstate_concurrence(rho)
    assert np.all(N <= C + atol), np.max(N - C)
    return N, C


@st.composite
def xstates(draw):
    """PSD, unit-trace X-states with complex coherences, as (diag, rho03, rho12)."""
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    diag = raw / raw.sum() if raw.sum() > 0 else np.full(4, 0.25)
    # |rho03| <= sqrt(rho00 rho33) and |rho12| <= sqrt(rho11 rho22) keep it PSD
    r03, r12 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    t03, t12 = draw(st.floats(0.0, 2 * np.pi)), draw(st.floats(0.0, 2 * np.pi))
    rho03 = r03 * np.sqrt(diag[0] * diag[3]) * np.exp(1j * t03)
    rho12 = r12 * np.sqrt(diag[1] * diag[2]) * np.exp(1j * t12)
    return diag, rho03, rho12


class TestXStatePTSpectrum:
    """The closed form against the partial-transpose eigensolve oracle."""

    @pytest.mark.parametrize(
        "name", ["spin_bell_momentum_product", "run_default_sweep", "momentum_bell_spin_up"]
    )
    def test_matches_eigensolve_on_golden_cells(self, monkeypatch, name):
        # every spectrum a golden spin sweep computes, with the concurrence on
        # the same cells
        seen = []

        def recording(diag, rho03, rho12):
            seen.append((diag, rho03, rho12))
            return xstate_pt_spectrum(diag, rho03, rho12)

        # the Bell weights' spectrum goes through ``entanglement``'s binding, the X-state's ``cli``'s
        for module in (cli, entanglement):
            monkeypatch.setattr(module, "xstate_pt_spectrum", recording)
        config = parse_config(GOLDEN[name])
        rows = run(config)
        # a golden sweep's widths fit in one chunk: one spectrum call per sweep
        assert len(seen) == 1
        n_cells = 0
        for args in seen:
            spectrum, rho = assert_matches_eigensolve(*args, atol=1e-14)
            N, C = assert_negativity_within_concurrence(spectrum, rho, atol=1e-14)
            assert np.array_equal(N == 0.0, C == 0.0)
            n_cells += N.size
        assert n_cells == len(rows)

    @given(x=xstates())
    @settings(max_examples=300, deadline=None)
    def test_matches_eigensolve_on_random_xstates(self, x):
        spectrum, rho = assert_matches_eigensolve(*x, atol=1e-14)
        assert_negativity_within_concurrence(spectrum, rho, atol=1e-14)

    def test_order_is_np_sort_bit_for_bit(self):
        # the min/max merge of the blocks' (lo, hi) pairs against np.sort of the four
        # eigenvalues, on finite X-states, every other one drawn from quarters so that
        # eigenvalues tie within and across the blocks
        rng = np.random.default_rng(2024)
        n = 4096
        diag = rng.uniform(-1.0, 1.0, (n, 4))
        coherences = rng.uniform(0.0, 1.0, (n, 2)) * np.exp(2j * np.pi * rng.uniform(size=(n, 2)))
        quarters = rng.integers(0, 4, (n, 6)) / 4.0
        diag[::2], coherences[::2] = quarters[::2, :4], quarters[::2, 4:]
        rho03, rho12 = coherences.T
        eigenvalues = []
        for x, y, c in ((diag[:, 0], diag[:, 3], rho12), (diag[:, 1], diag[:, 2], rho03)):
            mean, radius = (x + y) / 2.0, np.hypot((x - y) / 2.0, np.abs(c))
            eigenvalues += [mean - radius, mean + radius]
        want = np.sort(np.stack(eigenvalues, axis=-1), axis=-1)
        assert np.sum(want[:, 1:] == want[:, :-1]) > n // 16  # ties are drawn
        spectrum = xstate_pt_spectrum(diag, rho03, rho12)[0]
        assert np.array_equal(spectrum.view(np.uint64), want.view(np.uint64))



class TestMeasureSweep:
    """The Bell-spin, product-momentum sweep through its evaluator, ``cli.run``."""

    def test_single_zero_beta(self):
        rows = run(parse_config({"betas": [0.0]}))
        assert rows[0].E == pytest.approx(1.0, abs=1e-9)
        assert rows[0].fidelity == pytest.approx(1.0, abs=1e-9)

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigError, match="ascending"):
            parse_config({"betas": [0.5, 0.1]})

    @pytest.mark.parametrize("delta", [0.5, 1.0, 4.0])
    def test_measure_monotone_fidelity_below_one(self, delta):
        # default betas and 32x32x16 grids; the fidelity's cutoff has headroom for each beta
        rows = run(parse_config({"delta": [delta]}))
        E = [r.E for r in rows]
        assert all(e2 <= e1 + 1e-6 for e1, e2 in zip(E, E[1:]))
        assert all(r.fidelity < 1.0 - 1e-6 for r in rows if r.beta >= 0.1)
        eta = [r.eta for r in rows]
        assert all(x2 >= x1 - 1e-9 for x1, x2 in zip(eta, eta[1:]))


#: relative gaps of ``fidelity`` to F_inf and absolute gaps of s2 = eta/2 to s2_inf on a
#: 256 x 256 rule at widths 1e4, 1e8, 1e12, by beta: measured 2.3499e-3, 2.4100e-5, 2.4106e-7
#: and 1.3102e-1, 1.2890e-3, 1.2888e-5 (F); -1.0312e-3, -1.0485e-5, -1.0487e-7 and
#: -6.9887e-3, -7.0155e-5, -7.0157e-7 (s2), as on a 1,024 x 1,024 rule to the digits shown
MASSLESS_GAPS = {
    0.5: ((2.35e-3, 2.42e-5, 2.42e-7), (1.04e-3, 1.05e-5, 1.05e-7)),
    0.99: ((1.32e-1, 1.29e-3, 1.29e-5), (6.99e-3, 7.02e-5, 7.02e-7)),
}
#: delta times the remainders of the two-term massless forms, F/F_inf - 1 - c_F/sqrt(delta) and
#: s2 - s2_inf - c_s2/sqrt(delta) (``massless_corrections``: c_F 0.24106 and 12.888, c_s2 -0.10487
#: and -0.70157), on a 1,024 x 1,024 rule at widths 1e8 and 1e12, by beta: measured -0.6181,
#: -0.6161 and 23.111, 23.108 (F); 0.18010, 0.18019 and 0.19380, 0.19201 (s2)
MASSLESS_REMAINDERS = {0.5: (0.62, 0.181), 0.99: (23.2, 0.194)}
#: sqrt(delta) times the largest entry gap of ``reduced_spin_density`` (32 radial nodes) to
#: rho_inf at widths 1e8 and 1e12: measured 0.6544 at most (Phi+, q = -p, beta 0.99), and the
#: two widths' scaled gaps within 0.44% of each other for every spin, sign and beta > 0
MASSLESS_RHO_GAP = 0.655
#: relative gaps of ``fidelity`` and of s2 to their small-width leading terms at beta 0.5 and
#: widths 1e-2, 1e-3 (F, on a 256 x 256 rule; below, F underflows) and 1e-2, 1e-3, 1e-4 (s2):
#: measured -9.4993e-4, -9.6571e-5 and -1.2322e-2, -1.2562e-3, -1.2587e-4
SMALL_WIDTH_GAPS = ((9.50e-4, 9.66e-5), (1.24e-2, 1.26e-3, 1.26e-4))


def _falls_as(gaps, rate):
    """Whether each gap is ``rate`` times the one before, within 3%."""
    return all(abs(b / a / rate - 1.0) <= 0.03 for a, b in zip(gaps, gaps[1:]))


class TestWidthLimits:
    """The kernels against the leading-order forms at both ends of the width range.

    As delta -> inf every Wigner angle tends to its massless value (t -> tau) and the gaps
    fall as 1/sqrt(delta), 100 times per factor 1e4, and after the first correction as
    1/delta; as delta -> 0 they fall as delta.
    """

    def test_massless_fidelity_is_one_at_rest(self):
        assert fidelity_massless(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_massless_bell_weight_tends_to_the_light_speed_table(self):
        # s2 = 1/2 is `relent limits`' (3/8, 1/4, 1/8, 1/4); measured 2.24e-5 short at the cap
        assert 0.0 < 0.5 - bell_s2_massless(BETA_CAP) <= 2.3e-5

    @pytest.mark.parametrize("beta", sorted(MASSLESS_GAPS))
    def test_massless_end(self, beta):
        widths = np.array([[1e4], [1e8], [1e12]])
        gp, b = GaussianProduct(widths), Boost(np.array([beta]))
        grid = build_grid(256, 256, default_p_max(widths))
        f_gap = (fidelity(gp, b, grid) / fidelity_massless(beta) - 1.0)[:, 0]
        s2_gap = (bell_ABCD(gp, b, grid).eta / 2.0 - bell_s2_massless(beta))[:, 0]
        for gaps, bounds in zip((f_gap, -s2_gap), MASSLESS_GAPS[beta]):
            assert np.all((0.0 < gaps) & (gaps <= bounds)), gaps
            assert _falls_as(gaps, 1e-2), gaps

    @pytest.mark.parametrize("beta", sorted(MASSLESS_REMAINDERS))
    def test_first_massless_correction(self, beta):
        # the two-term forms leave a remainder that falls as 1/delta, 1e-4 times per factor 1e4
        widths = np.array([[1e8], [1e12]])
        gp, b = GaussianProduct(widths), Boost(np.array([beta]))
        grid = build_grid(1024, 1024, default_p_max(widths))
        root, (c_f, c_s2) = np.sqrt(widths[:, 0]), massless_corrections(beta)
        f_rem = (fidelity(gp, b, grid) / fidelity_massless(beta) - 1.0)[:, 0] - c_f / root
        s2_rem = (bell_ABCD(gp, b, grid).eta / 2.0 - bell_s2_massless(beta))[:, 0] - c_s2 / root
        for rem, bound in zip((f_rem, s2_rem), MASSLESS_REMAINDERS[beta]):
            assert np.all(np.abs(rem * widths[:, 0]) <= bound), rem * widths[:, 0]
            assert _falls_as(rem, 1e-4), rem

    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("spin", [bell_phi_plus(), spin_up_up(),
                                      np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)],
                             ids=["bell", "up_up", "generic"])
    def test_massless_spin_density(self, spin, sign):
        # rho -> rho_inf exactly at rest and as 1/sqrt(delta) under a boost
        widths = np.array([[1e8], [1e12]])
        betas = np.array([0.0, 0.5, 0.9, 0.99, 0.9999, BETA_CAP])
        rho = reduced_spin_density(EntangledMomentum(widths, sign), Boost(betas),
                                   build_grid(32, 32, default_p_max(widths)), spin)
        gaps = np.max(np.abs(rho - reduced_spin_density_massless(spin, betas, sign)), axis=(-2, -1))
        assert np.all(gaps[:, 0] <= 2e-16), gaps
        scaled = gaps[:, 1:] * np.sqrt(widths)
        assert np.all(scaled <= MASSLESS_RHO_GAP), scaled
        assert np.all(np.abs(scaled[1] / scaled[0] - 1.0) <= 5e-3), scaled

    def test_small_width_end(self):
        widths, beta = np.array([[1e-2], [1e-3], [1e-4]]), 0.5
        gp, b = GaussianProduct(widths), Boost(np.array([beta]))
        grid = build_grid(256, 256, default_p_max(widths))
        f_gap = 1.0 - (fidelity(gp, b, grid)[:2] / fidelity_small_width(widths[:2], beta))[:, 0]
        s2 = bell_ABCD(gp, b, grid).eta / 2.0
        s2_gap = 1.0 - (s2 / bell_s2_small_width(widths, beta))[:, 0]
        for gaps, bounds in zip((f_gap, s2_gap), SMALL_WIDTH_GAPS):
            assert np.all((0.0 < gaps) & (gaps <= bounds)), gaps
            assert _falls_as(gaps, 0.1), gaps
