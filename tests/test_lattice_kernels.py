"""The in-place lattice kernels against the (den, num) / hypot forms they replaced.

``fidelity``, ``bell_ABCD`` and ``momentum_density_samples`` take the Wigner
angle from t = tanh(a/2) tanh(d/2), and the first two build their (beta, p,
cos(theta)) arrays in place and contract them with the separable quadrature
weights; ``reduced_spin_density`` integrates cos(theta) in closed form.
``oracles`` keeps the earlier forms, which evaluated the half-angle through
``np.hypot`` and held every lattice product as its own temporary (the
spin-density one on graded polar panels, the fidelity one in extended
precision).  Both must give the same numbers and raise the same errors, and
the new forms must hold no more lattice arrays at once than stated.
"""

import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bell_ABCD_hypot,
    cartesian_pairs,
    fidelity_hypot,
    momentum_density_samples_cartesian,
    momentum_density_samples_hypot,
    reduced_spin_density_hypot,
)
import relent.entanglement as entanglement
from relent.cli import _DEFAULT_BETAS
from relent.entanglement import bell_ABCD, fidelity
from relent.kinematics import BETA_CAP, Boost
from relent.relstate import (
    BipartiteState,
    bell_phi_plus,
    default_sample_pairs,
    momentum_density_samples,
    reduced_spin_density,
    spin_up_up,
)
from relent.wavepacket import EntangledMomentum, GaussianProduct, build_grid, default_p_max

SPINS = (spin_up_up(), bell_phi_plus(), np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex))

#: a collinear row and a p = 0 row, which both rotate by the identity
EDGE_ROWS = np.array([
    [[0.7, 0.0, 0.0], [-1.2, 0.0, 0.0], [0.3, 0.0, 0.0], [2.0, 0.0, 0.0]],
    np.zeros((4, 3)),
])


@st.composite
def cases(draw):
    """Width, speeds, spin, sign and (n_r, n_theta, p_max) of one kernel call.

    The cutoff is the auto policy's or a fixed multiple of the width's scale;
    a small one makes the lab-frame kernels' coverage checks raise.  The
    fidelity scales the grid's radial rule to each cell's policy cutoff.
    """
    delta = 10.0 ** draw(st.floats(-12.0, 12.0))
    speed = st.one_of(st.floats(0.0, BETA_CAP), st.sampled_from([0.0, 0.99, BETA_CAP]))
    betas = np.array(sorted(draw(st.lists(speed, min_size=1, max_size=4))))
    spin = SPINS[draw(st.integers(0, 2))]
    sign = draw(st.sampled_from([-1, 1]))
    n_r, n_theta = draw(st.integers(2, 40)), draw(st.integers(2, 41))
    scale = draw(st.one_of(st.none(), st.floats(2.0, 12.0)))
    return delta, betas, spin, sign, n_r, n_theta, scale


class _Raised(NamedTuple):
    kind: type
    message: str


def _outcome(fn, *args):
    """The kernel's result, or the type and message of what it raised.

    Numbers in the message are masked: they are printed to a few digits from
    values that agree only to rounding.
    """
    try:
        return fn(*args)
    except Exception as exc:
        return _Raised(type(exc), re.sub(r"\d[\d.e+-]*", "#", str(exc)))


def _same_error(got, want):
    """Whether either call raised; if one did, both raised the same."""
    if isinstance(got, _Raised) or isinstance(want, _Raised):
        assert got == want
        return True
    return False


@given(case=cases())
@settings(max_examples=120, deadline=None)
def test_kernels_match_hypot_forms(case):
    delta, betas, spin, sign, n_r, n_theta, scale = case
    b = Boost(betas)
    root = np.sqrt(delta)
    cut = default_p_max(delta) if scale is None else scale * root
    grid = build_grid(n_r, n_theta, cut)
    gp = GaussianProduct(delta)

    got, want = _outcome(fidelity, gp, b, grid), _outcome(fidelity_hypot, gp, b, grid)
    if not _same_error(got, want):
        f, f_ref = np.asarray(got), np.asarray(want)
        assert np.all(np.abs(f - f_ref) <= 1e-12 * f_ref + 1e-300)

    got, want = _outcome(bell_ABCD, gp, b, grid), _outcome(bell_ABCD_hypot, gp, b, grid)
    if not _same_error(got, want):
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-13

    pair_state = BipartiteState(EntangledMomentum(delta, sign), spin)
    got = _outcome(reduced_spin_density, pair_state, b, grid)
    want = _outcome(reduced_spin_density_hypot, pair_state, b, grid)
    if not _same_error(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13

    # the library's sampler on its own draw, and the Cartesian reference on a collinear and a
    # p = 0 row, which rotate by exactly the identity
    state, edge = BipartiteState(gp, spin), root * EDGE_ROWS
    radii, directions = default_sample_pairs(gp, n=9, seed=n_r)
    for kernel, args, pairs in (
        (momentum_density_samples, (radii, directions), cartesian_pairs(radii, directions)[0]),
        (momentum_density_samples_cartesian, (edge,), edge),
    ):
        got = _outcome(kernel, state, b, *args)
        want = _outcome(momentum_density_samples_hypot, state, b, pairs)
        if not _same_error(got, want):
            for x, x_ref in zip(got, want):
                x = np.reshape(x, x_ref.shape)
                scale_ref = np.max(np.abs(x_ref), axis=-1, keepdims=True)
                assert np.all(np.abs(x - x_ref) <= 1e-12 * scale_ref)
            assert kernel is momentum_density_samples or np.all(got[0].imag == 0.0)


#: bytes of one (beta, p, cos(theta)) array at 64 x 64 nodes and the 21 default betas
LATTICE = len(_DEFAULT_BETAS) * 64 * 64 * 8


def _peak_bytes(fn, *args):
    """Peak traced memory of one warm call, in bytes."""
    fn(*args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _peak_lattices(fn, *args):
    """Peak traced memory of one warm call, in lattice arrays."""
    return _peak_bytes(fn, *args) / LATTICE


def _lattices_per_polar_node(call):
    """How many (beta, p, cos(theta)) arrays the peak holds: its growth from 64 to 128 polar nodes.

    ``call(n_theta)`` gives the function and its arguments.  Arrays without a
    cos(theta) axis do not grow with n_theta, so this counts the lattice arrays
    alone, whatever the (beta, p) vectors beside them.
    """
    return (_peak_bytes(*call(128)) - _peak_bytes(*call(64))) / LATTICE


def _lattice_call(kernel, delta, betas, n):
    """``kernel``, as the sweep calls it, and its arguments on an n x n grid."""
    grid = build_grid(n, n, default_p_max(delta))
    return kernel, GaussianProduct(delta), Boost(np.asarray(betas)), grid


class TestLatticeMemory:
    """Peak memory of one call on the sweep's grids, in (beta, p, cos(theta)) arrays.

    ``fidelity`` builds its integrand in two lattice buffers and ``bell_ABCD``
    1/(1 + tau cos(theta)) in one (the polar weights carry sin^2(theta) and
    t^2/(1 + t^2) scales the polar sums), each contracted with the polar
    weights by an ``einsum`` over cos(theta).  Both treat the lattice as a
    (cell, cos(theta)) matrix, the cells the flattened (width, beta, p) rows,
    and fill it in tiles of at most ``_TILE_NODES`` nodes in buffers reused
    across tiles, so the buffers no longer grow with the lattice: only the
    (width, beta, p) cell arrays do.  Filling one width's lattice at a time,
    they held two and one lattice arrays per polar node and peaked at 21.4 and
    10.8 MiB at 256 x 256 with 21 betas; with every width's lattice at once,
    6.0 and 3.0 arrays on the sweep's three-width call.  ``fidelity`` also
    builds its own radial rule, one per (width, beta) cell, and frees the cell
    arrays its tiles do not read, so it grows by 6.0 to 6.4 cell arrays from
    21 to 84 betas and from 64 to 256 nodes (6.0 to 7.4 when the caller built
    the rule, 7.0 on three widths when ``_tiled`` copied its per-width scale to
    a whole cell array; it now copies each input's rows one tile at a time).
    ``reduced_spin_density`` integrates cos(theta) in closed form and
    ``build_grid`` keeps the radial and polar weights apart, so neither holds a
    lattice.

    ``momentum_density_samples`` holds no lattice; its unit is a (width, speed,
    slot, pair) array, the size of one half-angle array of the sweep's call.
    Its quaternion contraction with stacked ``einsum`` operands and complex
    temporaries peaked at 14.2 such arrays; the real contraction over the
    nonzero entries of T, with the half-angles freed before it, at 5.6; the
    same-axis kernel on the pairs as drawn, with no Cartesian components and
    three quaternion parts per particle, at 4.3.
    """

    b = Boost(np.array(_DEFAULT_BETAS))
    #: the spin_bell_momentum_product sweep's widths, one call for all three
    widths = np.array([[0.5], [1.0], [4.0]])

    def test_fidelity(self):
        # one width, then the sweep's call for three widths, whose (width, beta, p)
        # arrays, the radial rule that fidelity builds for each cell among them, add to the peak
        for delta, most in ((1.0, 0.75), (self.widths, 1.0)):
            def call(n_theta):
                grid = build_grid(64, n_theta, default_p_max(delta))
                return fidelity, GaussianProduct(delta), self.b, grid
            assert _lattices_per_polar_node(call) <= 0.01
            assert _peak_lattices(*call(64)) <= most

    def test_bell_ABCD(self):
        for delta, most in ((1.0, 0.6), (self.widths, 0.75)):
            def call(n_theta):
                grid = build_grid(64, n_theta, default_p_max(delta))
                return bell_ABCD, GaussianProduct(delta), self.b, grid
            assert _lattices_per_polar_node(call) <= 0.01
            assert _peak_lattices(*call(64)) <= most

    @pytest.mark.parametrize("kernel, cell_arrays", [(fidelity, 6.5), (bell_ABCD, 6.5)])
    @pytest.mark.parametrize("delta", [1.0, widths], ids=["one_width", "three_widths"])
    def test_peak_grows_only_with_the_cells(self, kernel, cell_arrays, delta):
        # from 21 betas on 64 x 64 nodes, where each width's lattice already fills
        # several tiles, to 84 betas and to 256 x 256 nodes: the peak grows by at
        # most ``cell_arrays`` (width, beta, p) arrays, and by no lattice array
        def cell_bytes(betas, n):
            return np.size(delta) * len(betas) * n * 8

        betas_84 = np.linspace(0.0, 0.99, 84)
        base = _peak_bytes(*_lattice_call(kernel, delta, _DEFAULT_BETAS, 64))
        for betas, n in ((betas_84, 64), (_DEFAULT_BETAS, 256), (betas_84, 256)):
            grown = _peak_bytes(*_lattice_call(kernel, delta, betas, n)) - base
            assert grown <= cell_arrays * (cell_bytes(betas, n) - cell_bytes(_DEFAULT_BETAS, 64))

    @pytest.mark.parametrize("kernel", [fidelity, bell_ABCD])
    def test_peak_at_256_squared_nodes(self, kernel):
        # 21.4 MiB (fidelity) and 10.8 MiB (bell_ABCD) with one width's lattice in buffers
        assert _peak_bytes(*_lattice_call(kernel, 1.0, _DEFAULT_BETAS, 256)) <= 2**20

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_reduced_spin_density(self, sign):
        state = BipartiteState(EntangledMomentum(1.0, sign), spin_up_up())

        def call(n_theta):
            return reduced_spin_density, state, self.b, build_grid(64, n_theta, default_p_max(1.0))
        assert _lattices_per_polar_node(call) <= 0.01
        assert _peak_lattices(*call(64)) <= 0.75

    def test_momentum_density_samples(self):
        # the spin_bell_momentum_product sweep's call: 3 widths, the 21 betas, 64 pairs
        delta = np.array([[0.5], [1.0], [4.0]])
        gp = GaussianProduct(delta)
        call = (momentum_density_samples, BipartiteState(gp, bell_phi_plus()), self.b,
                *default_sample_pairs(gp, n=64, seed=42))
        # measured 4.28, with 0.22 of margin for allocator and numpy version noise
        assert _peak_bytes(*call) / (delta.size * len(_DEFAULT_BETAS) * 4 * 64 * 8) <= 4.5

    def test_build_grid(self):
        # one radial rule per speed, as fidelity builds its own
        def call(n_theta):
            return build_grid, 64, n_theta, default_p_max(1.0, self.b.beta)
        assert _lattices_per_polar_node(call) <= 0.01
        assert _peak_lattices(*call(64)) <= 0.1


def test_tile_size_leaves_the_bits_unchanged(monkeypatch):
    # 3 widths x 21 betas x 23 radial nodes are 1,449 rows of 17 polar nodes: one row
    # per tile, 5 rows (which divide no axis and leave a short last tile) and the
    # default (941 rows, two tiles) against the whole lattice in one tile
    widths = np.array([[0.5], [1.0], [4.0]])
    gp, b = GaussianProduct(widths), Boost(np.array(_DEFAULT_BETAS))
    grid = build_grid(23, 17, default_p_max(widths))

    def results():
        return [fidelity(gp, b, grid), np.array(bell_ABCD(gp, b, grid))]

    default = entanglement._TILE_NODES
    monkeypatch.setattr(entanglement, "_TILE_NODES", 10**9)
    whole = results()
    for nodes in (17, 5 * 17, default):
        monkeypatch.setattr(entanglement, "_TILE_NODES", nodes)
        assert all(np.array_equal(got, want) for got, want in zip(results(), whole))
