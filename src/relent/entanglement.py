"""Entanglement fidelity, closed-form amplitude aggregates, and the partial-transpose spectrum.

Covers the three diagnostics applied to a boosted two-particle state:

* ``fidelity``: squared overlap between the state and its boosted image, for a
  product of Gaussian wavepackets (closed-form boosted arguments, no resampling).
* ``xstate_stats``: the delta-correlated-momentum, product-spin scenario,
  reduced to the diagonal and the two coherences of its X-state density.
* ``bell_ABCD``: the Bell-spin, product-momentum scenario, whose reduced density is
  fixed by four real weights, ``bell_weights`` of the mean s2 of sin^2(Omega/2).

Both reduced spin densities are X-states (nonzero only on the diagonal and
the anti-diagonal), and ``xstate_pt_spectrum`` gives the partial-transpose
spectrum and the two separability margins of either in closed form
(``bell_pt_spectrum`` takes the Bell weights).

A ``Boost`` with an array of speeds and a distribution with an array of widths (n_delta, 1)
are evaluated as one array program, results and spectra carrying their axes.  ``fidelity``
and ``bell_ABCD`` fill their (cell, cos(theta)) lattice, a row per (width, beta, p) cell,
in fixed-size tiles (``_tiled``); ``xstate_stats`` has closed-form polar moments.

The entanglement measure is doubled negativity, -2 sum(min(0, PT eigenvalue)),
normalised so a two-qubit maximally entangled state scores exactly 1.

Where both the boost speed and the momenta become ultra-relativistic, every Wigner angle
saturates at the polar angle theta and s2 = 1/2: ``bell_weights(0.5)`` is the light-speed
table (A = 3/8, B = D = 1/4, C = 1/8, eta = 1) in closed form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from relent.kinematics import Boost, lorentz_factor, wigner_tan_product
from relent.relstate import reduced_spin_density, spin_up_up
from relent.wavepacket import (
    EntangledMomentum, GaussianProduct, QuadratureGrid, build_grid, default_p_max, normalised,
)


class ABCDValues(NamedTuple):
    """Weights of the boosted Bell-state spin density, normalised to sum to 1, plus eta."""

    A: float
    B: float
    C: float
    D: float
    eta: float


def xstate_stats(dist: EntangledMomentum, b: Boost, grid: QuadratureGrid):
    """(diagonal (..., 4), rho03, rho12), the X-state entries of the up-up pair's spin density.

    The diagonal is <|a|^2> .. <|d|^2> of the rotated amplitudes (a, b, c, d), the
    coherences <a d*> and <b c*>; ``xstate_pt_spectrum`` takes the three as they are.
    """
    rho = reduced_spin_density(dist, b, grid, spin_up_up())
    return np.diagonal(rho, axis1=-2, axis2=-1).real, rho[..., 0, 3], rho[..., 1, 2]


def product_residual(diag) -> np.ndarray:
    """|<|a|^2><|d|^2> - <|b|^2><|c|^2>| as a fraction of the larger product, diag (..., 4).

    Zero only where the squared aggregates decouple: for q = -p that is the saturated
    profile Omega = theta, reached in the joint light-speed limit of boost and momenta.
    It is O(0.5) at width 1 for every boost and falls to 3e-7 at width 1e8 and the speed
    cap.  The partial-transpose margins, not this residual, decide separability.
    """
    lhs, rhs = diag[..., 0] * diag[..., 3], diag[..., 1] * diag[..., 2]
    return abs(lhs - rhs) / np.maximum(np.maximum(lhs, rhs), 1e-300)


#: most nodes in one lattice tile: each buffer stays under 2^14 nodes (128 KiB, glibc's
#: default mmap threshold), so it comes from heap that the import has already made resident
_TILE_NODES = 16_000


def _tiled(fill, n_buffers: int, weights, *cells: np.ndarray) -> np.ndarray:
    """The (cell, cos(theta)) lattice's sums with each of ``weights`` (n_theta,), one per cell.

    ``cells`` broadcast to one row each.  ``fill(*rows, *buffers)`` writes a tile of at most
    ``_TILE_NODES`` nodes into ``n_buffers`` reused workspaces and returns the one that an
    ``einsum`` over cos(theta) contracts (no BLAS): each node sees the same ufuncs and each
    row is summed in an order set by n_theta alone, so no bit depends on the tile.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in cells))
    cells = [np.broadcast_to(a, shape).flat for a in cells]  # a tile's rows copied, no more
    n_rows, n_theta = math.prod(shape), len(weights[0])
    step, sums = max(1, _TILE_NODES // n_theta), np.empty((len(weights), n_rows))
    buffers = [np.empty((min(step, n_rows), n_theta)) for _ in range(n_buffers)]
    for start in range(0, n_rows, step):
        rows = slice(start, start + step)
        lattice = fill(*(a[rows][:, None] for a in cells), *(b[:n_rows - start] for b in buffers))
        for total, w in zip(sums, weights):
            np.einsum("rk,k->r", lattice, w, out=total[rows])
    return sums.reshape((len(weights),) + shape)


def fidelity(dist: GaussianProduct, b: Boost, grid: QuadratureGrid) -> np.ndarray:
    """Squared overlap between a product-wavepacket state and its boosted image.

    The 6D overlap factorises into identical per-particle 2x2 moment matrices
    M = int dp sqrt((Lp)^0/p^0) f1(Lp) f1(p) D(Omega_p); the boosted argument
    is evaluated in closed form.  D = cos(Omega/2) + sin(Omega/2) J(phi) with J
    linear in (cos(phi), sin(phi)), whose azimuthal averages vanish, so M is the
    cos(Omega/2) moment m times the identity, the overlap is m^2 <Phi|Phi> =
    m^2 for any unit spin amplitude Phi, and the fidelity m^4, one per (width, speed) cell.

    Each cell takes ``grid``'s rules, the radial one on the cell's ``default_p_max(delta,
    beta)``, which leaves out at most 7.42e-7 of the boosted packet.

    The integrand comes from e = (Lp)^0 - 1 = e_back + gamma beta p (1 + cos(theta)), e_back
    its value at cos(theta) = -1, so no term of e is negative: |Lp|^2 = e (e + 2), and with
    C = ch(a/2) ch(d/2), S = sh(a/2) sh(d/2), C^2 + S^2 + 2 C S cos(theta) = (2 + e)/2 gives
    sqrt((Lp)^0/p^0) cos(Omega/2) = (1 + t cos(theta)) sqrt((gamma + 1)(p0 + 1)(1 + e) /
    (2 p0 (2 + e))), the last root built in two buffers on each tile of the lattice.
    """
    if not isinstance(dist, GaussianProduct):
        raise TypeError("fidelity requires a product momentum distribution")
    *_, p, ct, radial, polar_w = build_grid(grid.n_r, grid.n_theta,
                                            default_p_max(dist.delta, b.beta))
    beta, delta = b.beta[..., None, None], dist.nodes_delta
    gamma, p0 = lorentz_factor(beta), np.sqrt(1.0 + p * p)
    r = p / gamma
    back = gamma * (beta - r) * (beta + r) / (beta * p0 + p)  # (Lp)_x at cos(theta) = -1
    back *= back / (gamma * (1.0 + r * r) / (p0 + beta * p) + 1.0)
    radial = radial * np.exp(-0.5 / delta * (p * p))  # writable; the rule's is read-only
    radial *= np.sqrt((gamma + 1.0) * (p0 + 1.0) / (2.0 * p0))
    del r, p0  # the cell arrays the lattice's tiles do not read

    def fill(slope, back, scale, e, x):  # exp(-|Lp|^2 / (2 delta)) sqrt((1 + e)/(2 + e)) in x
        np.multiply(slope, 1.0 + ct, out=e)
        e += back
        np.add(e, 2.0, out=x)
        x *= e
        x *= scale
        np.exp(x, out=x)
        e += 2.0
        np.reciprocal(e, out=e)
        np.subtract(1.0, e, out=e)
        x *= np.sqrt(e, out=e)
        return x
    polar, m_ct = _tiled(fill, 2, (polar_w, polar_w * ct), gamma * beta * p, back, -0.5 / delta)
    del back
    m_ct *= wigner_tan_product(p, beta)
    polar += m_ct
    radial *= polar
    f = np.square(np.square(dist.norm * np.sum(radial, axis=(-2, -1))))
    if not np.all((-1e-9 <= f) & (f <= 1.0 + 1e-9)):
        i = np.argmax(np.maximum(-f, f - 1.0))  # the worst cell; argmax takes a NaN first
        cell = (float(np.broadcast_to(a, f.shape).flat[i]) for a in (f, b.beta, dist.delta))
        raise ValueError("fidelity out of [0, 1]: {} at beta {}, delta {}".format(*cell))
    return f


def bell_weights(s2) -> ABCDValues:
    """The Bell-spin weights for the mean s2 of sin^2(Omega/2), c2 = 1 - s2 its complement.

    The azimuthal cross terms are second-harmonic moments, sin^2(Omega/2) against cos(2 phi)
    and sin(2 phi), whose exact azimuthal averages vanish; with them A = c2^2 + s2^2/2,
    B = D = c2 s2 and C = s2^2/2, which sum to 1, and eta = 2 s2.
    """
    c2, C = 1.0 - s2, 0.5 * s2**2
    return ABCDValues(A=c2**2 + C, B=c2 * s2, C=C, D=c2 * s2, eta=2.0 * s2)


def bell_ABCD(dist: GaussianProduct, b: Boost, grid: QuadratureGrid) -> ABCDValues:
    """The four integrated weights of the Bell-spin, product-momentum scenario.

    Each weight is a polynomial (``bell_weights``) in s2, the quadrature of sin^2(Omega/2)
    against |f1|^2 for each particle separately.  sin^2(Omega/2) = t^2/(1 + t^2)
    sin^2(theta)/(1 + tau cos(theta)), tau = 2t/(1 + t^2): one buffer holds 1/(1 + tau
    cos(theta)) on a tile of the (cell, cos(theta)) lattice, the polar weights fold in
    sin^2(theta) and t^2/(1 + t^2) scales the polar sums.  s2 is divided by the norm of each
    radial rule once that passes its check (``normalised``), so the weights sum to 1.
    """
    if not isinstance(dist, GaussianProduct):
        raise TypeError("bell_ABCD requires a product momentum distribution")
    w = (grid.radial_weights * dist.density1(grid.p**2))[..., 0]
    ct, polar = grid.costheta, grid.polar_weights
    t = wigner_tan_product(grid.p, b.beta[..., None, None])
    t_sq = t * t

    def fill(tau, lattice):  # 1/(1 + tau cos(theta))
        np.multiply(tau, ct, out=lattice)
        lattice += 1.0
        return np.reciprocal(lattice, out=lattice)
    polar_sum = _tiled(fill, 1, (polar * (1.0 - ct * ct),), 2.0 * t / (1.0 + t_sq))[0]
    s2 = np.sum(w * (t_sq / (1.0 + t_sq) * polar_sum)[..., 0], axis=-1)
    return bell_weights(normalised(s2, np.sum(w, axis=-1) * np.sum(polar), "bell_ABCD"))


def xstate_pt_spectrum(diag, rho03, rho12):
    """Sorted partial-transpose spectrum (..., 4) and both separability margins of X-states.

    An X-state has the diagonal ``diag`` (..., 4) and the coherences rho03 and
    rho12.  Its partial transpose has a {0, 3} block carrying rho12 and a {1, 2}
    block carrying rho03, each with eigenvalues mean +- hypot(half the diagonal
    difference, |coherence|) (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)).
    The margins are the blocks' negated determinants, margin_corner = |rho03|^2 -
    rho11 rho22 and margin_middle = |rho12|^2 - rho00 rho33; a positive margin
    is a negative PT eigenvalue, i.e. entanglement (Peres, PRL 77, 1413 (1996)).
    Each block gives an ordered pair (lo, hi), and the two pairs merge by min and
    max: (min(lo1, lo2), min(m1, m2), max(m1, m2), max(hi1, hi2)) with m1 =
    max(lo1, lo2) and m2 = min(hi1, hi2), the order ``np.sort`` gives, with no sort.
    """
    d = np.moveaxis(np.asarray(diag, dtype=float), -1, 0)
    c03, c12 = np.abs(rho03), np.abs(rho12)
    eigenvalues = []
    for x, y, c in ((d[0], d[3], c12), (d[1], d[2], c03)):
        mean, radius = (x + y) / 2.0, np.hypot((x - y) / 2.0, c)
        eigenvalues += [mean - radius, mean + radius]
    lo1, hi1, lo2, hi2 = eigenvalues
    m1, m2 = np.maximum(lo1, lo2), np.minimum(hi1, hi2)
    spectrum = np.stack((np.minimum(lo1, lo2), np.minimum(m1, m2), np.maximum(m1, m2),
                         np.maximum(hi1, hi2)), axis=-1)
    return spectrum, c03**2 - d[1] * d[2], c12**2 - d[0] * d[3]


def bell_pt_spectrum(v) -> np.ndarray:
    """PT spectrum of the Bell-spin X-state that the four weights ``v.A`` to ``v.D`` fix."""
    outer, inner = (v.A + v.D) / 2, (v.B + v.C) / 2
    diag = np.stack([outer, inner, inner, outer], axis=-1)
    return xstate_pt_spectrum(diag, (v.A - v.D) / 2, -(v.B - v.C) / 2)[0]


def negativity_measure(pt_spectrum) -> np.ndarray:
    """Doubled negativity -2 sum(min(0, eigenvalue)) of partial-transpose spectra (last axis)."""
    return -2.0 * np.sum(np.minimum(pt_spectrum, 0.0), axis=-1) + 0.0
