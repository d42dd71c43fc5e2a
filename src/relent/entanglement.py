"""Entanglement fidelity, closed-form amplitude aggregates, and the partial-transpose spectrum.

Covers the three diagnostics applied to a boosted two-particle state:

* ``fidelity``: squared overlap between the state and its boosted image,
  for a product of Gaussian wavepackets (closed-form boosted arguments, no
  resampling).
* ``xstate_stats``: the delta-correlated-momentum, product-spin scenario,
  reduced to the diagonal and the two coherences of its X-state density.
* ``bell_ABCD``: the Bell-spin, product-momentum scenario, whose reduced
  density is fixed by four real weights.

Both reduced spin densities are X-states (nonzero only on the diagonal and
the anti-diagonal), and ``xstate_pt_spectrum`` gives the partial-transpose
spectrum and the two separability margins of either in closed form.

A ``Boost`` with an array of speeds, and a distribution with an array of
widths (n_delta, 1), are evaluated as one array program; results and spectra
carry the widths' and beta's axes.  ``fidelity`` and ``bell_ABCD`` contract a
(delta, beta, p, cos(theta)) lattice with the polar weights, then the radial
ones (``_polar_sum``); ``xstate_stats`` has closed-form polar moments.

The entanglement measure is doubled negativity, -2 sum(min(0, PT eigenvalue)),
normalised so a two-qubit maximally entangled state scores exactly 1.

``analytic_limit=True`` replaces every Wigner angle by the polar angle theta,
the saturation value reached when both the boost speed and the momenta become
ultra-relativistic; the light-speed benchmark table (A = 3/8, B = D = 1/4,
C = 1/8, eta = 1) is reproduced exactly in this mode.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from relent.kinematics import Boost, wigner_tan_product
from relent.relstate import BipartiteState, reduced_spin_density, spin_up_up
from relent.wavepacket import (
    EntangledMomentum, GaussianProduct, GridCoverageError, QuadratureGrid, default_p_max,
)

__all__ = [
    "ABCDValues",
    "xstate_stats",
    "product_residual",
    "fidelity",
    "bell_ABCD",
    "xstate_pt_spectrum",
    "negativity_measure",
]


class ABCDValues(NamedTuple):
    """Integrated weights of the boosted Bell-state spin density, plus eta."""

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
    if not isinstance(dist, EntangledMomentum):
        raise TypeError("xstate_stats requires a delta-correlated momentum distribution")
    rho = reduced_spin_density(BipartiteState(dist, spin_up_up()), b, grid)
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


def _polar_sum(lattice: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Contract a lattice's cos(theta) axis with ``weights`` (n_theta,), keeping it as length 1.

    A matrix-vector product: each row is its own dot product, unlike a
    matrix-matrix product, whose last bits change with the rows batched.
    """
    return (lattice.reshape(-1, lattice.shape[-1]) @ weights).reshape(lattice.shape[:-1] + (1,))


def fidelity(dist: GaussianProduct, b: Boost, grid: QuadratureGrid) -> np.ndarray:
    """Squared overlap between a product-wavepacket state and its boosted image.

    The 6D overlap factorises into identical per-particle 2x2 moment matrices
    M = int dp sqrt((Lp)^0/p^0) f1(Lp) f1(p) D(Omega_p); the boosted argument
    is evaluated in closed form.  D = cos(Omega/2) + sin(Omega/2) J(phi) with J
    linear in (cos(phi), sin(phi)), whose azimuthal averages vanish, so M is the
    cos(Omega/2) moment m times the identity, the overlap is m^2 <Phi|Phi> =
    m^2 for any unit spin amplitude Phi, and the fidelity m^4.  ``grid`` has one
    cutoff or one per (width, speed) cell, and the result one fidelity per cell.

    The integrand comes from e = (Lp)^0 - 1 = e_back + gamma beta p (1 + cos(theta)), e_back
    its value at cos(theta) = -1, so no term of e is negative: |Lp|^2 = e (e + 2), and with
    C = ch(a/2) ch(d/2), S = sh(a/2) sh(d/2), C^2 + S^2 + 2 C S cos(theta) = (2 + e)/2 gives
    sqrt((Lp)^0/p^0) cos(Omega/2) = (1 + t cos(theta)) sqrt((gamma + 1)(p0 + 1)(1 + e) /
    (2 p0 (2 + e))).

    Raises GridCoverageError where a cell's cutoff is below ``default_p_max``:
    p's boosted argument leaves a grid of radius P where gamma (E_p - beta p_x)
    > E_P, a set that shrinks as P grows, so no larger cutoff leaks more.
    """
    if not isinstance(dist, GaussianProduct):
        raise TypeError("fidelity requires a product momentum distribution")
    cutoff, policy = np.broadcast_arrays(grid.p_max, default_p_max(dist.delta, b.beta))
    if not np.all(cutoff >= policy):
        i = np.argmin(cutoff / policy)
        raise GridCoverageError(
            f"fidelity: boosted wavepacket leaks past p_max ({cutoff.flat[i]:.17g} is below "
            f"the auto cutoff {policy.flat[i]:.17g})"
        )

    # exp(-|Lp|^2 / (2 delta)) sqrt((1 + e)/(2 + e)) in two (delta, beta, p, cos(theta))
    # buffers, in place: the lattice temporaries set the sweep's peak memory
    nb, p, ct, delta = b.nodewise(), grid.p, grid.costheta, dist.nodes_delta
    beta, gamma, p0 = nb.beta, nb.gamma, np.sqrt(1.0 + p * p)
    r = p / gamma
    back = gamma * (beta - r) * (beta + r) / (beta * p0 + p)  # (Lp)_x at cos(theta) = -1
    back *= back / (gamma * (1.0 + r * r) / (p0 + beta * p) + 1.0)
    shape = np.broadcast_shapes(np.shape(delta), beta.shape, p.shape[:-1] + ct.shape)
    e, x = np.empty((2,) + shape)
    np.multiply(gamma * beta * p, 1.0 + ct, out=e)
    e += back
    np.add(e, 2.0, out=x)
    x *= e
    x *= -0.5 / delta
    np.exp(x, out=x)
    e += 2.0
    np.reciprocal(e, out=e)
    np.subtract(1.0, e, out=e)
    x *= np.sqrt(e, out=e)
    polar = _polar_sum(x, grid.polar_weights)
    polar += wigner_tan_product(p, beta) * _polar_sum(x, grid.polar_weights * ct)
    radial = grid.radial_weights * np.exp(-0.5 / delta * (p * p))
    radial = radial * np.sqrt((gamma + 1.0) * (p0 + 1.0) / (2.0 * p0))
    f = np.square(np.square(dist.norm * np.sum(radial * polar, axis=(-2, -1))))
    if not np.all((-1e-9 <= f) & (f <= 1.0 + 1e-9)):
        raise ValueError(f"fidelity out of [0, 1]: {f}")
    return f


def bell_ABCD(
    dist: GaussianProduct, b: Boost, grid: QuadratureGrid, analytic_limit: bool = False
) -> ABCDValues:
    """The four integrated weights of the Bell-spin, product-momentum scenario.

    Each weight is a quadrature of trigonometric Wigner-angle moments against
    |f1|^2 for each particle separately.  The azimuthal cross terms are
    second-harmonic moments, sin^2(Omega/2) against cos(2 phi) and
    sin(2 phi), whose exact azimuthal averages vanish; with them
    A = c2^2 + s2^2/2, B = D = c2 s2 and C = s2^2/2, with sin^2(Omega/2) =
    t^2 sin^2(theta) / (1 + t^2 + 2 t cos(theta)) in one lattice buffer that
    the polar weights contract; the norm is checked per radial rule.
    ``analytic_limit`` substitutes Omega := theta.
    """
    if not isinstance(dist, GaussianProduct):
        raise TypeError("bell_ABCD requires a product momentum distribution")
    w = (grid.radial_weights * dist.density1(grid.p**2))[..., 0]
    ct, polar = grid.costheta, grid.polar_weights
    norm = np.sum(w, axis=-1) * np.sum(polar)
    worst = np.ravel(norm)[np.argmax(np.abs(np.ravel(norm) - 1.0))]  # argmax takes a NaN first
    if not (abs(worst - 1.0) <= 1e-4):
        raise GridCoverageError(
            f"bell_ABCD: distribution norm on the grid is {worst:.6f}; grid coverage insufficient"
        )

    if analytic_limit:
        s2 = np.sum(w, axis=-1) * (polar @ (1.0 - ct)) / 2.0
        s2 = np.broadcast_to(s2, np.broadcast_shapes(np.shape(s2), np.shape(b.beta)))
    else:
        t = wigner_tan_product(grid.p, b.nodewise().beta)
        s2_node = 2.0 * t * ct
        s2_node += 1.0 + t * t
        np.reciprocal(s2_node, out=s2_node)
        s2_node *= t * t
        s2_node *= 1.0 - ct * ct
        s2 = np.sum(w * _polar_sum(s2_node, polar)[..., 0], axis=-1)
    c2, C = norm - s2, 0.5 * s2**2
    return ABCDValues(A=c2**2 + C, B=c2 * s2, C=C, D=c2 * s2, eta=2.0 * s2 / norm)


def xstate_pt_spectrum(diag, rho03, rho12):
    """Sorted partial-transpose spectrum (..., 4) and both separability margins of X-states.

    An X-state has the diagonal ``diag`` (..., 4) and the coherences rho03 and
    rho12.  Its partial transpose has a {0, 3} block carrying rho12 and a {1, 2}
    block carrying rho03, each with eigenvalues mean +- hypot(half the diagonal
    difference, |coherence|) (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)).
    The margins are the blocks' negated determinants, margin_corner = |rho03|^2 -
    rho11 rho22 and margin_middle = |rho12|^2 - rho00 rho33; a positive margin
    is a negative PT eigenvalue, i.e. entanglement (Peres, PRL 77, 1413 (1996)).
    """
    d = np.moveaxis(np.asarray(diag, dtype=float), -1, 0)
    c03, c12 = np.abs(rho03), np.abs(rho12)
    eigenvalues = []
    for x, y, c in ((d[0], d[3], c12), (d[1], d[2], c03)):
        mean, radius = (x + y) / 2.0, np.hypot((x - y) / 2.0, c)
        eigenvalues += [mean - radius, mean + radius]
    spectrum = np.sort(np.stack(eigenvalues, axis=-1), axis=-1)
    return spectrum, c03**2 - d[1] * d[2], c12**2 - d[0] * d[3]


def negativity_measure(pt_spectrum) -> np.ndarray:
    """Doubled negativity -2 sum(min(0, eigenvalue)) of partial-transpose spectra (last axis)."""
    return -2.0 * np.sum(np.minimum(pt_spectrum, 0.0), axis=-1) + 0.0
