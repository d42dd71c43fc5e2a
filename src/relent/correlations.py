"""Relativistic spin observables and two-party correlations under boosts.

The observable for a measurement direction ``a``, a unit 3-vector, seen by an
observer moving with speed beta along x is n.sigma, n being ``a`` with its
transverse part contracted by 1/gamma and renormalised, so every direction
with a longitudinal component collapses onto the boost axis as beta -> 1;
exactly transverse directions keep no defined classical sign, which is the
light-speed loss of transverse information.  Correlations use ``relstate``'s
quaternion unit pairs (``UNIT_PAIRS``): sigma_i x sigma_j = -E_i x E_j.
"""

from __future__ import annotations

import numpy as np

from relent.kinematics import Boost, lorentz_factor
from relent.relstate import UNIT_PAIRS, reduced_spin_density
from relent.wavepacket import EntangledMomentum, QuadratureGrid

#: from this speed on, a direction transverse to the boost axis has no defined correlation sign
TRANSVERSE_BETA_MAX = 1.0 - 1e-6


def _unit_direction(a) -> np.ndarray:
    """``a`` as a float 3-vector, once it has unit norm within 1e-12 (a NaN fails)."""
    v = np.asarray(a, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {v.shape}")
    if not abs(np.sqrt(np.sum(v * v)) - 1.0) <= 1e-12:  # a NaN fails
        raise ValueError("direction must be a unit vector")
    return v


def relativistic_observable(a, b: Boost) -> np.ndarray:
    """n, the unit direction of the observable n.sigma, shape(b.beta) + (3,): the direction
    ``a`` with its transverse part divided by gamma, over the norm sqrt(1 - beta^2 (1 - a_x^2))."""
    a, beta = _unit_direction(a), np.expand_dims(b.beta, -1)
    n = a / lorentz_factor(beta)
    n[..., 0] = a[0]  # only the transverse part contracts
    return n / np.sqrt(1.0 + beta**2 * (a[0] ** 2 - 1.0))


def classical_correlation(a, b_dir) -> float:
    """Sign product of the longitudinal components, the light-speed correlation."""
    ax, bx = _unit_direction(a)[0], _unit_direction(b_dir)[0]
    if ax == 0.0 or bx == 0.0:
        raise ValueError(
            "classical correlation undefined for directions transverse to the boost axis"
        )
    return float(np.sign(ax) * np.sign(bx))


def quantum_correlation(a, b_dir, dist: EntangledMomentum, b: Boost, grid: QuadratureGrid,
                        spin) -> np.ndarray:
    """Tr[rho (n_a.sigma x n_b.sigma)] for the boosted momentum-entangled pair.

    Computed from first principles at any beta: the boosted reduced spin
    density of ``dist`` and the spin amplitude ``spin`` contracted with the unit
    pairs E_i x E_j and the two observables' directions (``relativistic_observable``
    of the unit 3-vectors ``a`` and ``b_dir``), one value per speed of ``b``.
    """
    n_a, n_b = relativistic_observable(a, b), relativistic_observable(b_dir, b)
    if np.any(b.beta >= TRANSVERSE_BETA_MAX) and 0.0 in (a[0], b_dir[0]):
        raise ValueError(
            "correlation sign degenerates for transverse directions at near-light boosts"
        )
    rho = reduced_spin_density(dist, b, grid, spin)
    # sigma_i x sigma_j = -E_i x E_j; two einsums, as one of four operands buffers 190 KiB
    op = np.einsum("ijdc,...i,...j->...dc", UNIT_PAIRS[1:, 1:], n_a, n_b)
    return -np.einsum("...cd,...dc->...", rho, op).real + 0.0  # + 0.0 turns a -0 into 0
