"""Relativistic spin observables and two-party correlations under boosts.

The normalised observable for a measurement direction ``a`` seen by an
observer moving with speed beta along x contracts the transverse part of
``a`` by 1/gamma and renormalises, so every direction with a longitudinal
component collapses onto the boost axis as beta -> 1; exactly transverse
directions keep no defined classical sign, which is the light-speed loss of
transverse information.
"""

from __future__ import annotations

import numpy as np

from relent.kinematics import Boost
from relent.relstate import BipartiteState, reduced_spin_density
from relent.wavepacket import EntangledMomentum, QuadratureGrid

__all__ = [
    "ObservableDirection",
    "relativistic_observable",
    "classical_correlation",
    "quantum_correlation",
]

#: the Pauli matrices (x, y, z)
_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

_E_BOOST = np.array([1.0, 0.0, 0.0])

#: from this speed on, a direction transverse to the boost axis has no defined correlation sign
TRANSVERSE_BETA_MAX = 1.0 - 1e-6


class ObservableDirection:
    """Unit measurement direction in the moving frame; the boost axis is +x."""

    def __init__(self, a_vec: np.ndarray):
        v = np.asarray(a_vec, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"direction must be a 3-vector, got shape {v.shape}")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")
        self.a_vec = v

    @property
    def longitudinal(self) -> float:
        return float(self.a_vec[0])


def relativistic_observable(direction: ObservableDirection, b: Boost) -> np.ndarray:
    """n.sigma, n the boost-contracted, renormalised direction; shape(b.beta) + (2, 2)."""
    a = direction.a_vec
    ax = a[0]
    beta = np.expand_dims(b.beta, -1)
    num = np.sqrt((1.0 - beta) * (1.0 + beta)) * (a - _E_BOOST * ax) + _E_BOOST * ax
    den = np.sqrt(1.0 + beta**2 * (ax**2 - 1.0))
    n = num / den
    return np.einsum("...i,ijk->...jk", n, _SIGMA)


def classical_correlation(a: ObservableDirection, b_dir: ObservableDirection) -> float:
    """Sign product of the longitudinal components, the light-speed correlation."""
    ax, bx = a.longitudinal, b_dir.longitudinal
    if ax == 0.0 or bx == 0.0:
        raise ValueError(
            "classical correlation undefined for directions transverse to the boost axis"
        )
    return float(np.sign(ax) * np.sign(bx))


def quantum_correlation(
    a: ObservableDirection,
    b_dir: ObservableDirection,
    dist: EntangledMomentum,
    spin: np.ndarray,
    b: Boost,
    grid: QuadratureGrid,
) -> np.ndarray:
    """Tr[rho (a_hat x b_hat)] for the boosted momentum-entangled Bell pair.

    Computed from first principles at any beta: the boosted reduced spin
    density contracted with the two normalised relativistic observables, one
    value per speed of ``b``.
    """
    if np.any(b.beta >= TRANSVERSE_BETA_MAX) and 0.0 in (a.longitudinal, b_dir.longitudinal):
        raise ValueError(
            "correlation sign degenerates for transverse directions at near-light boosts"
        )
    state = BipartiteState(dist=dist, spin=np.asarray(spin, dtype=complex))
    rho = reduced_spin_density(state, b, grid)
    op_a, op_b = relativistic_observable(a, b), relativistic_observable(b_dir, b)
    # Tr[rho (op_a x op_b)] with rho indexed (i k, j l) over (qubit A, qubit B)
    rho4 = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...ikjl,...ji,...lk->...", rho4, op_a, op_b).real
