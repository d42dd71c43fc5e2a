"""x-axis Lorentz boosts and spin-1/2 Wigner rotations, broadcast over momentum nodes.

Conventions (used throughout the package):

* c = 1, default particle mass m = 1; momenta are measured in units of m.
* The boost axis is +x.  Polar angle theta of a momentum is measured from
  the x axis, so ``p_vec = (p cos(theta), p sin(theta) cos(phi),
  p sin(theta) sin(phi))``.
* A boost with speed beta acts on momenta as ``(Lp)^0 = gamma (p^0 + beta p_x)``,
  ``(Lp)_x = gamma (p_x + beta p^0)``, transverse components unchanged.

The Wigner rotation of a massive spin-1/2 particle is defined group
theoretically: ``W = L(Lambda p)^-1 Lambda L(p)`` with L(k) the canonical
(rotation-free, symmetric) boost taking the rest momentum to k.  The spatial
block of W is an SO(3) rotation about the axis normal to the plane of the
boost axis and the momentum; ``wigner_half_angle`` gives its half-angle's cos/sin.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Boost",
    "wigner_angle",
    "wigner_half_angle",
    "wigner_matrix",
    "su2_matrix",
    "energy_ratio",
]

#: beta values above this are rejected; the light-speed physics is reached
#: through the analytic-limit evaluation mode instead of numerics at beta = 1.
BETA_CAP = 1.0 - 1e-9


class Boost:
    """A boost along +x with speed ratio beta in [0, 1 - 1e-9], or an array of such speeds."""

    def __init__(self, beta):
        speeds = np.asarray(beta)
        if not np.all((0.0 <= speeds) & (speeds <= BETA_CAP)):
            raise ValueError(f"beta must be in [0, {BETA_CAP}], got {beta}")
        self.beta = beta

    @property
    def gamma(self) -> float:
        return 1.0 / np.sqrt((1.0 - self.beta) * (1.0 + self.beta))

    def nodewise(self) -> "Boost":
        """The same speeds with two trailing unit axes, broadcasting over a 2D node array."""
        return Boost(np.reshape(self.beta, np.shape(self.beta) + (1, 1)))


def wigner_half_angle(p, costheta, beta, m=1.0, sintheta=None):
    """cos(Omega/2) and sin(Omega/2) of the Wigner angle at momentum p and polar angle theta.

    tan(Omega/2) = sh(a/2) sh(d/2) sin(theta)
                   / (ch(a/2) ch(d/2) + sh(a/2) sh(d/2) cos(theta))

    with a the boost rapidity and d the particle rapidity (ch d = p0/m); the
    denominator is positive, so (cos, sin) = (den, num) / hypot(num, den)
    exactly.  Broadcast over p, costheta and beta.  Pass ``sintheta`` when the
    transverse fraction is known exactly (near-collinear momenta lose half
    their digits through 1 - cos^2).
    """
    p = np.asarray(p, dtype=float)
    costheta = np.asarray(costheta, dtype=float)
    gamma_b = 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
    # half-rapidity hyperbolics via sinh(x/2) = sinh(x)/sqrt(2(cosh(x)+1)),
    # which keeps full precision down to zero speed/momentum
    cha = np.sqrt((gamma_b + 1.0) / 2.0)
    sha = gamma_b * beta / np.sqrt(2.0 * (gamma_b + 1.0))
    gamma_p = np.sqrt(1.0 + (p / m) ** 2)  # p0/m
    chd = np.sqrt((gamma_p + 1.0) / 2.0)
    shd = (p / m) / np.sqrt(2.0 * (gamma_p + 1.0))
    if sintheta is None:
        sintheta = np.sqrt(np.maximum(0.0, 1.0 - costheta**2))
    num = sha * shd * sintheta
    den = cha * chd + sha * shd * costheta
    norm = np.hypot(num, den)
    return den / norm, num / norm


def wigner_angle(p, costheta, beta, m=1.0, sintheta=None):
    """The Wigner angle Omega in [0, pi), twice the angle of ``wigner_half_angle``."""
    c, s = wigner_half_angle(p, costheta, beta, m, sintheta)
    return 2.0 * np.arctan2(s, c)


def su2_matrix(c, u, v) -> np.ndarray:
    """The SU(2) form [[c + iu, -v], [v, c - iu]], stacked over broadcast inputs.

    Linear in (c, u, v), so a quadrature of the matrix is this form applied to
    the quadratures of its three components.  Returns shape
    ``(2, 2) + broadcast(c, u, v).shape``.
    """
    c, u, v = np.broadcast_arrays(c, u, v)
    out = np.zeros((2, 2) + c.shape, dtype=complex)
    out.real[0, 0] = out.real[1, 1] = c
    out.imag[0, 0], out.imag[1, 1] = u, -u
    out.real[0, 1], out.real[1, 0] = -v, v
    return out


def wigner_matrix(omega, phi) -> np.ndarray:
    """Spin-1/2 representation of the Wigner rotation, broadcast over nodes.

    Equals exp(-i omega n.sigma / 2) for the axis n = (0, sin(phi), -cos(phi)),
    i.e. the rotation leaves the plane spanned by the boost axis and the
    momentum invariant.  Returns shape ``(2, 2) + broadcast(omega, phi).shape``:
    a 2x2 matrix for scalar input, and node axes last, so that each entry is a
    contiguous array.
    """
    s = np.sin(omega / 2.0)
    return su2_matrix(np.cos(omega / 2.0), s * np.cos(phi), s * np.sin(phi))


def energy_ratio(px, p0, b: Boost):
    """(Lambda p)^0 / p^0 of the x-axis boost, broadcast over px, the energy p0 and beta."""
    return b.gamma * (1.0 + b.beta * px / p0)
