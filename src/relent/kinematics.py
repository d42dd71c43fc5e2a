"""x-axis Lorentz boosts and spin-1/2 Wigner rotations, broadcast over momentum nodes.

Conventions (used throughout the package):

* c = 1 and m = 1 throughout: momenta are in units of m, p^0 = sqrt(1 + p^2).
* The boost axis is +x.  Polar angle theta of a momentum is measured from
  the x axis, so ``p_vec = (p cos(theta), p sin(theta) cos(phi),
  p sin(theta) sin(phi))``.
* A boost with speed beta acts on momenta as ``(Lp)^0 = gamma (p^0 + beta p_x)``,
  ``(Lp)_x = gamma (p_x + beta p^0)``, transverse components unchanged.

The Wigner rotation of a massive spin-1/2 particle is defined group
theoretically: ``W = L(Lambda p)^-1 Lambda L(p)`` with L(k) the canonical
(rotation-free, symmetric) boost taking the rest momentum to k.  The spatial
block of W is an SO(3) rotation about the axis normal to the plane of the
boost axis and the momentum.  Its angle enters only through the product
t = tanh(a/2) tanh(d/2) of the boost's and the particle's half-rapidity
tanhs (``wigner_tan_product``, on the (beta, p) axes) and cos(theta):
tan(Omega/2) = t sin(theta) / (1 + t cos(theta)), and ``wigner_half_angle``
gives the half-angle's cos and sin.
"""

from __future__ import annotations

import numpy as np

#: beta values above this are rejected; the light-speed physics is reached
#: through ``relent limits``' closed form instead of numerics at beta = 1.
BETA_CAP = 1.0 - 1e-9


def lorentz_factor(beta):
    """gamma = 1/sqrt((1 - beta)(1 + beta)), which keeps 1 - beta^2's digits near light speed."""
    return 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))


class Boost:
    """A boost along +x with speed ratio beta in [0, 1 - 1e-9], or an array of such speeds."""

    def __init__(self, beta):
        speeds = np.asarray(beta)
        if not np.all((0.0 <= speeds) & (speeds <= BETA_CAP)):
            raise ValueError(f"beta must be in [0, {BETA_CAP}], got {beta}")
        self.beta = beta if np.ndim(beta) == 0 else np.asarray(beta, dtype=float)

    @property
    def gamma(self) -> float:
        return lorentz_factor(self.beta)

    def nodewise(self) -> "Boost":
        """The same speeds with two trailing unit axes, broadcasting over a 2D node array."""
        return Boost(np.reshape(self.beta, np.shape(self.beta) + (1, 1)))


def wigner_tan_product(p, beta):
    """t = tanh(a/2) tanh(d/2), a the boost rapidity and d the particle's (ch d = p0).

    tanh(a/2) = gamma beta / (gamma + 1) and tanh(d/2) = p / (p0 + 1), so
    0 <= t < 1 without cancellation at any speed or momentum.  The Wigner
    angle at polar angle theta then has tan(Omega/2) = t sin(theta) /
    (1 + t cos(theta)).  Broadcast over p and beta only.
    """
    gamma_b = lorentz_factor(beta)
    p = np.asarray(p, dtype=float)
    return (gamma_b * beta / (gamma_b + 1.0)) * (p / (np.sqrt(1.0 + p * p) + 1.0))


def wigner_half_angle(p, costheta, beta, *, sintheta):
    """cos(Omega/2) and sin(Omega/2) of the Wigner angle at momentum p and polar angle theta.

    (cos, sin) = (1, r) / sqrt(1 + r^2) with r = tan(Omega/2) = t sin(theta) / (1 +
    t cos(theta)), t from ``wigner_tan_product``; Omega lies in [0, pi).  Broadcast
    over p, costheta, sintheta and beta.  ``sintheta`` is required, as the transverse
    fraction itself: near-collinear momenta lose half their digits through 1 - cos^2.
    """
    t = wigner_tan_product(p, beta)
    r = 1.0 / (1.0 + t * costheta) * t * sintheta
    c = 1.0 / np.sqrt(1.0 + r * r)
    return c, r * c
