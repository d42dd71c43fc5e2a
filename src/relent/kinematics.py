"""Four-momentum algebra, x-axis Lorentz boosts, and spin-1/2 Wigner rotations.

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
boost axis and the momentum; ``wigner_angle`` gives its angle in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FourMomentum",
    "Boost",
    "WignerRotation",
    "boost_momentum",
    "wigner_angle",
    "wigner_rotation",
    "wigner_matrix",
    "su2_matrix",
    "energy_ratio",
]

#: beta values above this are rejected; the light-speed physics is reached
#: through the analytic-limit evaluation mode instead of numerics at beta = 1.
BETA_CAP = 1.0 - 1e-9


@dataclass(frozen=True)
class FourMomentum:
    """On-shell momentum of a massive particle, p0 derived from the mass shell."""

    p_vec: np.ndarray
    m: float = 1.0

    def __post_init__(self):
        vec = np.asarray(self.p_vec, dtype=float)
        if vec.shape != (3,):
            raise ValueError(f"p_vec must be a 3-vector, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("p_vec must be finite")
        if not (self.m > 0.0):
            raise ValueError(f"mass must be positive, got {self.m}")
        object.__setattr__(self, "p_vec", vec)

    @classmethod
    def from_spherical(cls, p: float, theta: float, phi: float, m: float = 1.0) -> "FourMomentum":
        if p < 0.0:
            raise ValueError("momentum magnitude must be >= 0")
        st = np.sin(theta)
        vec = np.array([p * np.cos(theta), p * st * np.cos(phi), p * st * np.sin(phi)])
        return cls(p_vec=vec, m=m)

    @property
    def p0(self) -> float:
        """Energy sqrt(m^2 + |p_vec|^2)."""
        return float(np.sqrt(self.m**2 + self.p_vec @ self.p_vec))

    @property
    def p(self) -> float:
        return float(np.linalg.norm(self.p_vec))

    @property
    def theta(self) -> float:
        """Polar angle from the boost (x) axis."""
        if self.p == 0.0:
            return 0.0
        return float(np.arccos(np.clip(self.p_vec[0] / self.p, -1.0, 1.0)))

    @property
    def phi(self) -> float:
        """Azimuth around the x axis; 0 by convention for collinear momenta."""
        if np.hypot(self.p_vec[1], self.p_vec[2]) == 0.0:
            return 0.0
        return float(np.arctan2(self.p_vec[2], self.p_vec[1]))


@dataclass(frozen=True)
class Boost:
    """A boost along +x with speed ratio beta in [0, 1 - 1e-9]."""

    beta: float

    def __post_init__(self):
        if not (0.0 <= self.beta <= BETA_CAP):
            raise ValueError(f"beta must be in [0, {BETA_CAP}], got {self.beta}")

    @property
    def gamma(self) -> float:
        return 1.0 / np.sqrt((1.0 - self.beta) * (1.0 + self.beta))


@dataclass(frozen=True)
class WignerRotation:
    """Wigner angle, momentum azimuth, and the 2x2 spin-1/2 representation."""

    omega: float
    phi: float
    matrix: np.ndarray = field(repr=False)


def boost_momentum(mom: FourMomentum, b: Boost) -> FourMomentum:
    """Apply the x-axis boost; output is on-shell with the same mass."""
    g = b.gamma
    px = g * (mom.p_vec[0] + b.beta * mom.p0)
    return FourMomentum(p_vec=np.array([px, mom.p_vec[1], mom.p_vec[2]]), m=mom.m)


def wigner_angle(p, costheta, beta, m=1.0, sintheta=None):
    """Closed-form Wigner angle for momentum magnitude p at polar angle theta.

    tan(Omega/2) = sh(a/2) sh(d/2) sin(theta)
                   / (ch(a/2) ch(d/2) + sh(a/2) sh(d/2) cos(theta))

    with a the boost rapidity and d the particle rapidity (ch d = p0/m).
    Vectorised over p and costheta.  Returns Omega in [0, pi).  Pass
    ``sintheta`` when the transverse fraction is known exactly (near-collinear
    momenta lose half their digits through 1 - cos^2).
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
    return 2.0 * np.arctan2(num, den)


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
    """(Lambda p)^0 / p^0 of the x-axis boost, vectorised over px and the energy p0."""
    return b.gamma * (1.0 + b.beta * px / p0)


def wigner_rotation(mom: FourMomentum, b: Boost) -> WignerRotation:
    """Wigner angle/azimuth pair and its spin-1/2 matrix for a boosted momentum.

    Collinear momenta (sin(theta) = 0, including p = 0) rotate trivially:
    omega = 0 and phi is set to 0 by convention.
    """
    transverse = np.hypot(mom.p_vec[1], mom.p_vec[2])
    if b.beta == 0.0 or mom.p == 0.0 or transverse == 0.0:
        return WignerRotation(omega=0.0, phi=0.0, matrix=np.eye(2, dtype=complex))
    omega = float(
        wigner_angle(
            mom.p, mom.p_vec[0] / mom.p, b.beta, m=mom.m, sintheta=transverse / mom.p
        )
    )
    phi = mom.phi
    return WignerRotation(omega=omega, phi=phi, matrix=wigner_matrix(omega, phi))
