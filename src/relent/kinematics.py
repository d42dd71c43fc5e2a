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
block of W is an SO(3) rotation; ``wigner_oracle`` returns it directly and is
the ground truth against which the closed-form angle is validated.
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
    "wigner_oracle",
    "wigner_matrix",
    "su2_matrix",
    "energy_ratio",
    "standard_boost",
    "rotation_angle",
    "su2_from_so3",
]

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

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

    def four_vector(self) -> np.ndarray:
        """(p0, px, py, pz)."""
        return np.concatenate(([self.p0], self.p_vec))


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

    @property
    def rapidity(self) -> float:
        return float(np.arctanh(self.beta))


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


def standard_boost(mom: FourMomentum) -> np.ndarray:
    """Canonical pure boost L(k): the symmetric 4x4 taking (m, 0) to k.

    Uses gamma - 1 = (p/m)^2 / (gamma + 1) so tiny momenta lose no precision.
    """
    m = mom.m
    gamma = mom.p0 / m
    L = np.eye(4)
    L[0, 0] = gamma
    L[0, 1:] = mom.p_vec / m
    L[1:, 0] = mom.p_vec / m
    L[1:, 1:] += np.outer(mom.p_vec, mom.p_vec) / (m**2 * (gamma + 1.0))
    return L


def _boost_matrix_x(b: Boost) -> np.ndarray:
    g = b.gamma
    gb = g * b.beta
    L = np.eye(4)
    L[0, 0] = g
    L[0, 1] = gb
    L[1, 0] = gb
    L[1, 1] = g
    return L


def wigner_oracle(mom: FourMomentum, b: Boost) -> np.ndarray:
    """Wigner rotation by brute-force matrix composition.

    Returns the spatial 3x3 block of L(Lambda p)^-1 Lambda L(p); orthogonal
    with det +1, axis orthogonal to the boost-axis/momentum plane.
    """
    Lp = standard_boost(mom)
    boosted = boost_momentum(mom, b)
    Lout_inv = standard_boost(
        FourMomentum(p_vec=-boosted.p_vec, m=boosted.m)
    )  # inverse of a pure boost = pure boost with opposite velocity
    W = Lout_inv @ _boost_matrix_x(b) @ Lp
    return W[1:, 1:].copy()


def rotation_angle(R: np.ndarray) -> float:
    """Rotation angle in [0, pi] of a 3x3 rotation matrix.

    Uses atan2 of the antisymmetric part against the trace, which stays
    accurate near 0 and pi.
    """
    R = np.asarray(R, dtype=float)
    axis_vec = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    s = np.linalg.norm(axis_vec)
    c = (np.trace(R) - 1.0) / 2.0
    return float(np.arctan2(s, c))


def su2_from_so3(R: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """SU(2) element U with U sigma_i U^dag = sum_j R_ji sigma_j.

    The double-cover sign is fixed by continuity from the identity (the
    quaternion scalar part is kept >= 0, which is the branch reached from
    beta = 0 since the Wigner angle stays below pi).  Rejects input that is
    not a rotation to within `tol`.
    """
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {R.shape}")
    if np.max(np.abs(R.T @ R - np.eye(3))) > tol or abs(np.linalg.det(R) - 1.0) > tol:
        raise ValueError("input is not a rotation matrix (orthogonality/det check failed)")

    # Shepperd's method: pick the largest of (w, x, y, z) for stability.
    t = np.trace(R)
    candidates = np.array([t, R[0, 0], R[1, 1], R[2, 2]])
    k = int(np.argmax(candidates))
    if k == 0:
        w = np.sqrt(1.0 + t) / 2.0
        x = (R[2, 1] - R[1, 2]) / (4.0 * w)
        y = (R[0, 2] - R[2, 0]) / (4.0 * w)
        z = (R[1, 0] - R[0, 1]) / (4.0 * w)
    elif k == 1:
        x = np.sqrt(1.0 + 2.0 * R[0, 0] - t) / 2.0
        w = (R[2, 1] - R[1, 2]) / (4.0 * x)
        y = (R[0, 1] + R[1, 0]) / (4.0 * x)
        z = (R[0, 2] + R[2, 0]) / (4.0 * x)
    elif k == 2:
        y = np.sqrt(1.0 + 2.0 * R[1, 1] - t) / 2.0
        w = (R[0, 2] - R[2, 0]) / (4.0 * y)
        x = (R[0, 1] + R[1, 0]) / (4.0 * y)
        z = (R[1, 2] + R[2, 1]) / (4.0 * y)
    else:
        z = np.sqrt(1.0 + 2.0 * R[2, 2] - t) / 2.0
        w = (R[1, 0] - R[0, 1]) / (4.0 * z)
        x = (R[0, 2] + R[2, 0]) / (4.0 * z)
        y = (R[1, 2] + R[2, 1]) / (4.0 * z)

    q = np.array([w, x, y, z])
    if q[0] < 0.0:
        q = -q
    elif q[0] == 0.0:  # half-turn: sign fixed by the first nonzero component
        nonzero = q[np.abs(q) > 0.0]
        if nonzero.size and nonzero[0] < 0.0:
            q = -q
    w, x, y, z = q
    return w * np.eye(2, dtype=complex) - 1j * (x * _SIGMA_X + y * _SIGMA_Y + z * _SIGMA_Z)
