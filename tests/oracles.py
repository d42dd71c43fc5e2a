"""Independent references used only by the test suite.

Monte Carlo estimators sample the Gaussian momentum density directly (no
quadrature grid, no shared code path with the library's quadratures) and
return mean plus standard error, so quadrature results can be gated at
3 sigma.  The matrix-composition oracle builds the Wigner rotation from 4x4
Lorentz matrices, the antipodal-pair kernel gives the light-speed form of the
longitudinal correlation, and ``bell_fidelity_cos`` is the Bell-only scalar
route to the fidelity.  ``azimuth_grid`` is the production node layout with
any number of azimuth nodes, and ``mean_abs_products`` averages the pointwise
amplitude moduli that the production aggregates leave out.
"""

from dataclasses import dataclass

import numpy as np

from relent.kinematics import Boost, FourMomentum, boost_momentum, wigner_angle
from relent.relstate import pair_amplitudes, spin_up_up
from relent.wavepacket import QuadratureGrid

_SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def _sample_gaussian_momenta(delta, n, rng):
    """Cartesian samples of |f1|^2, i.e. N(0, delta/2) per axis."""
    return rng.normal(0.0, np.sqrt(delta / 2.0), size=(n, 3))


def _angles(vecs, beta, m=1.0):
    p = np.linalg.norm(vecs, axis=1)
    ct = np.divide(vecs[:, 0], p, out=np.ones_like(p), where=p > 0)
    omega = wigner_angle(p, ct, beta, m=m)
    phi = np.arctan2(vecs[:, 2], vecs[:, 1])
    return omega, phi


def _boost_weight(vecs, beta, delta, m=1.0):
    """sqrt((Lp)^0/p^0) * f1(Lp)/f1(p) per sample."""
    gamma = 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
    p_sq = np.sum(vecs**2, axis=1)
    p0 = np.sqrt(m**2 + p_sq)
    px_b = gamma * (vecs[:, 0] + beta * p0)
    boosted_sq = px_b**2 + (p_sq - vecs[:, 0] ** 2)
    jac = gamma * (1.0 + beta * vecs[:, 0] / p0)
    return np.sqrt(jac) * np.exp(-(boosted_sq - p_sq) / (2.0 * delta))


def mc_bell_fidelity(delta, beta, n=10**6, seed=7):
    """(fidelity estimate, standard error) for the Bell-spin product-packet overlap."""
    rng = np.random.default_rng(seed)
    p = _sample_gaussian_momenta(delta, n, rng)
    q = _sample_gaussian_momenta(delta, n, rng)
    om_p, phi_p = _angles(p, beta)
    om_q, phi_q = _angles(q, beta)
    kernel = np.cos(om_p / 2) * np.cos(om_q / 2) - np.sin(om_p / 2) * np.sin(om_q / 2) * np.cos(
        phi_p + phi_q
    )
    t = _boost_weight(p, beta, delta) * _boost_weight(q, beta, delta) * kernel
    mean = float(np.mean(t))
    stderr = float(np.std(t, ddof=1) / np.sqrt(n))
    return mean**2, 2.0 * abs(mean) * stderr


def mc_bell_abcd(delta, beta, n=10**6, seed=11):
    """Monte Carlo means and standard errors of the four Bell-density weights."""
    rng = np.random.default_rng(seed)
    p = _sample_gaussian_momenta(delta, n, rng)
    q = _sample_gaussian_momenta(delta, n, rng)
    om_p, phi_p = _angles(p, beta)
    om_q, phi_q = _angles(q, beta)
    cp2, sp2 = np.cos(om_p / 2) ** 2, np.sin(om_p / 2) ** 2
    cq2, sq2 = np.cos(om_q / 2) ** 2, np.sin(om_q / 2) ** 2
    a_term = cp2 * cq2 + sp2 * sq2 * np.cos(phi_p + phi_q) ** 2
    b_term = sp2 * cq2 * np.sin(phi_p) ** 2 + cp2 * sq2 * np.sin(phi_q) ** 2
    c_term = sp2 * sq2 * np.sin(phi_p + phi_q) ** 2
    d_term = sp2 * cq2 * np.cos(phi_p) ** 2 + cp2 * sq2 * np.cos(phi_q) ** 2
    out = {}
    for name, term in (("A", a_term), ("B", b_term), ("C", c_term), ("D", d_term)):
        out[name] = (float(np.mean(term)), float(np.std(term, ddof=1) / np.sqrt(n)))
    return out


def bell_expectation(a_vec, b_vec, spin):
    """Brute-force <spin| (a.sigma) x (b.sigma) |spin> on the 4x4 matrix."""
    op = np.kron(np.einsum("i,ijk->jk", a_vec, _SIGMA), np.einsum("i,ijk->jk", b_vec, _SIGMA))
    spin = np.asarray(spin, dtype=complex)
    return float(np.real(spin.conj() @ (op @ spin)))


def sample_pairs_loop(dist, n=64, seed=42):
    """Per-pair reference for ``relstate.default_sample_pairs``.

    Draws each pair's two directions (cos theta, then phi) and its four radii
    with scalar generator calls, one pair at a time; every fourth pair is
    diagonal.
    """
    rng = np.random.default_rng(seed)
    scale = np.sqrt(dist.delta)
    out = np.empty((n, 4, 3))
    for i in range(n):
        dirs = []
        for _ in range(2):
            ct = rng.uniform(-1.0, 1.0)
            ph = rng.uniform(0.0, 2.0 * np.pi)
            st = np.sqrt(1.0 - ct * ct)
            dirs.append(np.array([ct, st * np.cos(ph), st * np.sin(ph)]))
        r = scale * rng.uniform(0.3, 2.5, size=4)
        p, q = r[0] * dirs[0], r[1] * dirs[1]
        if i % 4 == 0:
            p2, q2 = p.copy(), q.copy()
        else:
            p2, q2 = r[2] * dirs[0], r[3] * dirs[1]
        out[i] = (p, q, p2, q2)
    return out


def bell_fidelity_cos(delta, beta, grid):
    """Bell-state fidelity from the azimuth-free kernel cos(Omega_p/2) cos(Omega_q/2).

    Pointwise the Bell kernel also carries
    -sin(Omega_p/2) sin(Omega_q/2) cos(phi_p + phi_q), which integrates to
    zero against the isotropic packet, so the overlap is the square of one
    scalar moment.  Built from this module's boost weight and density, on the
    nodes of ``grid``.
    """
    st = np.sqrt(np.maximum(0.0, 1.0 - grid.costheta**2))
    vecs = grid.p[:, None] * np.column_stack(
        (grid.costheta, st * np.cos(grid.phi), st * np.sin(grid.phi))
    )
    density = (np.pi * delta) ** -1.5 * np.exp(-(grid.p**2) / delta)
    omega, _ = _angles(vecs, beta)
    moment = np.sum(grid.weights * density * _boost_weight(vecs, beta, delta) * np.cos(omega / 2))
    return float(moment**4)


def azimuth_grid(n_r, n_theta, p_max, n_phi):
    """``build_grid``'s (p, cos theta, phi) layout with ``n_phi`` azimuth nodes.

    The reference for the fixed azimuth rule: the same Gauss-Legendre radial
    and polar rules, flattened with phi fastest, and an n_phi-node periodic
    trapezoid rule in phi.
    """
    x_r, w_r = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * p_max * (x_r + 1.0)
    x_t, w_t = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    P, CT, PHI = np.meshgrid(r, x_t, phi, indexing="ij")
    W = np.einsum("i,j,k->ijk", 0.5 * p_max * w_r * r**2, w_t, np.full(n_phi, 2.0 * np.pi / n_phi))
    return QuadratureGrid(
        n_r=n_r, n_theta=n_theta, p_max=float(p_max),
        p=P.ravel(), costheta=CT.ravel(), phi=PHI.ravel(), weights=W.ravel(),
    )


def mean_abs_products(dist, b, grid):
    """<|a d*|> and <|b c*|> of the rotated up-up amplitudes of a delta-correlated pair.

    The two moduli are equal at every node, hence under any common average;
    with Cauchy-Schwarz this carries the separability conclusion.  They are
    not trigonometric polynomials in phi, so unlike the density aggregates of
    ``xstate_stats`` they are not integrated exactly by the azimuth rule.
    """
    w = grid.weights * dist.density1(grid.p**2)
    (a, b_), (c, d) = pair_amplitudes(dist, b, grid, spin_up_up())
    return float(np.sum(w * np.abs(a * d))), float(np.sum(w * np.abs(b_ * c)))


# -- matrix-composition oracle for the Wigner rotation -------------------------


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
    return w * np.eye(2, dtype=complex) - 1j * (x * _SIGMA[0] + y * _SIGMA[1] + z * _SIGMA[2])


# -- antipodal-pair kernel of the light-speed correlation ----------------------
#
# ``xyzw`` evaluates the antipodal-pair kernel whose distribution average
# equals the longitudinal quantum correlation in the light-speed limit.  Both
# Wigner rotations of an antipodal momentum pair share one rotation plane, so
# the companion's angle enters with a relative minus sign when both are
# written against the azimuth of p (a rotation by omega about the axis at
# azimuth phi + pi equals a rotation by -omega about the axis at azimuth phi).


@dataclass(frozen=True)
class XYZWKernel:
    X: float
    Y: float
    Z: float
    W: float

    @property
    def combination(self) -> float:
        """X^2 - Y^2 - Z^2 + W^2, the weight of the longitudinal correlation."""
        return self.X**2 - self.Y**2 - self.Z**2 + self.W**2


def xyzw_from_angles(omega_p, omega_m, phi):
    """Kernel components from the two (signed) rotation angles and the azimuth.

    Vectorised; returns four arrays (or scalars) X, Y, Z, W.
    """
    s, c = np.sin(phi), np.cos(phi)
    half_sum = (np.asarray(omega_p) + np.asarray(omega_m)) / 2.0
    half_diff = (np.asarray(omega_p) - np.asarray(omega_m)) / 2.0
    X = np.cos(half_sum) * s**2 + np.cos(half_diff) * c**2
    Y = np.sin(half_sum) * s
    Z = np.sin(half_diff) * c
    W = (-np.cos(half_sum) + np.cos(half_diff)) * s * c
    return X, Y, Z, W


def signed_companion_angles(p_mag, costheta, beta, m=1.0):
    """(omega_p, omega_m): Wigner angles of p and -p about p's own transverse axis.

    The companion's rotation axis sits at azimuth phi + pi, so expressed
    about p's axis its angle carries a minus sign (a rotation by omega about
    the axis at phi + pi equals one by -omega about the axis at phi).
    """
    omega_p = wigner_angle(p_mag, costheta, beta, m=m)
    omega_m = -wigner_angle(p_mag, -np.asarray(costheta), beta, m=m)
    return omega_p, omega_m


def xyzw(p: FourMomentum, b: Boost) -> XYZWKernel:
    """Kernel components for the antipodal momentum pair (p, -p)."""
    if p.p == 0.0 or abs(p.p_vec[0]) == p.p:
        omega_p, omega_m = 0.0, 0.0
    else:
        op, om = signed_companion_angles(p.p, p.p_vec[0] / p.p, b.beta, m=p.m)
        omega_p, omega_m = float(op), float(om)
    X, Y, Z, W = xyzw_from_angles(omega_p, omega_m, p.phi)
    return XYZWKernel(X=float(X), Y=float(Y), Z=float(Z), W=float(W))


def quantum_correlation_asymptotic(a, b_dir, dist, b: Boost, grid) -> float:
    """Light-speed form: sign(a_x) sign(b_x) times the averaged kernel combination."""
    ax, bx = a.longitudinal, b_dir.longitudinal
    if ax == 0.0 or bx == 0.0:
        raise ValueError("asymptotic correlation undefined for transverse directions")
    w = grid.weights * dist.density1(grid.p**2)
    omega_p, omega_m = signed_companion_angles(grid.p, grid.costheta, b.beta)
    X, Y, Z, W = xyzw_from_angles(omega_p, omega_m, grid.phi)
    kernel = X**2 - Y**2 - Z**2 + W**2
    return float(np.sign(ax) * np.sign(bx) * np.sum(w * kernel))
