"""Independent references used only by the test suite.

Monte Carlo estimators sample the Gaussian momentum density directly (no
quadrature grid, no shared code path with the library's quadratures) and
return mean plus standard error, so quadrature results can be gated at
3 sigma.  The matrix-composition oracle builds the Wigner rotation from 4x4
Lorentz matrices, the antipodal-pair kernel gives the light-speed form of the
longitudinal correlation, and ``bell_fidelity_cos`` is the Bell-only scalar
route to the fidelity.  ``azimuth_grid`` is the (p, cos theta, phi) node set
with any number of azimuth nodes, and the ``*_3d`` kernels are the per-speed
3D quadratures the library's lattice kernels replaced, kept as references:
they sum over explicit azimuth nodes instead of folding phi in.
``lattice_weights`` is the (p, cos theta) lattice of node weights that the
library never forms.  ``polar_panels`` grades Gauss-Legendre panels toward
an end of [0, 1], ``polar_rule`` puts them at both ends of cos(theta), and
``polar_moments_panels`` integrates the spin density's polar moments on them
in a form without cancellation, the reference for the library's closed
forms.  ``reduced_spin_density_two_angles`` evaluates the q = -p companion's
Wigner angle itself, integrates cos(theta) on ``polar_rule`` and sums the
4x4 moment entry by entry.  The
product-momentum branch of the reduced spin density and the density checks
of ``validate_density`` live here too, as nothing in the library uses them.
``mean_abs_products`` averages the pointwise amplitude moduli that the
production aggregates leave out.  The per-momentum scalar API
(``FourMomentum``, ``wigner_rotation``, ``spin_kernel``, ``abcd``) evaluates
one momentum or pair at a time.  ``leaked_mass`` is the closed form of the
mass that a fidelity grid's cutoff leaks, which the fidelity used as its leak
check before it required ``default_p_max``; ``leaked_mass_mask`` is the
128 x 128 masked quadrature it replaced, and ``leaked_mass_panels``
integrates the closed form's 1D integrand on graded panels.
``partial_transpose`` of a general 4x4 density, followed by ``eigvalsh``, is
the reference for the closed-form X-state spectrum; ``bell_density_from_ABCD``
assembles the Bell-spin density from its four weights, and ``xstate_concurrence`` is
Wootters' concurrence in its X-state form.  ``wigner_half_angle_hypot``,
``wigner_angle`` and ``wigner_matrix`` are the Wigner half-angle as
(den, num) / hypot(num, den), the angle and its SU(2) matrix from the azimuth,
and the ``*_hypot`` kernels are the library's four lattice kernels in the
form they had before they took tan(Omega/2) and built their arrays in place
(the spin density's on ``polar_rule``, the fidelity's in extended precision).
``momentum_density_samples_su2`` is the pair-density sampler with complex
SU(2) matrices, as it was before it worked in real quaternions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from relent.entanglement import ABCDValues
from relent.kinematics import Boost, energy_ratio, wigner_half_angle
from relent.relstate import (
    _G_COL, _G_ROW, TRACE_TOL, azimuth_tensor, spin_up_up,
)
from relent.wavepacket import (
    AZIMUTH_NODES,
    EntangledMomentum,
    GaussianProduct,
    GridCoverageError,
    default_p_max,
    gauss_legendre,
)

_SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


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


def lattice_weights(grid) -> np.ndarray:
    """The (..., n_r, n_theta) lattice of node weights, radial_weights * polar_weights.

    The library contracts the two factors one after the other and never forms
    this product; the references below sum against it node by node.
    """
    return grid.radial_weights * grid.polar_weights


def polar_panels(nodes=20, smallest=1e-16, ratio=4.0):
    """Gauss-Legendre panels on s in [0, 1], graded geometrically toward s = 0.

    The first panel is [0, smallest] and each later one ``ratio`` times longer,
    so an integrand with a pole or branch point a distance d below s = 0 is
    resolved down to d ~ smallest; 20 nodes on a [a, 4a] panel converge like
    3^-40 against a singularity at 0.  Returns (s, w).
    """
    x_q, w_q = np.polynomial.legendre.leggauss(nodes)
    edges = [0.0, smallest]
    while edges[-1] * ratio < 1.0:
        edges.append(edges[-1] * ratio)
    edges = np.array(edges + [1.0])
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    return (mid[:, None] + half[:, None] * x_q).ravel(), (half[:, None] * w_q).ravel()


def polar_rule():
    """cos(theta) nodes and 2 pi-scaled weights on [-1, 1], ``polar_panels`` toward both ends."""
    s, w = polar_panels()
    return np.concatenate((-1.0 + s, 1.0 - s[::-1])), 2.0 * np.pi * np.concatenate((w, w[::-1]))


def polar_moments_panels(t, sign):
    """The moments of ``relstate._polar_moments`` at one t, on ``polar_panels`` toward both ends.

    (M_00, M_02, M_22, sign M_11) of P = (c_p^2, c_p s_p, s_p^2) and Q the same
    at the companion's cos(theta), integrated over [-1, 1].  Every factor is
    written in xi = 1 - x and eta = 1 + x, which the panels give exactly near
    their end: 1 + t x = (1 - t) + t eta, 1 + t^2 + 2 t x = (1 - t)^2 +
    2 t eta, 1 - x^2 = xi eta, and the same with xi and eta swapped at -x.
    """
    s, w = polar_panels()
    total = np.zeros(4)
    for xi, eta in ((2.0 - s, s), (s, 2.0 - s)):
        halves = []
        for b in (eta, xi):  # the particle at x, then at -x
            den = (1.0 - t) ** 2 + 2.0 * t * b
            halves.append(((1.0 - t + t * b) ** 2 / den, t * np.sqrt(xi * eta) * (1.0 - t + t * b) / den,
                           t * t * xi * eta / den))
        (c2, cs, s2), (c2q, csq, s2q) = halves[0], halves[0] if sign == 1 else halves[1]
        total += [np.sum(w * f) for f in (c2 * c2q, c2 * s2q, s2 * s2q, sign * cs * csq)]
    return total


# -- the Wigner angle in its (den, num) form and the kernels built on it --------
#
# The library's kernels take tan(Omega/2) = t sin(theta) / (1 + t cos(theta))
# and build their lattice arrays in place.  The forms below are the ones they
# replaced: (cos, sin)(Omega/2) = (den, num) / hypot(num, den), the angle as
# 2 arctan2 of it, the azimuth by arctan2, and every lattice product as its own
# temporary.


def wigner_half_angle_hypot(p, costheta, beta, m=1.0, sintheta=None):
    """cos(Omega/2) and sin(Omega/2) as (den, num) / hypot(num, den).

    tan(Omega/2) = sh(a/2) sh(d/2) sin(theta)
                   / (ch(a/2) ch(d/2) + sh(a/2) sh(d/2) cos(theta))
    with a the boost rapidity and d the particle rapidity (ch d = p0/m).
    Evaluated in the precision of its inputs, at least double.
    """
    p = np.asarray(p) * 1.0
    costheta = np.asarray(costheta) * 1.0
    gamma_b = 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
    cha = np.sqrt((gamma_b + 1.0) / 2.0)
    sha = gamma_b * beta / np.sqrt(2.0 * (gamma_b + 1.0))
    gamma_p = np.sqrt(1.0 + (p / m) ** 2)
    chd = np.sqrt((gamma_p + 1.0) / 2.0)
    shd = (p / m) / np.sqrt(2.0 * (gamma_p + 1.0))
    if sintheta is None:
        sintheta = np.sqrt(np.maximum(0.0, 1.0 - costheta**2))
    num = sha * shd * sintheta
    den = cha * chd + sha * shd * costheta
    norm = np.hypot(num, den)
    return den / norm, num / norm


def wigner_angle(p, costheta, beta, m=1.0, sintheta=None):
    """The Wigner angle Omega in [0, pi), twice the angle of ``wigner_half_angle_hypot``."""
    c, s = wigner_half_angle_hypot(p, costheta, beta, m, sintheta)
    return 2.0 * np.arctan2(s, c)


def wigner_matrix(omega, phi) -> np.ndarray:
    """Spin-1/2 representation of the Wigner rotation, broadcast over nodes.

    Equals exp(-i omega n.sigma / 2) for the axis n = (0, sin(phi), -cos(phi)).
    Returns shape ``(2, 2) + broadcast(omega, phi).shape``.
    """
    s = np.sin(omega / 2.0)
    return su2_matrix(np.cos(omega / 2.0), s * np.cos(phi), s * np.sin(phi))


def _boosted_args(grid, b: Boost, m: float = 1.0):
    """|Lambda p|^2 and (Lambda p)^0/p^0 on the (beta, p, cos(theta)) lattice of nodewise b."""
    px = grid.p * grid.costheta
    pt_sq = grid.p**2 - px**2
    p0 = np.sqrt(m**2 + grid.p**2)
    px_b = b.gamma * (px + b.beta * p0)
    return px_b**2 + pt_sq, energy_ratio(px, p0, b)


def fidelity_hypot(dist, b: Boost, grid):
    """``entanglement.fidelity`` from (Lambda p)_x, the amplitude exponentials and the hypot half-angle.

    Evaluated in ``np.longdouble`` (a 64-bit mantissa on x86-64).  In a tiny
    fidelity the integrand's exponent runs to a few hundred, and double
    arithmetic rounds it by about that many ulps in any form, so a double
    reference of another form would differ from the library by twice as much
    as the library differs from the exact node sum.  The moment is rounded to
    double before it is raised to the fourth power, as the library's is.
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
    ld = np.longdouble
    beta = np.asarray(b.beta, dtype=ld)[..., None, None]
    gamma = 1 / np.sqrt((1 - beta) * (1 + beta))
    p, ct, delta = grid.p.astype(ld), grid.costheta.astype(ld), np.asarray(dist.nodes_delta, ld)
    px, p0 = p * ct, np.sqrt(1 + p * p)
    boosted_sq = (gamma * (px + beta * p0)) ** 2 + (p * p - px * px)
    jac = gamma * (1 + beta * px / p0)
    w = grid.radial_weights.astype(ld) * grid.polar_weights.astype(ld)
    amplitudes = (np.pi * delta) ** ld(-1.5) * np.exp(-(boosted_sq + p * p) / (2 * delta))
    c = wigner_half_angle_hypot(p, ct, beta)[0]
    m = np.sum(w * np.sqrt(jac) * amplitudes * c, axis=(-2, -1)).astype(float)
    f = np.square(np.square(m))
    if not np.all((-1e-9 <= f) & (f <= 1.0 + 1e-9)):
        raise ValueError(f"fidelity out of [0, 1]: {f}")
    return f


def bell_ABCD_hypot(dist, b: Boost, grid, analytic_limit=False) -> ABCDValues:
    """``entanglement.bell_ABCD`` summing c^2 and 1 - c^2 of the hypot half-angle."""
    if not isinstance(dist, GaussianProduct):
        raise TypeError("bell_ABCD requires a product momentum distribution")
    w = lattice_weights(grid) * dist.density1(grid.p**2)
    norm = float(np.sum(w))
    if not (abs(norm - 1.0) <= 1e-4):
        raise GridCoverageError(
            f"bell_ABCD: distribution norm on the grid is {norm:.6f}; grid coverage insufficient"
        )
    if analytic_limit:
        c2_node = (1.0 + grid.costheta) / 2.0
    else:
        c2_node = wigner_half_angle_hypot(grid.p, grid.costheta, b.nodewise().beta)[0] ** 2
    shape = np.shape(b.beta)
    c2 = np.broadcast_to(np.sum(w * c2_node, axis=(-2, -1)), shape)
    s2 = np.broadcast_to(np.sum(w * (1.0 - c2_node), axis=(-2, -1)), shape)
    B = c2 * s2
    return ABCDValues(A=c2**2 + 0.5 * s2**2, B=B, C=0.5 * s2**2, D=B, eta=2.0 * s2 / norm)


def reduced_spin_density_hypot(state, b: Boost, grid):
    """``relstate.reduced_spin_density`` from all nine 3x3 moments of the hypot half-angle.

    The radial rule is the grid's; cos(theta) is integrated on ``polar_rule``,
    with the companion's half-angle evaluated at its own cos(theta).
    """
    dist = state.dist
    if not isinstance(dist, EntangledMomentum):
        raise TypeError("reduced_spin_density requires a delta-correlated momentum distribution")
    x, w_x = polar_rule()
    w = grid.radial_weights * dist.density1(grid.p**2) * w_x
    beta = b.nodewise().beta

    def moments(costheta):
        c, s = wigner_half_angle_hypot(grid.p, costheta, beta)
        return c * c, c * s, s * s

    P = moments(x)
    Q = P if dist.sign == 1 else moments(-x)
    M = np.empty(np.broadcast_shapes(np.shape(beta), w.shape)[:-2] + (3, 3))
    for i in range(3):
        for j in range(3):
            M[..., i, j] = np.sum(w * P[i] * Q[j], axis=(-2, -1))
    M[..., :, 1] *= dist.sign
    rho = np.einsum("...kl,klij->...ij", M[..., _G_ROW, _G_COL],
                    azimuth_tensor(state.spin, AZIMUTH_NODES))
    worst = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0))
    if not (worst <= TRACE_TOL):
        raise GridCoverageError(
            f"reduced_spin_density: quadrature trace deviates from 1 by {worst:.6f}, more than "
            f"{TRACE_TOL}; the grid does not cover the distribution"
        )
    return rho


def momentum_density_samples_hypot(state, b: Boost, grid, pairs):
    """``relstate.momentum_density_samples`` through ``wigner_angle`` and ``wigner_matrix``."""
    if not isinstance(state.dist, GaussianProduct):
        raise TypeError("momentum_density_samples requires a product momentum distribution")
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 3 or pairs.shape[1:] != (4, 3):
        raise ValueError("pairs must have shape (n, 4, 3)")
    dist = state.dist
    F = state.spin.reshape(2, 2)
    norm1 = float(np.sum(lattice_weights(grid) * dist.density1(grid.p**2)))
    nb = b.nodewise()
    p_sq = np.sum(pairs**2, axis=-1)
    p = np.sqrt(p_sq)
    transverse = np.hypot(pairs[..., 1], pairs[..., 2])
    safe_p = np.where(p > 0.0, p, 1.0)
    omega = wigner_angle(p, pairs[..., 0] / safe_p, nb.beta, sintheta=transverse / safe_p)
    D = wigner_matrix(omega, np.arctan2(pairs[..., 2], pairs[..., 1]))
    A = np.einsum("ba...,bc...->ac...", D[..., 2].conj(), D[..., 0])
    B = np.einsum("ba...,bc...->ac...", D[..., 3].conj(), D[..., 1])
    spin_sum = np.einsum("ab,ac...,cd,bd...->...", F.conj(), A, F, B)
    spin_a = np.einsum("ab,ac...,cb->...", F.conj(), A, F)
    spin_b = np.einsum("ab,ad,bd...->...", F.conj(), F, B)
    ratio = energy_ratio(pairs[..., 0], np.sqrt(1.0 + p_sq), nb)
    jac = np.sqrt(np.prod(ratio, axis=-1))
    amp = np.prod(dist.amplitude1(p_sq), axis=-1)
    return jac * amp * spin_sum, jac * amp * (spin_a * norm1) * (spin_b * norm1)


def momentum_density_samples_su2(state, b: Boost, grid, pairs):
    """``relstate.momentum_density_samples`` with complex SU(2) matrices for one width.

    The form before the real quaternions: the (2, 2, ..., row, slot) Wigner
    matrices of all four momenta, the products D_p'^dag D_p and D_q'^dag D_q
    by ``einsum``, and <Phi|A x B|Phi> as a four-operand ``einsum``.
    """
    if not isinstance(state.dist, GaussianProduct):
        raise TypeError("momentum_density_samples requires a product momentum distribution")
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 3 or pairs.shape[1:] != (4, 3):
        raise ValueError("pairs must have shape (n, 4, 3)")
    dist = state.dist
    F = state.spin.reshape(2, 2)
    norm1 = float(np.sum(lattice_weights(grid) * dist.density1(grid.p**2)))
    nb = b.nodewise()
    p_sq = np.sum(pairs**2, axis=-1)
    p = np.sqrt(p_sq)
    transverse = np.sqrt(pairs[..., 1] ** 2 + pairs[..., 2] ** 2)
    safe_p = np.where(p > 0.0, p, 1.0)
    safe_t = np.where(transverse > 0.0, transverse, 1.0)
    c, s = wigner_half_angle(p, pairs[..., 0] / safe_p, nb.beta, sintheta=transverse / safe_p)
    cos_phi = np.where(transverse > 0.0, pairs[..., 1] / safe_t, 1.0)
    D = su2_matrix(c, s * cos_phi, s * (pairs[..., 2] / safe_t))
    A = np.einsum("ba...,bc...->ac...", D[..., 2].conj(), D[..., 0])
    B = np.einsum("ba...,bc...->ac...", D[..., 3].conj(), D[..., 1])
    spin_sum = np.einsum("ab,ac...,cd,bd...->...", F.conj(), A, F, B)
    spin_a = np.einsum("ab,ac...,cb->...", F.conj(), A, F)
    spin_b = np.einsum("ab,ad,bd...->...", F.conj(), F, B)
    ratio = energy_ratio(pairs[..., 0], np.sqrt(1.0 + p_sq), nb)
    jac = np.sqrt(np.prod(ratio, axis=-1))
    amp = np.prod(dist.amplitude1(p_sq), axis=-1)
    return jac * amp * spin_sum, jac * amp * (spin_a * norm1) * (spin_b * norm1)


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
    scalar moment.  Its integrand does not depend on phi, so it is evaluated
    at phi = 0 on the nodes of the (p, cos theta) lattice ``grid``, built
    from this module's boost weight and density.
    """
    W = lattice_weights(grid)
    P, CT = (np.broadcast_to(a, W.shape).ravel() for a in (grid.p, grid.costheta))
    vecs = P[:, None] * np.column_stack((CT, np.sqrt(np.maximum(0.0, 1.0 - CT**2)), 0.0 * CT))
    density = (np.pi * delta) ** -1.5 * np.exp(-(P**2) / delta)
    omega, _ = _angles(vecs, beta)
    kernel = _boost_weight(vecs, beta, delta) * np.cos(omega / 2)
    moment = np.sum(W.ravel() * density * kernel)
    return float(moment**4)


def _erfcx(y: float) -> float:
    """exp(y^2) erfc(y), by the continued fraction of erfc where erfc underflows (y >= 26)."""
    if y < 26.0:
        return math.exp(y * y) * math.erfc(y)
    tail = 0.0
    for k in range(20, 0, -1):
        tail = 0.5 * k / (y + tail)
    return 1.0 / (math.sqrt(math.pi) * (y + tail))


#: (node, weight) of the 3-node Gauss-Legendre rule on [0, 1]
_GL3 = tuple((0.5 + 0.5 * x * math.sqrt(0.6), w / 18) for x, w in ((-1, 5), (0, 8), (1, 5)))


def leaked_mass(dist: GaussianProduct, b: Boost, p_max, m: float = 1.0) -> np.ndarray:
    """Wavepacket mass whose inverse-boosted argument lies beyond P = p_max, per (width, speed).

    The reference that pins ``default_p_max``'s bound.  Boosted-argument
    evaluation on a grid of radius P never sees this mass.  p leaks
    exactly when gamma (E_p - beta p_x) > E_P (Lambda^-1 p is on shell).  The
    transverse Gaussian beyond the leaking radius integrates to
    exp(-rho^2/delta), so the leak is the whole p_x marginal outside [x-, x+],
    x-+ = gamma (beta E_P -+ P), plus [exp(-x-^2/delta) erfcx(E-/sqrt(delta)) -
    exp(-x+^2/delta) erfcx(E+/sqrt(delta))] / (2 beta), E-+ = gamma (E_P -+
    beta P); at beta = 0, erfc(u) + 2 u exp(-u^2)/sqrt(pi) with u = P/sqrt(delta).
    Where the exponent changes by less than 0.1 across [x-, x+] the erfcx terms
    cancel, and the inner integrand exp(-(x-^2 + beta s (2 E- + beta s))/delta)
    / sqrt(pi delta), p_x = x- + s, goes on ``_GL3`` (relative error < 1e-12).
    """
    beta, cutoff, widths = np.broadcast_arrays(b.beta, p_max, dist.delta)
    leaked = []
    for v, P, delta in zip(beta.ravel().tolist(), cutoff.ravel().tolist(), widths.ravel().tolist()):
        root = math.sqrt(delta)
        gamma = 1.0 / math.sqrt((1.0 - v) * (1.0 + v))
        E_P = math.sqrt(m * m + P * P)
        # x- and E- in forms without cancellation
        x_lo = gamma * ((v * m) ** 2 - (P / gamma) ** 2) / (v * E_P + P)
        x_hi = gamma * (v * E_P + P)
        E_lo = gamma * (m * m + (P / gamma) ** 2) / (E_P + v * P)
        width = x_hi - x_lo  # 2 gamma P
        leak = 0.5 * math.erfc(-x_lo / root) + 0.5 * math.erfc(x_hi / root)
        if v * width * (2.0 * E_lo + v * width) >= 0.1 * delta:
            E_hi = gamma * (E_P + v * P)
            leak += (math.exp(-x_lo * x_lo / delta) * _erfcx(E_lo / root)
                     - math.exp(-x_hi * x_hi / delta) * _erfcx(E_hi / root)) / (2.0 * v)
        else:
            inner = sum(w * math.exp(-v * s * width * (2.0 * E_lo + v * s * width) / delta)
                        for s, w in _GL3)
            leak += math.exp(-x_lo * x_lo / delta) * width * inner / (math.sqrt(math.pi) * root)
        leaked.append(leak)
    return np.reshape(leaked, beta.shape)


def leaked_mass_mask(dist, b, p_max, m=1.0):
    """The leak check's former quadrature: the leak mask on a 128 x 128 (radius, cos theta) rule.

    The radial rule covers [0, 6 sqrt(delta)], one full mask per speed.  The
    mask's edge cuts through the rule's cells, so it errs by a few percent of
    small leaks: at beta = 0 and p_max = 4.5 sqrt(delta) it gives 1.19e-4
    against the exact 9.86e-5.
    """
    x, w = gauss_legendre(128)
    r = 3.0 * np.sqrt(dist.delta) * (x + 1.0)
    wr = 3.0 * np.sqrt(dist.delta) * w
    R, CT = r[:, None], x
    W = np.outer(wr * r**2 * dist.density1(r**2), w) * 2.0 * np.pi
    k0 = np.sqrt(m**2 + R**2)
    px, pt_sq = R * CT, R**2 * (1.0 - CT**2)
    gamma, beta, cutoff = np.broadcast_arrays(b.gamma, b.beta, p_max)
    leaked = np.empty(beta.shape)
    for i in np.ndindex(beta.shape):
        inv_x = gamma[i] * (px - beta[i] * k0)
        leaked[i] = np.sum(W * (inv_x**2 + pt_sq > cutoff[i] ** 2))
    return leaked


def leaked_mass_panels(delta, beta, p_max, m=1.0, nodes=20):
    """The leaked mass on panels of Gauss-Legendre rules over p_x, without erfc.

    At p_x = x the transverse integral of |f1|^2 beyond the leaking radius is
    exp(-(x^2 + rho^2)/delta) / sqrt(pi delta), with rho = 0 outside
    [x-, x+] = gamma (beta E_P -+ P) and x^2 + rho^2 = t^2 - m^2 =
    x-^2 + beta s (2 E- + beta s) at x = x- + s inside, E- = gamma (E_P - beta P).
    Each of the three pieces (tails cut 40 sqrt(delta) past their peak) is
    split at its ends, at x = 0 and at the peak, and graded geometrically
    away from those points from a width far below every decay length.
    """
    x_q, w_q = np.polynomial.legendre.leggauss(nodes)
    gamma = 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
    E_P, root = np.sqrt(m * m + p_max * p_max), np.sqrt(delta)
    x_lo = gamma * ((beta * m) ** 2 - (p_max / gamma) ** 2) / (beta * E_P + p_max)
    x_hi = gamma * (beta * E_P + p_max)
    E_lo = gamma * (m * m + (p_max / gamma) ** 2) / (E_P + beta * p_max)
    h0 = 1e-3 * delta / (2.0 * (abs(x_lo) + x_hi + gamma * (E_P + beta * p_max) + root))

    def panels(lo, hi, f):
        cuts = {lo, hi}
        for a in (lo, hi, 0.0):
            if lo <= a <= hi:
                step = h0
                while step < hi - lo:
                    cuts.update(c for c in (a - step, a + step) if lo < c < hi)
                    step *= 2.0
        edges = np.array(sorted(cuts))
        mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
        nodes_x = mid[:, None] + half[:, None] * x_q
        return float(np.sum(half[:, None] * w_q * f(nodes_x)))

    def marginal(x):
        return np.exp(-(x**2) / delta)

    def inside(x):
        s = x - x_lo
        return np.exp(-(x_lo**2 + beta * s * (2.0 * E_lo + beta * s)) / delta)

    total = (
        panels(min(x_lo, 0.0) - 40.0 * root, x_lo, marginal)
        + panels(x_lo, x_hi, inside)
        + panels(x_hi, x_hi + 40.0 * root, marginal)
    )
    return total / np.sqrt(np.pi * delta)


# -- per-speed 3D quadratures on explicit azimuth nodes ------------------------


@dataclass(frozen=True)
class AzimuthGrid:
    """Flattened (p, cos theta, phi) nodes, phi fastest, with the 3D weights."""

    n_r: int
    n_theta: int
    p_max: float
    p: np.ndarray = field(repr=False)
    costheta: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.p.size


def azimuth_grid(n_r, n_theta, p_max, n_phi):
    """The library's radial and polar Gauss-Legendre rules times an n_phi-node azimuth rule.

    Flattened with phi fastest, radius slowest; the azimuth rule is the
    periodic trapezoid rule.
    """
    x_r, w_r = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * p_max * (x_r + 1.0)
    x_t, w_t = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    P, CT, PHI = np.meshgrid(r, x_t, phi, indexing="ij")
    W = np.einsum("i,j,k->ijk", 0.5 * p_max * w_r * r**2, w_t, np.full(n_phi, 2.0 * np.pi / n_phi))
    return AzimuthGrid(
        n_r=n_r, n_theta=n_theta, p_max=float(p_max),
        p=P.ravel(), costheta=CT.ravel(), phi=PHI.ravel(), weights=W.ravel(),
    )


def as_azimuth_grid(grid, n_phi=AZIMUTH_NODES):
    """``grid`` itself if it has azimuth nodes, else the node set of its (p, cos theta) lattice."""
    if isinstance(grid, AzimuthGrid):
        return grid
    return azimuth_grid(grid.n_r, grid.n_theta, grid.p_max, n_phi)


def pair_amplitudes(dist, b, grid, spin):
    """Rotated spin amplitude D_p Phi D_q^T at every azimuth-grid node, shape (2, 2, size).

    Phi is the two-spin amplitude as a 2x2 matrix and q = sign * p the
    companion momentum of the delta-correlated pair; for q = -p the
    companion sits at polar cosine -cos(theta) and azimuth phi + pi.
    """
    Dp = wigner_matrix(wigner_angle(grid.p, grid.costheta, b.beta), grid.phi)
    if dist.sign == 1:
        Dq = Dp
    else:
        Dq = wigner_matrix(wigner_angle(grid.p, -grid.costheta, b.beta), grid.phi + np.pi)
    return np.einsum("abn,bc,dcn->adn", Dp, np.asarray(spin).reshape(2, 2), Dq)


def xstate_stats_3d(dist, b, grid):
    """``entanglement.xstate_stats`` as a 3D quadrature of the rotated up-up amplitudes."""
    w = grid.weights * dist.density1(grid.p**2)
    (a, b_), (c_, d) = pair_amplitudes(dist, b, grid, spin_up_up())
    mean = lambda x: complex(np.sum(w * x))
    diag = np.array([mean(np.abs(x) ** 2).real for x in (a, b_, c_, d)])
    return diag, mean(a * np.conj(d)), mean(b_ * np.conj(c_))


def reduced_spin_density_3d(state, b, grid):
    """Reduced spin density as a 3D quadrature, for either momentum distribution.

    For a delta-correlated distribution the companion momentum is +/-p and a
    single quadrature of the rotated projector suffices.  For a product
    distribution the two-spin map factorises into identical single-particle
    channels, each a quadrature of D (x) D*.  Trace-checked like the library.
    """

    def checked(rho):
        if not (abs(np.trace(rho).real - 1.0) <= TRACE_TOL):
            raise GridCoverageError(f"reduced_spin_density_3d: trace {np.trace(rho).real:.6f}")
        return rho

    grid = as_azimuth_grid(grid)
    w = grid.weights * state.dist.density1(grid.p**2)
    if isinstance(state.dist, EntangledMomentum):
        psi = pair_amplitudes(state.dist, b, grid, state.spin).reshape(4, -1)
        return checked(np.einsum("n,in,jn->ij", w, psi, psi.conj()))

    D = wigner_matrix(wigner_angle(grid.p, grid.costheta, b.beta), grid.phi)
    # single-particle channel X -> int w D X D^dag as T[a, a', c, c'] acting on X[c, c']
    T = np.einsum("n,acn,bdn->abcd", w, D, D.conj())
    # rho0[c, d, c', d'] over (qubit A, qubit B, primed A, primed B)
    rho0 = np.outer(state.spin, state.spin.conj()).reshape(2, 2, 2, 2)
    return checked(np.einsum("aick,bjdl,cdkl->abij", T, T, rho0).reshape(4, 4))


def reduced_spin_density_two_angles(state, b, grid):
    """``relstate.reduced_spin_density`` with both Wigner angles evaluated and summed on nodes.

    The radial rule is the grid's and cos(theta) is integrated on
    ``polar_rule``.  The q = -p companion's angles come from their own
    ``wigner_angle`` call at -cos(theta), and the 4x4 moment matrix G of
    a = (c_p c_q, s_p c_q, sign c_p s_q, sign s_p s_q) is summed entry by entry
    (ten pairwise sums of 5-factor products) rather than gathered from a 3x3 moment.
    """
    dist = state.dist
    x, w_x = polar_rule()
    w = grid.radial_weights * dist.density1(grid.p**2) * w_x
    beta = b.nodewise().beta

    def half_cos_sin(costheta):
        omega = wigner_angle(grid.p, costheta, beta)
        return np.cos(omega / 2.0), np.sin(omega / 2.0)

    c_p, s_p = half_cos_sin(x)
    c_q, s_q = (c_p, s_p) if dist.sign == 1 else half_cos_sin(-x)
    factors = ((c_p, c_q), (s_p, c_q), (c_p, s_q), (s_p, s_q))
    signs = (1, 1, dist.sign, dist.sign)
    G = np.empty(np.broadcast_shapes(np.shape(beta), w.shape)[:-2] + (4, 4))
    for k in range(4):
        for l in range(k, 4):
            moment = np.sum(w * factors[k][0] * factors[k][1] * factors[l][0] * factors[l][1],
                            axis=(-2, -1))
            G[..., k, l] = G[..., l, k] = signs[k] * signs[l] * moment
    return np.einsum("...kl,klij->...ij", G, azimuth_tensor(state.spin, AZIMUTH_NODES))


def bell_ABCD_3d(dist, b, grid):
    """``entanglement.bell_ABCD`` with the second-harmonic azimuth moments summed on the nodes."""
    w = grid.weights * dist.density1(grid.p**2)
    norm = float(np.sum(w))
    c2_node = np.cos(wigner_angle(grid.p, grid.costheta, b.beta) / 2.0) ** 2
    s2_node = 1.0 - c2_node
    c2 = float(np.sum(w * c2_node))
    s2 = float(np.sum(w * s2_node))
    tc = float(np.sum(w * s2_node * np.cos(2.0 * grid.phi)))
    ts = float(np.sum(w * s2_node * np.sin(2.0 * grid.phi)))
    A = c2**2 + 0.5 * (s2**2 + tc**2 - ts**2)
    B = c2 * (s2 - tc)
    C = 0.5 * (s2**2 - tc**2 + ts**2)
    D = c2 * (s2 + tc)
    return ABCDValues(A=A, B=B, C=C, D=D, eta=2.0 * s2 / norm)


def fidelity_3d(state, b, grid):
    """``entanglement.fidelity`` with the full 2x2 moment matrix summed on the nodes.

    The matrix acts on ``state``'s spin amplitude, which the library drops as
    the matrix is the identity times its cos(Omega/2) moment.
    """
    dist = state.dist
    boosted_sq, jac = _boosted_args(grid, b)
    w = grid.weights * np.sqrt(jac) * dist.amplitude1(boosted_sq) * dist.amplitude1(grid.p**2)
    omega = wigner_angle(grid.p, grid.costheta, b.beta)
    ws = w * np.sin(omega / 2.0)
    M = su2_matrix(
        np.sum(w * np.cos(omega / 2.0)),
        np.sum(ws * np.cos(grid.phi)),
        np.sum(ws * np.sin(grid.phi)),
    )
    overlap = complex(state.spin.conj() @ (np.kron(M, M) @ state.spin))
    return float(abs(overlap) ** 2)


def validate_density(rho, herm_tol=1e-10, trace_tol=1e-8, psd_tol=1e-8):
    """Raise ValueError unless the 4x4 density is Hermitian, unit-trace and PSD."""
    m = np.asarray(rho, dtype=complex)
    if not (np.max(np.abs(m - m.conj().T)) <= herm_tol):
        raise ValueError("density is not Hermitian within tolerance")
    tr = np.trace(m)
    if not (abs(tr.real - 1.0) <= trace_tol and abs(tr.imag) <= trace_tol):
        raise ValueError(f"trace deviates from 1: {tr}")
    if np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0)) < -psd_tol:
        raise ValueError("density has a negative eigenvalue beyond tolerance")
    return rho


def bell_density_from_ABCD(v):
    """The reduced Bell-spin density (..., 4, 4) determined by the four weights."""
    A, B, C, D = np.broadcast_arrays(v.A, v.B, v.C, v.D)
    rho = np.zeros(A.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = rho[..., 3, 3] = (A + D) / 2
    rho[..., 0, 3] = rho[..., 3, 0] = (A - D) / 2
    rho[..., 1, 1] = rho[..., 2, 2] = (B + C) / 2
    rho[..., 1, 2] = rho[..., 2, 1] = -(B - C) / 2
    return rho


def partial_transpose(rho):
    """Transpose the second party's indices of 4x4 two-qubit matrices (last two axes)."""
    m = np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected 4x4 matrices, got shape {m.shape}")
    lead = m.shape[:-2]
    return m.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(lead + (4, 4))


def xstate_density(diag, rho03, rho12):
    """The X-state density (..., 4, 4) with diagonal ``diag`` (..., 4) and coherences rho03, rho12."""
    diag = np.asarray(diag, dtype=float)
    rho = np.zeros(diag.shape[:-1] + (4, 4), dtype=complex)
    rho[..., range(4), range(4)] = diag
    rho[..., 0, 3], rho[..., 1, 2] = rho03, rho12
    rho[..., 3, 0], rho[..., 2, 1] = np.conj(rho03), np.conj(rho12)
    return rho


def xstate_entries(rho):
    """(diagonal (..., 4), rho03, rho12) of X-state densities (..., 4, 4)."""
    m = np.asarray(rho, dtype=complex)
    return np.diagonal(m, axis1=-2, axis2=-1).real, m[..., 0, 3], m[..., 1, 2]


def xstate_concurrence(rho):
    """Wootters concurrence (PRL 80, 2245 (1998)) of X-states, in Yu and Eberly's closed form.

    C = 2 max(0, |rho03| - sqrt(rho11 rho22), |rho12| - sqrt(rho00 rho33));
    only the X entries of ``rho`` are read.
    """
    d, rho03, rho12 = xstate_entries(rho)
    corner = np.abs(rho03) - np.sqrt(d[..., 1] * d[..., 2])
    middle = np.abs(rho12) - np.sqrt(d[..., 0] * d[..., 3])
    return 2.0 * np.maximum(0.0, np.maximum(corner, middle))


def mean_abs_products(dist, b, grid):
    """<|a d*|> and <|b c*|> of the rotated up-up amplitudes of a delta-correlated pair.

    The two moduli are equal at every node, hence under any common average;
    with Cauchy-Schwarz this carries the separability conclusion.  They are
    not trigonometric polynomials in phi, so unlike the density aggregates of
    ``xstate_stats`` they are not integrated exactly by the azimuth rule.
    """
    grid = as_azimuth_grid(grid)
    w = grid.weights * dist.density1(grid.p**2)
    (a, b_), (c, d) = pair_amplitudes(dist, b, grid, spin_up_up())
    return float(np.sum(w * np.abs(a * d))), float(np.sum(w * np.abs(b_ * c)))


# -- per-momentum scalar API ----------------------------------------------------


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


def spin_kernel(p: FourMomentum, q: FourMomentum, b: Boost) -> np.ndarray:
    """D(Omega_p) tensor D(Omega_q), the unitary acting on the two-spin amplitude."""
    return np.kron(wigner_rotation(p, b).matrix, wigner_rotation(q, b).matrix)


def abcd(p: FourMomentum, q: FourMomentum, b: Boost) -> np.ndarray:
    """Rotated amplitudes of an initially up-up spin pair at momenta (p, q)."""
    return spin_kernel(p, q, b)[:, 0]


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
    grid = as_azimuth_grid(grid)
    w = grid.weights * dist.density1(grid.p**2)
    omega_p, omega_m = signed_companion_angles(grid.p, grid.costheta, b.beta)
    X, Y, Z, W = xyzw_from_angles(omega_p, omega_m, grid.phi)
    kernel = X**2 - Y**2 - Z**2 + W**2
    return float(np.sign(ax) * np.sign(bx) * np.sum(w * kernel))
