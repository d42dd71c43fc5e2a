"""Bipartite spin-momentum states, their boosted form, and reduced densities.

A state is a normalised momentum amplitude f(p, q) tensored with a
four-component two-spin amplitude.  Under an x-axis boost each particle's
spin picks up its own momentum-dependent Wigner rotation, so the boosted
spin content at momenta (p, q) is ``(D(p) x D(q)) |spin>``.

The reduced spin density of a delta-correlated pair integrates
|f|^2-weighted projectors of the rotated spin state (the invariant-measure
Jacobians cancel identically in the partial trace, so none appear here), for
all widths and boost speeds at once as one moment form on the (delta, beta,
p) radial rule; it is a plain complex array of shape (..., 4, 4) over the
basis (uu, ud, du, dd).  The Wigner angle enters through t from
``wigner_tan_product`` alone: the moment form reduces to five even polar
moments of the squared half-angle cosines and sines, which are rational in
cos(theta) and are integrated over it in closed form (``_polar_moments``).
For a product packet the spin-traced momentum density and the product of its
marginals share one positive factor, the Jacobians times the amplitudes, so
``momentum_density_samples`` evaluates only their spin factors on a finite set
of coordinate pairs (spin algebra in real quaternions, no quadrature), and
``product_distance`` gives their relative gap, one scalar per (width, speed).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from relent.kinematics import Boost, wigner_half_angle, wigner_tan_product
from relent.wavepacket import EntangledMomentum, GaussianProduct, QuadratureGrid, normalised


def bell_phi_plus() -> np.ndarray:
    """(|uu> + |dd>)/sqrt(2) over the basis (uu, ud, du, dd)."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def spin_up_up() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


class BipartiteState:
    """Momentum distribution tensored with a unit-norm two-spin amplitude."""

    def __init__(self, dist, spin):
        spin = np.asarray(spin, dtype=complex)
        if spin.shape != (4,):
            raise ValueError(f"spin amplitude must have 4 components, got shape {spin.shape}")
        norm = np.sqrt(np.sum(np.abs(spin) ** 2))
        if not abs(norm - 1.0) <= 1e-12:  # a NaN fails
            raise ValueError(f"spin amplitude must be unit norm, |norm - 1| = {abs(norm - 1.0):.3e}")
        if not isinstance(dist, (GaussianProduct, EntangledMomentum)):
            raise TypeError(f"unsupported distribution type: {type(dist).__name__}")
        self.dist, self.spin = dist, spin


#: the quaternion units E = (1, i sigma_x, i sigma_y, i sigma_z), and E_m x E_n
#: (4, 4, 4, 4) over the basis (uu, ud, du, dd)
_UNITS = np.array([[[1, 0], [0, 1]], [[0, 1j], [1j, 0]], [[0, 1], [-1, 0]], [[1j, 0], [0, -1j]]])
UNIT_PAIRS = np.einsum("mac,nbd->mnabcd", _UNITS, _UNITS).reshape(4, 4, 4, 4)


#: D_p Phi D_q^T spans the nine spin vectors v_mn = (E_m x E_n) Phi named below.  Over the azimuth
#: of J = cos(phi) E_z - sin(phi) E_y (<cos^2> = 1/2, <cos^4> = 3/8, <cos^2 sin^2> = 1/8), the
#: factor of moment class k = (M00, M20, M22, M11) averages to sum_ij W_kij v_i v_j^dag.
_SPIN_VECTORS = ("00", "20", "30", "02", "03", "22", "33", "23", "32")
_SPIN_OPERATORS = np.array([UNIT_PAIRS[int(m), int(n)] for m, n in _SPIN_VECTORS])
_CLASS_WEIGHTS = np.zeros((4, 9, 9))
for _k, _weight, _terms in (
    (0, 1.0, "00.00"),
    (1, 1 / 2, "20.20 30.30 02.02 03.03"),
    (2, 3 / 8, "22.22 33.33"),
    (2, 1 / 8, "22.33 33.22 23.23 23.32 32.23 32.32"),  # w = v23 + v32 gives ww^dag
    (3, 1 / 2, "00.22 22.00 00.33 33.00 20.02 02.20 30.03 03.30"),
):
    for _term in _terms.split():
        _CLASS_WEIGHTS[(_k, *map(_SPIN_VECTORS.index, _term.split(".")))] = _weight


def _moment_classes(spin: np.ndarray) -> np.ndarray:
    """The azimuth-averaged factors of M00, M20, M22 and M11 of the spin amplitude, (4, 4, 4)."""
    v = np.einsum("iab,b->ia", _SPIN_OPERATORS, spin)
    return np.einsum("ia,kij,jb->kab", v, _CLASS_WEIGHTS, v.conj())


#: phi2(t) = (atanh(t)/t - 1 - t^2/3) / t^4 = sum_k u^k / (2k + 5), u = t^2, as the series in
#: blocks of five powers below t = _PHI2_SWITCH, where the closed form cancels: there 25 terms
#: are within 2e-16 of phi2 and the closed form within 8e-15, both relative
_PHI2_SERIES = (1.0 / (2.0 * np.arange(25) + 5.0)).reshape(5, 5)
_PHI2_SWITCH = 0.5

#: rows (P_00, P_02, P_22, P_11, Q_00, Q_02, Q_22, Q_11, D) of ``_polar_moments`` by the
#: coefficients of u^0..u^5, for each companion sign
_POLAR_MOMENTS = {sign: np.array(rows, dtype=float) for sign, rows in (
    (-1, [[48, -16, -31, 7, 7, 1], [0, 32, 3, 1, -3, -1], [0, 0, 25, -9, -1, 1],
          [0, -32, 11, 9, -3, -1], [0, 0, 27, 18, 3, 0], [0, 0, -15, -6, -3, 0],
          [0, 0, 3, -6, 3, 0], [0, 0, 9, -6, -3, 0], [24, 24, 0, 0, 0, 0]]),
    (1, [[12, -16, 9, 0, -1, 0], [0, 8, -8, 1, 1, 0], [0, 0, 7, -2, -1, 0],
         [0, 8, -8, 1, 1, 0], [0, 0, 3, -3, 0, 0], [0, 0, 0, 3, 0, 0],
         [0, 0, -3, -3, 0, 0], [0, 0, 0, 3, 0, 0], [6, 0, 0, 0, 0, 0]]),
)}


def _polar_moments(t, sign: int) -> np.ndarray:
    """The five even polar moments int P_a Q_b dcos(theta) over [-1, 1], shape (4,) + t.shape.

    With x = cos(theta), c^2 = (1 + t x)^2 / (1 + t^2 + 2 t x) and s^2 = t^2
    (1 - x^2) / (1 + t^2 + 2 t x) for the particle, and the same at sign x for
    its companion.  The moments (M_00, M_02 = M_20, M_22, sign M_11) of P =
    (c_p^2, c_p s_p, s_p^2) and Q = (c_q^2, c_q s_q, s_q^2) are rational in x,
    so each is (P(u) + psi Q(u)) / D(u) with psi = (1 - u)^2 phi2(t) and
    polynomials P, Q, D in u = t^2 (``_POLAR_MOMENTS``), in which no term
    cancels as t -> 0 or t -> 1; t = 0 gives (2, 0, 0, 0) exactly.
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    powers = np.ones((6, flat.size))  # u^0 .. u^5
    np.cumprod(np.broadcast_to(flat * flat, (5, flat.size)), axis=0, out=powers[1:])
    blocks = np.einsum("ij,jn->in", _PHI2_SERIES, powers[:5])
    psi = blocks[4]
    for j in (3, 2, 1, 0):
        psi *= powers[5]
        psi += blocks[j]
    big = flat >= _PHI2_SWITCH
    if np.any(big):
        tc = np.maximum(flat, _PHI2_SWITCH)
        uc = tc * tc
        np.copyto(psi, (np.arctanh(tc) / tc - 1.0 - uc / 3.0) / (uc * uc), where=big)
    psi *= np.square(1.0 - powers[1])
    terms = np.einsum("ij,jn->in", _POLAR_MOMENTS[sign], powers)
    moments = terms[4:8] * psi
    moments += terms[:4]
    moments /= terms[8]
    return moments.reshape((4,) + t.shape)


def reduced_spin_density(state: BipartiteState, b: Boost, grid: QuadratureGrid) -> np.ndarray:
    """Spin density of a delta-correlated pair after boosting and tracing out both momenta.

    With J = cos(phi) E_z - sin(phi) E_y, D_p Phi D_q^T = sum_k a_k X_k for X = (Phi, J Phi,
    Phi J^T, J Phi J^T) and the real, phi-free a = (c_p c_q, s_p c_q, sign c_p s_q, sign s_p
    s_q) (c, s of half the Wigner angle), so rho = sum_kl G_kl <X_k X_l^dag>, <.> the
    azimuth average and G the moment matrix of a over the (delta, beta, p) radial rule.  As
    a_{i+2j} is a product of a p factor i and a q factor j, G[i + 2j, k + 2l] = M[i + k, j +
    l] for the 3x3 moment M_ab = int w P_a Q_b of P = (c_p^2, c_p s_p, s_p^2) and Q = (c_q^2,
    sign c_q s_q, s_q^2).  Only the five M_ab with a + b even are nonzero, each integrated
    over cos(theta) in closed form (``grid.n_theta`` plays no part), so rho is summed by
    moment class, M00 C00 + M20 C20 + M22 C22 + M11 C11, each factor C a closed-form azimuth
    average of spin vectors (``_moment_classes``).  The real moments are divided by rho's trace
    sum_k M_k tr C_k once ``normalised`` has checked it, so rho has trace 1 (no complex division).
    """
    dist = state.dist
    if not isinstance(dist, EntangledMomentum):
        raise TypeError("reduced_spin_density requires a delta-correlated momentum distribution")
    w = 2.0 * np.pi * (grid.radial_weights * dist.density1(grid.p**2))[..., 0]
    t = wigner_tan_product(grid.p[..., 0], np.expand_dims(b.beta, -1))
    t = np.broadcast_to(t, np.broadcast_shapes(t.shape, w.shape))  # widths on a shared cutoff
    moments = np.sum(_polar_moments(t, dist.sign) * w, axis=-1)
    classes = _moment_classes(state.spin)
    trace = np.einsum("k...,k->...", moments, np.trace(classes, axis1=1, axis2=2).real)
    return np.einsum("k...,kab->...ab", normalised(moments, trace, "reduced_spin_density"), classes)


def momentum_density_samples(state: BipartiteState, b: Boost, radii, directions):
    """(overlaps, overlap_products): the spin factors of the boosted spin-traced density.

    On ``default_sample_pairs``' pairs as drawn: ``radii`` (n_delta, n, 4) of the slots (p,
    q, p', q') and ``directions`` (n, 2, 4), each particle's (cos theta, sin theta, cos phi,
    sin phi), p' on p's ray and q' on q's; both results have shape (n_delta, n_beta, n), or
    (n_delta, 1, n) for one speed.  The element <p,q|rho'|p',q'> is sqrt(J_p J_q J_p' J_q')
    f(p,q) f*(p',q') <Phi|K'^dag K|Phi>, K the two-particle Wigner kernel and J the energy
    ratios, and the marginal product <p|rho_A|p'><q|rho_B|q'> is the same positive factor
    times the product of the single-party overlaps, the companion traced out exactly (a
    Wigner rotation is unitary and d^3p/p^0 invariant, so the companion's trace int |f1(L^-1
    q)|^2 (L^-1 q)^0/q^0 d^3q is 1).  Their ratio cancels the factor, so the sampler returns
    the spin overlap and the product of the single-party overlaps alone.  On a diagonal row
    (equal radii) D^dag D is the identity, so each diagonal overlap must lie within 1e-12 of
    <Phi|Phi>.

    p' shares p's azimuth phi, so with (c, s) = (cos, sin)(Omega/2) D_p'^dag D_p is one
    rotation about the particle's own axis, (c'c + s's, 0, d sin(phi), -d cos(phi)) in E, d
    = s'c - c's, and <Phi|A x B|Phi> = a T b with T_mn = <Phi|E_m x E_n|Phi>, in real
    arithmetic over T's nonzero real and imaginary entries alone.

    At fixed coordinates the elements depart further from the marginal
    product as beta grows: the Wigner-phase difference between two radii
    along one direction rises as the boost saturates and levels off at
    O(1/p).  Factorization is therefore reached only in the joint limit of
    ultra-relativistic boost and momenta.  All speeds of ``b`` and all widths
    are evaluated at once.
    """
    if not isinstance(state.dist, GaussianProduct):
        raise TypeError("momentum_density_samples requires a product momentum distribution")
    T = np.einsum("mnab,a,b->mn", UNIT_PAIRS, state.spin.conj(), state.spin)  # <Phi|E_m x E_n|Phi>
    T = T[np.ix_((0, 2, 3), (0, 2, 3))]  # E_x, the boost axis, has no part in either rotation

    # half-angles of all four slots, (width, speed, slot, pair): the long pair axis innermost
    cos_t, sin_t, cos_phi, sin_phi = np.transpose(directions)  # (particle, pair) each
    c, s = wigner_half_angle(np.swapaxes(radii, -1, -2)[:, None], np.tile(cos_t, (2, 1)),
                             b.nodewise().beta, sintheta=np.tile(sin_t, (2, 1)))
    # D_p'^dag D_p and D_q'^dag D_q, three arrays each, from slots (0, 2) and (1, 3)
    qa, qb = [], []
    for q, k in ((qa, 0), (qb, 1)):
        c0, s0, c1, s1 = c[..., k, :], s[..., k, :], c[..., k + 2, :], s[..., k + 2, :]
        d = s1 * c0 - c1 * s0
        q += [c1 * c0 + s1 * s0, d * sin_phi[k], -d * cos_phi[k]]
    del c, s, c0, s0, c1, s1, d  # free the half-angles before the contraction

    # <Phi|A x B|Phi> = sum_mn T_mn a_m b_n and its marginals sum_m T_m0 a_m and sum_n T_0n b_n
    # as (real, imaginary) parts, each summed over T's nonzero entries alone
    parts = T.real.tolist(), T.imag.tolist()
    spin_sum = [sum(v * qa[m] * qb[n] for m, row in enumerate(t) for n, v in enumerate(row) if v)
                for t in parts]
    spin_a = [sum(row[0] * qa[m] for m, row in enumerate(t) if row[0]) for t in parts]
    spin_b = [sum(v * qb[n] for n, v in enumerate(t[0]) if v) for t in parts]

    overlaps = spin_sum[0] + 1j * spin_sum[1]
    diag = np.all(radii[:, None, :, :2] == radii[:, None, :, 2:], axis=-1)  # p' = p and q' = q
    if not np.all((np.abs(overlaps - T[0, 0]) <= 1e-12) | ~diag):  # a NaN fails
        raise ValueError("diagonal spin overlaps must lie within 1e-12 of <Phi|Phi>")
    return overlaps, (spin_a[0] + 1j * spin_a[1]) * (spin_b[0] + 1j * spin_b[1])


_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


@lru_cache(maxsize=16)
def _pcg64_doubles(seed: int, count: int) -> np.ndarray:
    """The first ``count`` doubles of ``np.random.default_rng(seed).random()``, bit for bit.

    NumPy's ``SeedSequence`` hashes the seed's 32-bit words into the 128-bit
    state and increment of a PCG64 generator (O'Neill, HMC-CS-2014-0905),
    whose XSL-RR outputs give (x >> 11) 2^-53.  Written out here so that a
    sweep never imports ``numpy.random``: the 128-bit state steps in Python
    integers and the outputs are formed in numpy.  Each stream is drawn once
    per process and shared, as a read-only array, by every width of a sweep.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return x ^ x >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        words.append(value ^ value >> 16)
    # four little-endian 64-bit words: (state high, state low, increment high, low)
    w = [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]
    mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, (w[2] << 65 | w[3] << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * mult + inc) & _M128
    states = []
    for _ in range(count):
        state = (state * mult + inc) & _M128
        states.append(state)
    # XSL-RR on the 64-bit halves: rotate hi ^ lo right by the top 6 bits of the state
    raw = b"".join(v.to_bytes(16, "little") for v in states)
    lo, hi = np.frombuffer(raw, dtype="<u8").reshape(-1, 2).T
    x, rot = hi ^ lo, hi >> np.uint64(58)
    x = x >> rot | x << (-rot & np.uint64(63))
    out = (x >> np.uint64(11)) * 2.0**-53
    out.flags.writeable = False
    return out


#: coordinate pairs the factorization check draws per width
SAMPLE_PAIRS = 64


def default_sample_pairs(dist: GaussianProduct, n: int = SAMPLE_PAIRS, *, seed: int) -> tuple:
    """Deterministic momentum pairs for the factorization check, (radii, directions) as drawn.

    Draws one direction per particle uniformly and four radii from the bulk of
    the radial density (deep tails excluded): the pairs differ only in radius
    along a fixed direction per particle, which is the coordinate direction the
    ultra-relativistic factorization statement addresses, and every fourth
    pair is diagonal (p' = p, q' = q).  ``radii`` (n_delta, n, 4) holds |p|,
    |q|, |p'| and |q'|, one draw scaled to each width of ``dist`` (a scalar
    width is one), and ``directions`` (n, 2, 4) each particle's (cos theta,
    sin theta, cos phi, sin phi).
    """
    # one row of uniforms per pair, columns in the order (cos theta, phi) of
    # each particle's direction, then the four radii
    low = np.array([-1.0, 0.0, -1.0, 0.0, 0.3, 0.3, 0.3, 0.3])
    high = np.array([1.0, 2.0 * np.pi, 1.0, 2.0 * np.pi, 2.5, 2.5, 2.5, 2.5])
    u = low + (high - low) * np.reshape(_pcg64_doubles(seed, 8 * n), (n, 8))
    ct, ph = u[:, [0, 2]], u[:, [1, 3]]
    radii = np.sqrt(np.reshape(dist.delta, (-1, 1, 1))) * u[:, 4:]
    radii[:, ::4, 2:] = radii[:, ::4, :2]
    return radii, np.stack((ct, np.sqrt(1.0 - ct * ct), np.cos(ph), np.sin(ph)), axis=-1)


def product_distance(elements, marginal_products):
    """Max guarded relative deviation of sampled elements from the marginal product.

    Taken over the pairs (last axis) of ``momentum_density_samples``' two
    spin factors, whose ratio is that of the elements to the marginal
    products, so a sample of several speeds gives one distance per speed.
    For fixed pairs it does not decrease with beta, and its saturated value
    falls as 1/delta with the width (9e-5, 9e-7, 9e-9 at widths 1e4, 1e6, 1e8
    and beta 0.9999).
    """
    if np.shape(elements)[-1] == 0:
        raise ValueError("sample is empty")
    dev = np.abs(elements - marginal_products) / (np.abs(marginal_products) + 1e-300)
    return np.max(dev, axis=-1)
