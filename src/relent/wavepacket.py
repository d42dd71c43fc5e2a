"""Momentum distributions and spherical quadrature grids.

Two two-particle momentum amplitudes are supported:

* ``GaussianProduct``: f(p, q) = f1(p) f1(q) with |f1(p)|^2 an isotropic
  Gaussian of width Delta (normalised so that the 3D integral is 1).
* ``EntangledMomentum``: |f(p, q)|^2 = |g(p)|^2 delta3(q - s p), the
  delta-correlated ("maximally entangled momentum") form.  The correlation
  sign s = -1 (back-to-back, q = -p) is the package default; s = +1 selects
  co-moving momenta.  The delta is always eliminated symbolically.

All 3D integrals use a radial x polar tensor rule: Gauss-Legendre radial
nodes mapped to [0, p_max] and Gauss-Legendre polar nodes in cos(theta), each
rule computed once per process by Newton's method on the cosine series of P_n
(``gauss_legendre``), with no eigensolve.  A boost along x turns each spin
about the axis normal to the boost and the momentum, so every production
integrand is a trigonometric polynomial in the azimuth, whose average the
kernels take in closed form; the polar weights carry the whole 2 pi.  The
weights stay separable: a kernel contracts its (p, cos(theta)) integrand
with the polar weights first and the radial weights second, or integrates
cos(theta) in closed form and uses the radial rule alone, and never forms
the lattice of their products.  Every sum runs in a fixed order, so results
are bit-identical across runs.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from relent.kinematics import lorentz_factor


class GridCoverageError(ValueError):
    """Raised when a quadrature grid demonstrably fails to cover an integrand."""


#: largest tolerated |norm - 1| of a distribution on a quadrature grid
COVERAGE_TOL = 1e-4


def normalised(values, norm, kernel: str):
    """``values / norm`` for the grid's norms of a distribution, once each is within
    ``COVERAGE_TOL`` of 1; otherwise a ``GridCoverageError`` naming the worst (a NaN fails)."""
    if not np.all(np.abs(norm - 1.0) <= COVERAGE_TOL):
        worst = np.ravel(norm)[np.argmax(np.abs(np.ravel(norm) - 1.0))]  # argmax takes a NaN first
        raise GridCoverageError(
            f"{kernel}: distribution norm on the grid is {worst:.6f}; grid coverage insufficient"
        )
    return values / norm


class _Gaussian:
    """Isotropic Gaussian radial profile of width delta (m^2 units), or of an array of widths.

    An array has a grid's cutoff axes, (n_delta, 1); ``nodes_delta`` and ``nodes_norm`` add
    the two node axes of the |p|^2 that ``density1`` takes."""

    def __init__(self, delta):
        if not np.all(np.asarray(delta) > 0.0):
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = delta if np.ndim(delta) == 0 else np.asarray(delta, dtype=float)
        #: N = (pi delta)^-1.5, with the integral of N exp(-p^2/delta) over R^3 equal to 1
        self.norm = (np.pi * self.delta) ** (-1.5)
        self.nodes_delta, self.nodes_norm = (
            (self.delta, self.norm) if np.ndim(delta) == 0
            else (self.delta[..., None, None], self.norm[..., None, None]))

    def density1(self, p_sq):
        """|f1(p)|^2 = N exp(-p^2/delta) from |p|^2; integrates to 1 over R^3."""
        return self.nodes_norm * np.exp(-np.asarray(p_sq, dtype=float) / self.nodes_delta)


class GaussianProduct(_Gaussian):
    """Product of two isotropic Gaussian wavepackets of common width delta."""


class EntangledMomentum(_Gaussian):
    """Delta-correlated pair amplitude with isotropic Gaussian radial profile.

    ``sign`` is the correlation sign s in q = s p; the default -1 gives the
    back-to-back pairing whose antipodal Wigner angles drive the spin-transfer
    analysis.
    """

    def __init__(self, delta, sign: int = -1):
        super().__init__(delta)
        if sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {sign}")
        self.sign = sign


def default_p_max(delta, beta=0.0) -> np.ndarray:
    """Radial cutoff policy: 6 sqrt(delta) plus boost headroom.

    The headroom gamma*beta*(1 + 7 sqrt(delta)) keeps the inverse-boosted
    image of the Gaussian bulk inside the grid.  The mass it leaves outside is
    1.6e-15 at beta = 0 and at most 7.42e-7 for every width in [1e-12, 1e12]
    and beta up to the cap, largest at width 1e12 and the cap
    (``tests/test_entanglement.py::TestPolicyCutoff``).  ``fidelity`` builds
    its radial rule on this cutoff in each (width, speed) cell, whatever its
    grid's cutoff.  Broadcasts over delta and beta.
    """
    root = np.sqrt(delta)
    return 6.0 * root + np.maximum(0.0, lorentz_factor(beta) * beta * (1.0 + 7.0 * root))


class QuadratureGrid(NamedTuple):
    """Tensor rule in (p, cos(theta)): Gauss-Legendre in both, azimuth exact.

    ``p`` and ``radial_weights`` = p_max/2 w_r p^2 have shape (..., n_r, 1),
    the leading axes those of ``p_max`` (one radial rule per cutoff), and
    ``costheta`` and ``polar_weights`` = 2 pi w_cos shape (n_theta,); a node's
    weight is their product.  The kernels average the azimuth in closed form,
    so only n_r, n_theta and p_max set the resolution.
    ``size`` counts the lattice's nodes, n_r n_theta per cutoff.
    """

    n_r: int
    n_theta: int
    p_max: float
    p: np.ndarray
    costheta: np.ndarray
    radial_weights: np.ndarray
    polar_weights: np.ndarray

    @property
    def size(self) -> int:
        return self.radial_weights.size * self.n_theta


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node count.

    Newton in theta on the cosine series P_n(cos(theta)) = sum_k a_k a_{n-k}
    cos((n - 2k) theta), a_k = C(2k, k) / 4^k, its products of exact integers
    rounded once (Swarztrauber, SIAM J. Sci. Comput. 24, 945 (2002)): four steps from
    Tricomi's guess in theta, phi_k + (n - 1)/(8 n^3) cot(phi_k), phi_k = pi (4k - 1)/(4n + 2),
    converge for every n up to 1,024, and a fifth evaluation gives the weights 2 / (dP/dtheta)^2
    and corrects the nodes cos(theta) for theta's rounding.  The phases m theta are formed
    from Dekker's exact split of theta into a head of at most 26 bits and a tail, so none is
    rounded.  One half is computed and mirrored, so the rule is exactly symmetric.  No
    eigensolve or matrix product is involved.  The arrays are shared, so they are read-only.
    """
    m = np.arange(n, -1, -2.0)
    c = np.array([comb(2 * k, k) * comb(2 * (n - k), n - k) / 4**n for k in range(n // 2 + 1)])
    c[m > 0] *= 2.0
    phi = np.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    theta = phi + (n - 1) / (8.0 * n**3) * (np.cos(phi) / np.sin(phi))
    for _ in range(5):
        # Dekker's split theta = hi + lo, hi of at most 26 bits: m hi is exact for m <= 1,024
        # and m lo tiny, so no phase is rounded (rounded phases at m theta ~ 1e3 cost weights 1e-12)
        hi = theta * (2.0**27 + 1.0)
        hi -= hi - theta
        a, b = np.multiply.outer(hi, m), np.multiply.outer(theta - hi, m)
        cos_a, sin_a, cos_b, sin_b = np.cos(a), np.sin(a), np.cos(b), np.sin(b)
        p = np.sum((cos_a * cos_b - sin_a * sin_b) * c, axis=-1)
        dp = -np.sum((sin_a * cos_b + cos_a * sin_b) * (c * m), axis=-1)
        at, theta = theta, theta - p / dp
    x = np.cos(at) + np.sin(at) * (p / dp)  # descending
    x[n // 2:] = 0.0  # the middle node of an odd rule
    w = 2.0 / (dp * dp)
    return _read_only(np.concatenate((-x[:n // 2], x[::-1])), np.concatenate((w[:n // 2], w[::-1])))


def build_grid(n_r: int, n_theta: int, p_max) -> QuadratureGrid:
    """Deterministic node/weight sets; same inputs give bit-identical grids.

    ``p_max`` may be an array of cutoffs, which rescales the cached radial
    rule once per cutoff.  The node and weight arrays are read-only, so one
    grid can be shared between the speeds of a sweep.
    """
    for name, n in (("n_r", n_r), ("n_theta", n_theta)):
        if n < 2:
            raise ValueError(f"{name} must be >= 2, got {n}")
    cutoff = np.array(p_max, dtype=float)
    if not np.all(cutoff > 0.0):
        raise ValueError(f"p_max must be positive, got {p_max}")

    x_r, w_r = gauss_legendre(n_r)
    half = 0.5 * cutoff[..., None, None]
    P = half * (x_r + 1.0)[:, None]
    x_t, w_t = gauss_legendre(n_theta)
    radial, polar = half * w_r[:, None] * P**2, 2.0 * np.pi * w_t
    _read_only(cutoff, P, radial, polar)
    return QuadratureGrid(
        n_r=n_r, n_theta=n_theta, p_max=cutoff[()], p=P, costheta=x_t,
        radial_weights=radial, polar_weights=polar,
    )
