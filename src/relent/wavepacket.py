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
rule computed once per process by the Golub-Welsch eigenvalue method
(``gauss_legendre``).  Every production integrand depends on the azimuth
through a trigonometric polynomial whose phi-average the kernels take in
closed form or on a fixed exact rule of ``AZIMUTH_NODES`` nodes, so the polar
weights carry the whole 2 pi.  The weights stay separable: a kernel contracts
its (p, cos(theta)) integrand with the polar weights first and the radial
weights second, or integrates cos(theta) in closed form and uses the radial
rule alone, and never forms the lattice of their products.  Every sum runs in
a fixed order, so results are bit-identical across runs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "GaussianProduct",
    "EntangledMomentum",
    "QuadratureGrid",
    "GridCoverageError",
    "build_grid",
    "default_p_max",
    "gauss_legendre",
    "AZIMUTH_NODES",
]

#: Periodic trapezoid nodes in phi.  A boost along x turns each spin about the
#: axis normal to the plane of the boost and the momentum, so every production
#: integrand is a trigonometric polynomial in phi: of degree <= 2 for
#: ``fidelity`` and ``bell_ABCD``, and of degree <= 4 for psi psi^dag with
#: psi = D_p Phi D_q^T (each Wigner matrix is of degree 1).  An n-node
#: periodic trapezoid rule integrates e^{ik phi} exactly for |k| < n, so 5
#: nodes are exact for all of them (Trefethen & Weideman, SIAM Rev. 56, 385
#: (2014)); 4 nodes alias the fourth harmonic.  The first two kernels need
#: only the vanishing averages of cos(phi), sin(phi) and their doubles and take
#: them in closed form; the pair density sums its fixed phi tensor on this rule.
AZIMUTH_NODES = 5


class GridCoverageError(Exception):
    """Raised when a quadrature grid demonstrably fails to cover an integrand."""


class _Gaussian:
    """Isotropic Gaussian radial profile of width delta (m^2 units), or of an array of widths.

    An array has a grid's cutoff axes, (n_delta, 1); ``nodes_delta`` adds the
    two node axes of the |p|^2 that ``density1`` and ``amplitude1`` take."""

    def __init__(self, delta):
        if not np.all(np.asarray(delta) > 0.0):
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = delta if np.ndim(delta) == 0 else np.asarray(delta, dtype=float)
        self.nodes_delta = self.delta if np.ndim(delta) == 0 else self.delta[..., None, None]

    @property
    def norm(self):
        """N with integral of N exp(-p^2/delta) over R^3 equal to 1."""
        return (np.pi * self.delta) ** (-1.5)

    def density1(self, p_sq):
        """|f1(p)|^2 = N exp(-p^2/delta) from |p|^2; integrates to 1 over R^3."""
        d = self.nodes_delta
        return (np.pi * d) ** (-1.5) * np.exp(-np.asarray(p_sq, dtype=float) / d)


class GaussianProduct(_Gaussian):
    """Product of two isotropic Gaussian wavepackets of common width delta."""

    def amplitude1(self, p_sq):
        """Single-particle amplitude f1(p) = sqrt(N exp(-p^2/delta)), from |p|^2."""
        d = self.nodes_delta
        return np.sqrt((np.pi * d) ** (-1.5)) * np.exp(-np.asarray(p_sq, dtype=float) / (2.0 * d))


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


def default_p_max(delta, beta=0.0, m: float = 1.0) -> np.ndarray:
    """Radial cutoff policy: 6 sqrt(delta) plus boost headroom.

    The headroom gamma*beta*(m + 7 sqrt(delta)) keeps the inverse-boosted
    image of the Gaussian bulk inside the grid.  The mass it leaves outside is
    1.6e-15 at beta = 0 and at most 7.42e-7 for every width in [1e-12, 1e12]
    and beta up to the cap, largest at width 1e12 and the cap
    (``tests/test_entanglement.py::TestPolicyCutoff``).  ``fidelity`` requires
    at least this cutoff.  Broadcasts over delta and beta.
    """
    root = np.sqrt(delta)
    gamma = 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
    return 6.0 * root + np.maximum(0.0, gamma * beta * (m + 7.0 * root))


class QuadratureGrid(NamedTuple):
    """Tensor rule in (p, cos(theta)): Gauss-Legendre in both, azimuth exact.

    ``p`` and ``radial_weights`` = p_max/2 w_r p^2 have shape (..., n_r, 1),
    the leading axes those of ``p_max`` (one radial rule per cutoff), and
    ``costheta`` and ``polar_weights`` = 2 pi w_cos shape (n_theta,); a node's
    weight is their product.  The kernels fold the azimuth in exactly (see
    ``AZIMUTH_NODES``), so only n_r, n_theta and p_max set the resolution.
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


def _legendre(n: int, x: np.ndarray) -> tuple:
    """P_n(x) and P_n'(x) by the three-term recurrence, for x inside (-1, 1)."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node count.

    Golub-Welsch (Math. Comp. 23, 221 (1969)): the nodes are the eigenvalues
    of the symmetric Jacobi matrix of the Legendre recurrence, off-diagonal
    k / sqrt(4 k^2 - 1), polished by two Newton steps on P_n.  The weights are
    2 / ((1 - x^2) P_n'(x)^2) at the second step's x, where P_n' is already
    known, symmetrised and scaled to sum to 2.  The arrays are shared between
    callers, so they are read-only.
    """
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    for _ in range(2):
        p, dp = _legendre(n, x)
        x, x_prev = x - p / dp, x
    w = 2.0 / ((1.0 - x_prev * x_prev) * dp * dp)
    w = (w + w[::-1]) / 2.0
    return _read_only((x - x[::-1]) / 2.0, w * (2.0 / np.sum(w)))


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
