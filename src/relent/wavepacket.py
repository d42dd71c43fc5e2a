"""Momentum distributions and spherical quadrature grids.

Two two-particle momentum amplitudes are supported:

* ``GaussianProduct``: f(p, q) = f1(p) f1(q) with |f1(p)|^2 an isotropic
  Gaussian of width Delta (normalised so that the 3D integral is 1).
* ``EntangledMomentum``: |f(p, q)|^2 = |g(p)|^2 delta3(q - s p), the
  delta-correlated ("maximally entangled momentum") form.  The correlation
  sign s = -1 (back-to-back, q = -p) is the package default; s = +1 selects
  co-moving momenta.  The delta is always eliminated symbolically.

All 3D integrals use a tensor Gauss-Legendre grid: radial nodes mapped to
[0, p_max], polar nodes in cos(theta), uniform periodic azimuth nodes.
Callers integrate as ``np.sum(grid.weights * values)``, numpy's pairwise
reduction over a fixed node ordering, so results are bit-identical across
runs and worker counts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "GaussianProduct",
    "EntangledMomentum",
    "QuadratureGrid",
    "GridCoverageError",
    "build_grid",
    "default_p_max",
    "gauss_legendre",
]


class GridCoverageError(Exception):
    """Raised when a quadrature grid demonstrably fails to cover an integrand."""


@dataclass(frozen=True)
class _Gaussian:
    """Isotropic Gaussian radial profile of width delta (m^2 units)."""

    delta: float

    def __post_init__(self):
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def norm(self) -> float:
        """N with integral of N exp(-p^2/delta) over R^3 equal to 1."""
        return float((np.pi * self.delta) ** (-1.5))

    def density1(self, p_sq):
        """|f1(p)|^2 = N exp(-p^2/delta) from |p|^2; integrates to 1 over R^3."""
        return self.norm * np.exp(-np.asarray(p_sq, dtype=float) / self.delta)


@dataclass(frozen=True)
class GaussianProduct(_Gaussian):
    """Product of two isotropic Gaussian wavepackets of common width delta."""

    def amplitude1(self, p_sq):
        """Single-particle amplitude f1(p) = sqrt(N exp(-p^2/delta)), from |p|^2."""
        return np.sqrt(self.norm) * np.exp(-np.asarray(p_sq, dtype=float) / (2.0 * self.delta))


@dataclass(frozen=True)
class EntangledMomentum(_Gaussian):
    """Delta-correlated pair amplitude with isotropic Gaussian radial profile.

    ``sign`` is the correlation sign s in q = s p; the default -1 gives the
    back-to-back pairing whose antipodal Wigner angles drive the spin-transfer
    analysis.
    """

    sign: int = -1

    def __post_init__(self):
        super().__post_init__()
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {self.sign}")


def default_p_max(delta: float, beta: float = 0.0, m: float = 1.0) -> float:
    """Radial cutoff policy: 6 sqrt(delta) plus boost headroom.

    The headroom gamma*beta*(m + 7 sqrt(delta)) keeps the inverse-boosted
    image of the Gaussian bulk inside the grid.  At extreme boosts the
    unreachable region approaches the half-space p_x < -(m + 7 sqrt(delta))/2,
    a > 4.9 sigma single-axis tail, so boosted-argument evaluation misses
    less than ~1e-6 of the mass for any beta.
    """
    root = np.sqrt(delta)
    gamma = 1.0 / np.sqrt((1.0 - beta) * (1.0 + beta))
    return float(6.0 * root + max(0.0, gamma * beta * (m + 7.0 * root)))


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Legendre grid in (p, cos(theta), phi).

    Flattened node arrays (length n_r * n_theta * n_phi, C order with phi
    fastest) carry the full 3D measure in ``weights``:
    w = w_r * p^2 * w_cos * w_phi.
    """

    n_r: int
    n_theta: int
    n_phi: int
    p_max: float
    p: np.ndarray = field(repr=False)
    costheta: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.p.size


def _read_only(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _cached_rule(n: int) -> tuple:
    return _read_only(*np.polynomial.legendre.leggauss(n))


_rule_lock = threading.Lock()


def gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node count.

    The arrays are shared between callers and threads, so they are read-only.
    The lock keeps two threads that miss the cache at once from both
    computing the rule.
    """
    with _rule_lock:
        return _cached_rule(n)


def build_grid(n_r: int, n_theta: int, n_phi: int, p_max: float) -> QuadratureGrid:
    """Deterministic node/weight sets; same inputs give bit-identical grids.

    The node and weight arrays are read-only, so one grid can be shared
    between the cells and threads of a sweep.
    """
    for name, n in (("n_r", n_r), ("n_theta", n_theta), ("n_phi", n_phi)):
        if n < 2:
            raise ValueError(f"{name} must be >= 2, got {n}")
    if not (p_max > 0.0):
        raise ValueError(f"p_max must be positive, got {p_max}")

    x_r, w_r = gauss_legendre(n_r)
    r = 0.5 * p_max * (x_r + 1.0)
    wr = 0.5 * p_max * w_r

    x_t, w_t = gauss_legendre(n_theta)

    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = np.full(n_phi, 2.0 * np.pi / n_phi)

    # flatten with phi fastest, radius slowest
    P = np.repeat(r, n_theta * n_phi)
    CT = np.tile(np.repeat(x_t, n_phi), n_r)
    PHI = np.tile(phi, n_r * n_theta)
    W = (
        np.repeat(wr * r**2, n_theta * n_phi)
        * np.tile(np.repeat(w_t, n_phi), n_r)
        * np.tile(wphi, n_r * n_theta)
    )
    _read_only(P, CT, PHI, W)
    return QuadratureGrid(
        n_r=n_r, n_theta=n_theta, n_phi=n_phi, p_max=float(p_max),
        p=P, costheta=CT, phi=PHI, weights=W,
    )
