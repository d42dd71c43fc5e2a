#!/usr/bin/env python3
"""Run the two entanglement-transfer analyses and the correlation limit.

Prints, per boost speed:
  * the partial-transpose inequality margins of the spin state reduced from a
    momentum-entangled, spin-product pair (both must stay <= 0: no transfer
    of momentum entanglement into the spins),
  * the factorization distance of the spin-traced momentum density for a
    Bell-spin, product-momentum pair at ultra-relativistic coordinates (stays
    tiny: no transfer of spin entanglement into the momenta),
  * the longitudinal quantum correlation of a doubly entangled narrow-packet
    pair, approaching the classical sign product near light speed.
"""

import sys

import numpy as np

from relent.correlations import ObservableDirection, classical_correlation, quantum_correlation
from relent.entanglement import xstate_pt_spectrum, xstate_stats
from relent.kinematics import Boost
from relent.relstate import (
    BipartiteState,
    bell_phi_plus,
    default_sample_pairs,
    momentum_density_samples,
    product_distance,
)
from relent.wavepacket import EntangledMomentum, GaussianProduct, build_grid, default_p_max

#: a margin above this certifies a negative partial-transpose eigenvalue
MARGIN_TOL = 1e-9


def main() -> int:
    betas = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999]

    grid = build_grid(32, 32, default_p_max(1.0))
    em = EntangledMomentum(1.0, sign=-1)
    print("momentum-entangled, spin-product pair (width 1):")
    print("  beta     corner margin   middle margin   verdict")
    for beta in betas:
        _, corner, middle = xstate_pt_spectrum(*xstate_stats(em, Boost(beta), grid))
        verdict = "entangled" if max(corner, middle) > MARGIN_TOL else "separable (PPT)"
        print(f"  {beta:7.4f}  {corner:+.3e}     {middle:+.3e}   {verdict}")

    print()
    print("Bell-spin, product-momentum pair (bulk momenta ~ 1e3 m):")
    ur = GaussianProduct(1.0e6)
    state = BipartiteState(ur, bell_phi_plus())
    pairs = default_sample_pairs(ur, n=64, seed=42)
    print("  beta     factorization distance")
    for beta in betas:
        d = product_distance(*momentum_density_samples(state, Boost(beta), pairs))
        print(f"  {beta:7.4f}  {d:.3e}")

    print()
    print("doubly entangled narrow pair (width 0.01), measurement along the boost axis:")
    narrow = EntangledMomentum(0.01, sign=-1)
    narrow_grid = build_grid(32, 32, default_p_max(0.01))
    x = ObservableDirection(np.array([1.0, 0.0, 0.0]))
    print("  beta     quantum    classical")
    for beta in betas:
        q = quantum_correlation(x, x, narrow, bell_phi_plus(), Boost(beta), narrow_grid)
        print(f"  {beta:7.4f}  {q:+.6f}  {classical_correlation(x, x):+.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
