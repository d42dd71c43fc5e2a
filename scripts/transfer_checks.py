#!/usr/bin/env python3
"""Run the two entanglement-transfer analyses and the correlation limit through ``relent.cli.run``.

Prints, per boost speed, columns of the rows of three sweep configs:
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

from relent.cli import parse_config, run

#: a margin above this certifies a negative partial-transpose eigenvalue
MARGIN_TOL = 1e-9

BETAS = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999]


def _rows(scenario: str, delta: float) -> list:
    return run(parse_config({"scenario": scenario, "betas": BETAS, "delta": delta}))


def main() -> int:
    print("momentum-entangled, spin-product pair (width 1):")
    print("  beta     corner margin   middle margin   verdict")
    for row in _rows("momentum_bell_spin_up", 1.0):
        corner, middle = row.ineq15_margin, row.ineq16_margin
        verdict = "entangled" if max(corner, middle) > MARGIN_TOL else "separable (PPT)"
        print(f"  {row.beta:7.4f}  {corner:+.3e}     {middle:+.3e}   {verdict}")

    print()
    print("Bell-spin, product-momentum pair (bulk momenta ~ 1e3 m):")
    print("  beta     factorization distance")
    for row in _rows("spin_bell_momentum_product", 1.0e6):
        print(f"  {row.beta:7.4f}  {row.product_distance:.3e}")

    print()
    print("doubly entangled narrow pair (width 0.01), measurement along the boost axis:")
    print("  beta     quantum    classical")
    for row in _rows("both_bell_correlations", 0.01):
        print(f"  {row.beta:7.4f}  {row.qcorr:+.6f}  {row.ccorr:+.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
