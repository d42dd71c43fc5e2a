"""Boost-dependence of two-particle spin-momentum entanglement.

Simulates how a uniform-velocity change of reference frame, acting through
momentum-dependent spin rotations, degrades or redistributes entanglement
between two spin-1/2 wavepackets.  Provides entanglement fidelity, reduced
density matrices, partial-transpose separability tests, a negativity-based
entanglement measure, and relativistic spin correlations, plus a CLI driver
for beta/width sweeps.  Each function is imported from its module, as in
``from relent.entanglement import fidelity``; the package binds only ``__version__``.
"""

__version__ = "0.1.0"
