"""Boost-dependence of two-particle spin-momentum entanglement.

Simulates how a uniform-velocity change of reference frame, acting through
momentum-dependent spin rotations, degrades or redistributes entanglement
between two spin-1/2 wavepackets.  Provides entanglement fidelity, reduced
density matrices, partial-transpose separability tests, a negativity-based
entanglement measure, and relativistic spin correlations, plus a CLI driver
for beta/width sweeps.
"""

from relent.correlations import (
    ObservableDirection,
    classical_correlation,
    quantum_correlation,
    relativistic_observable,
)
from relent.entanglement import (
    abcd,
    bell_ABCD,
    bell_density_from_ABCD,
    entanglement_measure,
    fidelity,
    partial_transpose,
    separability_verdict,
    xstate_stats,
)
from relent.kinematics import (
    Boost,
    FourMomentum,
    WignerRotation,
    boost_momentum,
    wigner_matrix,
    wigner_rotation,
)
from relent.relstate import (
    BipartiteState,
    SpinDensity,
    bell_phi_plus,
    momentum_density_samples,
    product_distance,
    reduced_spin_density,
    spin_kernel,
    spin_up_up,
)
from relent.wavepacket import (
    EntangledMomentum,
    GaussianProduct,
    GridCoverageError,
    QuadratureGrid,
    build_grid,
    default_p_max,
)

__version__ = "0.1.0"
