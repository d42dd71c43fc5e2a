import numpy as np
import pytest

from relent.wavepacket import EntangledMomentum, GaussianProduct, build_grid, default_p_max


@pytest.fixture(scope="session")
def grid_default():
    """Default-resolution grid for unit-width distributions, no boost headroom."""
    return build_grid(32, 32, default_p_max(1.0))


@pytest.fixture(scope="session")
def gauss_unit():
    return GaussianProduct(1.0)


@pytest.fixture(scope="session")
def entangled_unit():
    return EntangledMomentum(1.0, sign=-1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(2024)
