import numpy as np
import pytest

from ifmsim.verify import _random_states


@pytest.fixture
def make_state():
    """Factory for random valid states (G G^+ at unit trace); each test gets its own seeded stream."""
    rng = np.random.default_rng(987654321)
    return lambda: _random_states(rng, 1)[-1][0]
