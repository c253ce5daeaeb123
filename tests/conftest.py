import numpy as np
import pytest


@pytest.fixture
def same_bits():
    """np.array_equal that also tells a signed zero from an unsigned one."""
    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return same
