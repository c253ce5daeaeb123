import numpy as np
import pytest

from nash_horizon.holder import sup_abs
from nash_horizon.pde_linear import transport_step


@pytest.fixture
def same_bits():
    """np.array_equal that also tells a signed zero from an unsigned one."""
    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return same


@pytest.fixture
def covering_step():
    """min(dt, transport_step) for a problem whose drift does not depend on
    t, from one drift evaluation at t0: the step verify-decay forms."""
    def step(problem, grid, dt):
        supB = sup_abs(problem.drift(problem.t0, grid.meshgrid()))
        return min(dt, transport_step(problem.diffusion, grid.h, supB))
    return step
