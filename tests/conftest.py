import json
import struct
from pathlib import Path

import numpy as np
import pytest

from nash_horizon.holder import Field, SpatialGrid, sup_abs
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


@pytest.fixture(scope="session")
def read_field():
    """Read a field file as save_field writes it: (Field, player).  The
    binary is the "<iidi" header N, M, L, K and then exactly (K + 1) M^N
    little-endian float64 values in row-major order; the JSON sidecar at
    path + ".json" holds the keys N, M, L, K, times, player in that order,
    agreeing with the header and with K + 1 times."""
    def read(path):
        path = Path(path)
        raw = path.read_bytes()
        header = struct.Struct("<iidi")
        N, M, L, K = header.unpack_from(raw)
        values = np.frombuffer(raw, "<f8", offset=header.size)
        assert values.size == (K + 1) * M ** N
        side = json.loads(path.with_suffix(path.suffix + ".json").read_text())
        assert list(side) == ["N", "M", "L", "K", "times", "player"]
        assert [side[k] for k in "NMLK"] == [N, M, L, K]
        assert len(side["times"]) == K + 1
        return (Field(SpatialGrid(N, L, M), side["times"],
                      values.reshape((K + 1,) + (M,) * N)), side["player"])
    return read
