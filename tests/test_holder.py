import itertools
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nash_horizon import holder
from nash_horizon.holder import (
    Field,
    GridError,
    NonFiniteError,
    SpatialGrid,
    derivative_family,
    finite_diff,
    interp_time,
    save_field,
    space_norm,
    sup_abs,
    time_nodes,
)
from nash_horizon.nash import GameSpec, probe_fields, triple_norm
from nash_horizon.oracle_lq import decay_lq_game
from nash_horizon.weights import build_weight, multi_index_weight, shift

BETA = build_weight("polynomial", {"a": 3}, 32)


def grid2(M=21, L=1.0):
    return SpatialGrid(2, L, M)


def still(grid, f):
    return Field.from_function(grid, [0.0], lambda t, X: f(X))


def seminorm(f, gamma):
    """The axis-aligned Hoelder seminorm [V]_gamma of a field."""
    return holder._axis_seminorm(f.values, f.grid.h, gamma)


def test_grid_validation():
    with pytest.raises(GridError):
        SpatialGrid(2, 1.0, 4)
    with pytest.raises(GridError):
        SpatialGrid(2, 1.0, 6)
    with pytest.raises(GridError):
        SpatialGrid(10, 1.0, 101)  # node budget
    for L in (float("nan"), float("inf")):   # once passed the L > 0 test
        with pytest.raises(GridError, match="need L finite and > 0"):
            SpatialGrid(2, L, 11)
    g = grid2(21)
    assert g.h == pytest.approx(0.1)
    assert g.axis[10] == 0.0


def test_interior_refuses_a_collar_out_of_range():
    # round(-0.2 * 25) = -5 once made slice(-5, 30): the last 5 nodes
    g = SpatialGrid(2, 3.0, 25)
    for collar in (-0.2, -1e-3, float("nan"), 0.6, float("inf")):
        with pytest.raises(GridError, match=r"collar must lie in \[0, 0.5\]"):
            g.interior(collar)
    assert g.interior(0.0) == (slice(None),) * 2
    assert g.interior(0.1) == (slice(2, 23),) * 2
    assert g.interior(0.5) == (slice(12, 13),) * 2
    with pytest.raises(GridError, match="consumes"):
        SpatialGrid(1, 1.0, 7).interior(0.5)


def test_field_validation():
    g = grid2(11)
    with pytest.raises(GridError):
        Field(g, [0.0, 0.0], np.zeros((2, 11, 11)))
    with pytest.raises(GridError):
        Field(g, [0.0], np.full((1, 11, 11), np.nan))
    with pytest.raises(GridError):
        Field(g, [0.0], np.zeros((1, 7, 7)))
    for bad in (np.inf, -np.inf):
        vals = np.zeros((2, 11, 11))
        vals[1, 3, 4] = bad
        with pytest.raises(NonFiniteError, match="field contains non-finite"):
            Field(g, [0.0, 1.0], vals)
    with pytest.raises(GridError, match="at least one time node"):
        Field(g, [], np.zeros((0, 11, 11)))


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]])
def test_field_refuses_non_finite_times(times):
    # both once passed the increasing test, whose diff <= 0 is False at NaN
    with pytest.raises(GridError, match="time nodes must be finite"):
        Field(grid2(11), times, np.zeros((3, 11, 11)))


def test_finite_diff_linear_exact():
    g = grid2()
    f = still(g, lambda X: X[0])
    d = finite_diff(f, (0,))
    np.testing.assert_allclose(d.values, 1.0, atol=1e-12)


def test_finite_diff_bilinear_mixed():
    g = grid2()
    f = still(g, lambda X: X[0] * X[1])
    d = finite_diff(f, (0, 1))
    np.testing.assert_allclose(d.values, 1.0, atol=1e-10)


def test_finite_diff_sorts_axes_and_caps_order():
    g = grid2()
    f = still(g, lambda X: np.sin(X[0]) * np.exp(X[1]) * X[0] ** 2)
    for alpha in ((1, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)):
        got = finite_diff(f, alpha).values
        assert np.array_equal(got, finite_diff(f, tuple(sorted(alpha))).values)
    with pytest.raises(GridError):
        finite_diff(f, (0, 0, 1, 1))
    with pytest.raises(GridError):
        finite_diff(f, (2,))


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 4), M=st.sampled_from([5, 7, 9]), K=st.integers(1, 3),
       m=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_derivatives_stream_matches_finite_diff(N, M, K, m, seed):
    # every ascending tuple of order <= m exactly once, depth first (which is
    # lexicographic order on ascending tuples), each the finite_diff bits
    rng = np.random.default_rng(seed)
    f = Field(SpatialGrid(N, 1.0, M), 0.1 * np.arange(K),
              rng.normal(size=(K,) + (M,) * N))
    seen = []
    for a, d in holder.derivatives(f.values, f.grid.h, m):
        seen.append(a)
        assert np.array_equal(d, finite_diff(f, a).values)
    want = [a for k in range(m + 1)
            for a in itertools.combinations_with_replacement(range(N), k)]
    assert seen == sorted(want)
    with pytest.raises(GridError, match="exceeds"):
        list(holder.derivatives(f.values, f.grid.h, 4))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(N=st.integers(1, 4), M=st.sampled_from(range(5, 22, 2)),
       K=st.integers(1, 5), data=st.data())
def test_partial_matches_np_gradient(N, M, K, data, same_bits):
    # the flat-stride derivative against the np.gradient it replaces, on a
    # whole field and on a view cropped in time and space as verify_decay's
    # blocks are (not contiguous)
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    g = data.draw(st.integers(0, (M - 3) // 2), label="crop")
    t0 = data.draw(st.integers(0, K - 1), label="t0")
    t1 = data.draw(st.integers(t0 + 1, K), label="t1")
    h = data.draw(st.floats(0.01, 2.0), label="h")
    values = np.random.default_rng(seed).normal(size=(K,) + (M,) * N)
    crop = values[(slice(t0, t1),) + (slice(g, M - g),) * N]
    for v in (values, crop):
        for c in range(N):
            assert same_bits(holder._partial(v, h, c),
                             np.gradient(v, h, axis=1 + c, edge_order=2))


def test_finite_diff_third_order_sin():
    # D^3 sin(x) at 0 is -cos(0) = -1, error O(h^2) under refinement
    errs = []
    for M in (41, 81):
        g = SpatialGrid(1, 2.0, M)
        f = still(g, lambda X: np.sin(X[0]))
        d = finite_diff(f, (0, 0, 0))
        mid = (M - 1) // 2
        errs.append(abs(d.values[0, mid] + 1.0))
    rate = np.log2(errs[0] / errs[1])
    assert errs[1] < 2e-3
    assert rate > 1.9


@pytest.mark.parametrize("alpha", [(0,), (1,), (0, 0), (0, 1), (1, 1, 1), (0, 0, 1)])
def test_finite_diff_refinement_order(alpha):
    # interior error of every implemented stencil decays at rate >= 1.9
    c = np.array([0.7, 1.3])

    def analytic(X):
        phase = c[0] * X[0] + c[1] * X[1]
        k = len(alpha)
        coeff = np.prod(c[list(alpha)])
        funcs = [np.sin, np.cos, lambda z: -np.sin(z), lambda z: -np.cos(z)]
        return coeff * funcs[k % 4](phase)

    errs = []
    for M in (33, 65):
        g = SpatialGrid(2, 1.0, M)
        f = still(g, lambda X: np.sin(c[0] * X[0] + c[1] * X[1]))
        d = finite_diff(f, alpha)
        X = g.meshgrid()
        exact = analytic(X)
        inner = g.interior(0.15)
        errs.append(np.max(np.abs(d.values[0][inner] - exact[inner])))
    assert np.log2(errs[0] / errs[1]) > 1.9


def weighted_sup(f, alpha):
    """sup |D^alpha V| / beta^alpha for the field f = D^alpha V."""
    return sup_abs(f.values) / multi_index_weight(BETA, alpha)


def test_weighted_sup_norm():
    g = grid2(11)
    zero = still(g, lambda X: 0 * X[0])
    assert weighted_sup(zero, ()) == 0.0
    two = still(g, lambda X: 2.0 + 0 * X[0])
    assert weighted_sup(two, ()) == 2.0
    one = still(g, lambda X: 1.0 + 0 * X[0])
    j, k = 0, 1
    w = min(BETA.value(j), BETA.value(k),
            np.sqrt(BETA.value(j) * BETA.value(k)))
    assert weighted_sup(one, (j, k)) == pytest.approx(1 / w)


def test_holder_seminorm_basics():
    g = grid2(21)
    const = still(g, lambda X: 3.0 + 0 * X[0])
    for gamma in (0.0, 1.0):
        assert seminorm(const, gamma) == 0.0
    f = still(g, lambda X: np.tanh(3 * X[0]) * np.cos(X[1]))
    assert seminorm(f, 0.0) <= 2 * np.max(np.abs(f.values)) + 1e-12
    ident = still(SpatialGrid(1, 1.0, 41), lambda X: X[0])
    assert seminorm(ident, 1.0) == pytest.approx(1.0)


def test_holder_seminorm_scaling():
    g = grid2(21)
    f = still(g, lambda X: np.sin(2 * X[0]) * X[1] ** 2)
    scaled = Field(g, f.times, -2.5 * f.values)
    for gamma in (0.0, 1.0):
        assert seminorm(scaled, gamma) == pytest.approx(2.5 * seminorm(f, gamma))


def test_space_norm_zero_and_m0():
    g = grid2(11)
    zero = still(g, lambda X: 0 * X[0])
    f = still(g, lambda X: np.sin(X[0]))
    for gamma in (0.0, 1.0):
        assert space_norm(derivative_family(zero, 2), 2, gamma, BETA) == 0.0
        # m = 0 reduces to sup + Hoelder tail
        assert space_norm({(): f}, 0, gamma, BETA) == pytest.approx(
            np.max(np.abs(f.values)) + seminorm(f, gamma))


def test_space_norm_rejects_unsupported_gamma():
    fam = derivative_family(still(grid2(11), lambda X: np.sin(X[0])), 2)
    for gamma in (0.5, -1.0, 2.0):
        with pytest.raises(GridError, match="gamma"):
            space_norm(fam, 2, gamma, BETA)


def test_space_norm_missing_derivative():
    g = grid2(11)
    f = still(g, lambda X: np.sin(X[0]))
    with pytest.raises(GridError, match="missing derivative"):
        space_norm({(): f}, 1, 1.0, BETA)


def test_minus_norm_dominated_by_full_norm():
    rng = np.random.default_rng(7)
    g = grid2(17)
    for _ in range(5):
        c = rng.normal(size=4)
        f = still(g, lambda X: c[0] * np.sin(c[1] * X[0] + c[2] * X[1])
                  + c[3] * X[0] * X[1])
        fam = derivative_family(f, 2)
        for gamma in (0.0, 1.0):
            full = space_norm(fam, 2, gamma, BETA)
            minus = space_norm(fam, 2, gamma, BETA, minus_variant=True)
            assert minus <= full + 1e-9


def _minus_norm_by_predecessor_loop(fam, m, gamma, beta):
    """space_norm's minus variant as first written: the top-order sup and
    seminorm divided by each predecessor's weight, the largest quotient
    kept."""
    N = fam[()].grid.N
    h = fam[()].grid.h
    total = 0.0
    for k in range(m):
        total += max(sup_abs(fam[a].values) / multi_index_weight(beta, a)
                     for a in itertools.combinations_with_replacement(range(N), k))
    best = 0.0
    for a in itertools.combinations_with_replacement(range(N), m):
        v = fam[a].values
        raw = sup_abs(v) + holder._axis_seminorm(v, h, gamma)
        for ap in sorted({a[:i] + a[i + 1:] for i in range(len(a))}):
            best = max(best, raw / multi_index_weight(beta, ap))
    return total + best


@pytest.mark.parametrize("N", [1, 2, 3])
def test_minus_norm_equals_predecessor_loop(N):
    rng = np.random.default_rng(11 + N)
    g = SpatialGrid(N, 1.5, 9)
    for beta in (BETA, shift(BETA, N - 1, N=N)):
        for _ in range(3):
            vals = rng.normal(size=(2,) + g.shape) * 10.0 ** rng.uniform(-3, 3)
            fam = derivative_family(Field(g, [0.0, 0.1], vals), 2)
            for gamma in (0.0, 1.0):
                assert space_norm(fam, 2, gamma, beta, minus_variant=True) == \
                    _minus_norm_by_predecessor_loop(fam, 2, gamma, beta)


def test_minus_norm_needs_order_two():
    fam = derivative_family(still(grid2(11), lambda X: np.sin(X[0])), 2)
    for m in (0, 1):
        with pytest.raises(GridError, match="minus variant"):
            space_norm(fam, m, 1.0, BETA, minus_variant=True)


def test_sup_norm_monotone_in_alpha():
    g = grid2(11)
    f = still(g, lambda X: np.cos(X[0]) * np.sin(X[1]))
    pairs = [((0,), (0, 0)), ((1,), (0, 1)), ((), (0,))]
    for a, a2 in pairs:
        assert weighted_sup(f, a) <= weighted_sup(f, a2) + 1e-12


def test_remark_hcd_inequality_on_grid():
    # [D^a V]_{1;b,a} <= sup successors ||D^a' V||_{inf;b,a} v 2||D^a V||_{inf;b,a}
    # up to discretization slack, on a smooth field (gamma = 1 keeps the grid
    # bound exact for the mean-value argument)
    g = grid2(33)
    f = still(g, lambda X: np.sin(X[0]) * np.cos(0.5 * X[1]))
    alpha = (0,)
    da = finite_diff(f, alpha)
    lhs = seminorm(da, 1.0) / multi_index_weight(BETA, (0,))
    succ = []
    for c in range(2):
        d2 = finite_diff(da, (c,))
        succ.append(np.max(np.abs(d2.values)) / multi_index_weight(BETA, (0,)))
    rhs = max(max(succ), 2 * weighted_sup(da, (0,)))
    assert lhs <= rhs * (1 + 0.05)


def test_field_serialization_roundtrip(tmp_path, read_field):
    g = grid2(11)
    f = Field.from_function(g, np.linspace(0, 1, 3),
                            lambda t, X: np.sin(X[0] + t) * X[1])
    p = tmp_path / "field.bin"
    save_field(f, p, 2)
    f2, player = read_field(p)
    np.testing.assert_allclose(f2.values, f.values)
    np.testing.assert_allclose(f2.times, f.times)
    assert player == 2
    assert f2.grid == f.grid
    # the header, the payload and the sidecar, byte for byte
    assert p.read_bytes() == (struct.pack("<iidi", 2, 11, 1.0, 2)
                              + f.values.astype("<f8").tobytes())
    assert p.with_suffix(".bin.json").read_text() == json.dumps(
        {"N": 2, "M": 11, "L": 1.0, "K": 2, "times": [0.0, 0.5, 1.0],
         "player": 2})


@st.composite
def _saveable_fields(draw):
    N = draw(st.integers(1, 3))
    M = draw(st.sampled_from([5, 7, 9]))
    grid = SpatialGrid(N, draw(st.floats(0.1, 10.0)), M)
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=0, max_size=3))
    times = draw(st.floats(-1.0, 1.0)) + np.concatenate(([0.0], np.cumsum(steps)))
    values = draw(arrays(np.float64, (times.size,) + grid.shape,
                         elements=st.floats(allow_nan=False,
                                            allow_infinity=False)))
    return Field(grid, times, values), draw(st.integers(0, 100))


@settings(max_examples=100, deadline=None)
@given(fp=_saveable_fields())
def test_save_load_field_roundtrip_is_exact(fp, read_field):
    f, player = fp
    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "field.bin"
        save_field(f, p, player)
        f2, player2 = read_field(p)
    assert np.array_equal(f2.values, f.values)
    assert np.array_equal(f2.times, f.times)
    assert player2 == player
    assert f2.grid == f.grid


# ---------------------------------------------------------------------------
# whole-field seminorm against its brute-force twin


def _brute_seminorm(values, h, gamma):
    """Max over slices, axes and every axis-aligned node pair of
    |V(j) - V(i)| / ((j - i) h)^gamma."""
    best = 0.0
    for ax in range(1, values.ndim):
        v = np.moveaxis(values, ax, -1)
        M = v.shape[-1]
        for i in range(M):
            for j in range(i + 1, M):
                d = np.max(np.abs(v[..., j] - v[..., i]))
                best = max(best, float(d) / ((j - i) * h) ** gamma)
    return best


@st.composite
def _fields(draw):
    n = draw(st.integers(1, 3))
    M = draw(st.integers(2, {1: 140, 2: 12, 3: 6}[n]))
    shape = (draw(st.integers(1, 4)),) + (M,) * n
    elements = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    return draw(arrays(np.float64, shape, elements=elements))


@settings(max_examples=200, deadline=None)
# a ramp on a long axis: at gamma = 0 only the end-to-end lag M - 1
# attains the sup
@example(values=np.linspace(0.0, 1.0, 101)[None], h=0.1, gamma=0.0)
@given(values=_fields(), h=st.floats(0.01, 2.0),
       gamma=st.sampled_from([0.0, 1.0]))
def test_axis_seminorm_matches_all_pairs(values, h, gamma):
    fast = holder._axis_seminorm(values, h, gamma)
    brute = _brute_seminorm(values, h, gamma)
    if gamma == 0:
        assert fast == brute
    else:
        assert math.isclose(fast, brute, rel_tol=1e-12, abs_tol=0.0)


def _whole_field_seminorm(values, h, gamma):
    """The seminorm over the whole field at once, one axis at a time: the
    lag-1 differences of np.diff, or the ranges of np.ptp."""
    best = 0.0
    for ax in range(1, values.ndim):
        if gamma == 1:
            d = sup_abs(np.diff(values, axis=ax)) / h
        else:
            d = float(np.max(np.ptp(values, axis=ax)))
        best = max(best, d)
    return best


@st.composite
def _blocked_fields(draw):
    """A field of 1 to 7 slices and a block of 1 to 4 slices plus a
    remainder, so that several blocks occur and the last can be ragged."""
    n = draw(st.integers(1, 3))
    M = draw(st.integers(2, {1: 40, 2: 12, 3: 6}[n]))
    shape = (draw(st.integers(1, 7)),) + (M,) * n
    elements = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    values = draw(arrays(np.float64, shape, elements=elements))
    block = (draw(st.integers(1, 4)) * values[0].nbytes
             + draw(st.integers(0, values[0].nbytes - 1)))
    return values, block


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
# 5 slices in blocks of 2: the last block holds one slice
@example(case=(np.arange(5 * 2 * 2, dtype=float).reshape(5, 2, 2) ** 2,
               2 * 4 * 8), h=0.5, gamma=1.0)
@given(case=_blocked_fields(), h=st.floats(0.01, 2.0),
       gamma=st.sampled_from([0.0, 1.0]))
def test_axis_seminorm_blocks_match_whole_field(case, h, gamma, same_bits):
    values, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holder, "_BLOCK_BYTES", block)
        fast = holder._axis_seminorm(values, h, gamma)
    assert same_bits(fast, _whole_field_seminorm(values, h, gamma))


def _per_slice_seminorm(values, h, gamma):
    """The seminorm as first written: Python loops over slices, axes and
    lags, one slice at a time."""
    best = 0.0
    for vals in values:
        for ax in range(vals.ndim):
            v = np.moveaxis(vals, ax, -1)
            for lag in range(1, vals.shape[ax]):
                d = np.max(np.abs(v[..., lag:] - v[..., :-lag]))
                best = max(best, d / (lag * h) ** gamma)
    return best


@pytest.mark.parametrize("N, M, seed", [(2, 21, 0), (3, 11, 1)])
def test_triple_norm_matches_per_slice_formula(monkeypatch, N, M, seed):
    spec = decay_lq_game(N, BETA, 0.1, 0.2, 0.25, 0.1)
    game = GameSpec(spec, BETA, SpatialGrid(N, 2.0, M), 0.01)
    u = probe_fields(game, seed)
    fast = triple_norm(game, u)
    monkeypatch.setattr(holder, "_axis_seminorm", _per_slice_seminorm)
    assert math.isclose(fast, triple_norm(game, u), rel_tol=1e-12,
                        abs_tol=0.0)


# ---------------------------------------------------------------------------
# time nodes and linear-in-time interpolation


def test_time_nodes_rounding():
    # 0.07 / 0.01 is 7.000000000000001: the step count rounds down to 7
    assert time_nodes(0.0, 0.07, 0.01).size == 8
    assert time_nodes(0.5, 0.7, 0.02).size == 11
    assert time_nodes(0.0, 0.2, 1.0).size == 2
    np.testing.assert_array_equal(time_nodes(0.0, 0.2, 0.02),
                                  np.linspace(0.0, 0.2, 11))


@pytest.mark.parametrize("dt", [0.0, -0.005, -1.0, float("nan")])
def test_time_nodes_refuses_a_non_positive_step(dt):
    # (0, 0.2, -0.005) once gave [0, 0.2]: one silent step of the whole span
    with pytest.raises(GridError, match="time step must be > 0"):
        time_nodes(0.0, 0.2, dt)


@pytest.mark.parametrize("t0, T", [(0.0, 0.0), (0.0, -0.5), (0.3, 0.2)])
def test_time_nodes_refuses_an_empty_or_backward_span(t0, T):
    # (0, -0.5) once gave [0, -0.5]: one backward step of the whole span
    with pytest.raises(GridError, match="need T > t0"):
        time_nodes(t0, T, 0.01)


def _old_cache_at(ts, values, t):
    """GradientCache.at as first written: values (N, K+1, ...)."""
    if ts.size == 1:
        return values[:, 0]
    k = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, ts.size - 2))
    w = np.clip((t - ts[k]) / (ts[k + 1] - ts[k]), 0.0, 1.0)
    return (1 - w) * values[:, k] + w * values[:, k + 1]


def _old_resample(ts, values, times):
    """nash._resample as first written, on the value array."""
    flat = values.reshape(ts.size, -1)
    idx = np.clip(np.searchsorted(ts, times, side="right") - 1, 0, ts.size - 2)
    w = np.clip((times - ts[idx]) / (ts[idx + 1] - ts[idx]), 0.0, 1.0)[:, None]
    out = (1 - w) * flat[idx] + w * flat[idx + 1]
    return out.reshape((times.size,) + values.shape[1:])


def _old_riccati_interpolate(ts, values, t):
    """RiccatiTrajectory.interpolate as first written, without its range
    check."""
    k = min(np.searchsorted(ts, t, side="right"), ts.size - 1)
    lo = max(k - 1, 0)
    span = ts[lo + 1] - ts[lo] if lo + 1 < ts.size else 1.0
    w = np.clip((t - ts[lo]) / span, 0.0, 1.0) if lo + 1 < ts.size else 0.0
    hi = min(lo + 1, ts.size - 1)
    return (1 - w) * values[lo] + w * values[hi]


_FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def _time_series(draw):
    steps = draw(st.lists(st.floats(1e-3, 2.0), min_size=0, max_size=5))
    ts = draw(st.floats(-2.0, 2.0)) + np.concatenate(([0.0], np.cumsum(steps)))
    values = draw(arrays(np.float64, (ts.size, 2, 3), elements=_FINITE))
    # query times reach one unit past either end
    query = st.floats(float(ts[0]) - 1.0, float(ts[-1]) + 1.0)
    return ts, values, draw(query), np.array(draw(st.lists(query, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(series=_time_series())
def test_interp_time_matches_old_interpolators(series):
    ts, values, t, times = series
    got = interp_time(ts, values, t)
    assert np.array_equal(got, _old_riccati_interpolate(ts, values, t))
    by_player = np.ascontiguousarray(values.swapaxes(0, 1))
    assert np.array_equal(interp_time(ts, by_player.swapaxes(0, 1), t),
                          _old_cache_at(ts, by_player, t))
    # the old resampler divided by zero on a single-node grid
    if ts.size > 1:
        assert np.array_equal(interp_time(ts, values, times),
                              _old_resample(ts, values, times))
