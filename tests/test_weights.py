import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nash_horizon.weights import (
    CscCertificate,
    ShiftedWeight,
    WeightError,
    build_weight,
    certify_csc,
    multi_index_weight,
    self_convolve,
    shift,
)


def near_delta(W=16):
    vals = np.full(2 * W + 1, 1e-9)
    vals[W] = 1.0
    return build_weight("table", {"values": vals}, W)


def test_polynomial_values():
    b = build_weight("polynomial", {"a": 3}, 32)
    assert b.value(0) == 1.0
    assert b.value(2) == pytest.approx(1 / 27)
    assert b.value(-2) == b.value(2)


def test_geometric_polynomial_values():
    b = build_weight("geometric-polynomial", {"r": 0.5, "a": 2}, 32)
    assert b.value(1) == pytest.approx(0.5 * 2 ** -2)


def test_polynomial_small_exponent_rejected():
    # oracle: partial sums of (1+|i|)^(-a/2) keep growing with the window
    a = 1.5
    sums = [np.sum((1.0 + np.abs(np.arange(-W, W + 1))) ** (-a / 2))
            for W in (100, 1000, 10000)]
    assert sums[1] > 1.5 * sums[0] and sums[2] > 1.5 * sums[1]
    with pytest.raises(WeightError):
        build_weight("polynomial", {"a": a}, 32)


def test_build_weight_parameter_validation():
    with pytest.raises(WeightError):
        build_weight("polynomial", {"a": 3}, 4)
    with pytest.raises(WeightError):
        build_weight("geometric-polynomial", {"r": 1.5, "a": 2}, 16)
    with pytest.raises(WeightError):
        build_weight("geometric-polynomial", {"r": 0.5, "a": 0.5}, 16)
    with pytest.raises(WeightError):
        build_weight("table", {"values": [1.0] * 5}, 16)
    bad = np.ones(33)
    bad[0] = -1.0
    with pytest.raises(WeightError):
        build_weight("table", {"values": bad}, 16)
    uneven = np.linspace(1, 2, 33)
    with pytest.raises(WeightError):
        build_weight("table", {"values": uneven}, 16)
    # a parameter the kind does not read is refused, not ignored, and the
    # caller's dict is left as it was
    params = {"a": 3, "r": 0.5}
    with pytest.raises(WeightError, match=r"read no parameter \['r'\]"):
        build_weight("polynomial", params, 16)
    assert params == {"a": 3, "r": 0.5}


def test_self_convolve_near_delta():
    b = near_delta()
    conv = self_convolve(b)
    assert conv[b.W] == pytest.approx(1.0, abs=1e-6)


def test_self_convolve_polynomial_oracle():
    W = 64
    b = build_weight("polynomial", {"a": 3}, W)
    conv = self_convolve(b)
    # brute-force partial sum over the window at i = 0
    expected = sum(b.value(j) ** 2 for j in range(-W, W + 1))
    assert conv[W] == pytest.approx(expected, rel=1e-12)
    # approaches 2*zeta(6) - 1 as W grows
    assert conv[W] == pytest.approx(2 * np.pi ** 6 / 945 - 1, rel=1e-3)


def test_self_convolve_even_positive():
    for b in (build_weight("polynomial", {"a": 3}, 32),
              build_weight("geometric-polynomial", {"r": 0.5, "a": 2}, 32)):
        conv = self_convolve(b)
        assert np.all(conv > 0)
        np.testing.assert_allclose(conv, conv[::-1], rtol=1e-12)


def test_certify_polynomial():
    b = build_weight("polynomial", {"a": 3}, 64)
    cert = certify_csc(b)
    assert cert.certified
    assert not cert.edge_contaminated
    assert cert.c >= cert.lower_bound
    # exact bound over the window with the certified c
    conv = self_convolve(b)
    assert np.all(conv <= cert.c * b.values * (1 + 1e-12))


def test_certify_pure_geometric_fails():
    W = 64
    r = 0.5
    vals = r ** np.abs(np.arange(-W, W + 1))
    b = build_weight("table", {"values": vals}, W)
    # brute force: (beta*beta)^i >= (|i|+1) r^|i|
    conv = self_convolve(b)
    i = np.arange(0, W + 1)
    assert np.all(conv[W:] >= (i + 1) * r ** i - 1e-12)
    cert = certify_csc(b)
    assert cert.edge_contaminated
    assert not cert.certified


def test_certify_near_delta():
    # at i = 0 the ratio is ~1; away from 0 the cross terms 2 beta^i beta^0
    # put the ratio at 2, which is the exact maximum for a near-delta table
    cert = certify_csc(near_delta())
    assert cert.lower_bound == pytest.approx(1.0, abs=1e-6)
    assert cert.c == pytest.approx(2.0, abs=1e-6)
    assert cert.certified


def test_shift_basics():
    b = build_weight("polynomial", {"a": 3}, 32)
    b0 = shift(b, 0, N=8)
    for j in range(8):
        assert b0.value(j) == b.value(j)  # evenness
    b4 = shift(b, 4, N=8)
    assert b4.value(4) == 1.0
    assert b4.value(1) == pytest.approx((1 + 3) ** -3)
    for i, N in ((40, 41), (-1, 8), (8, 8)):
        with pytest.raises(WeightError):
            shift(b, i, N=N)


def test_shift_symmetry_property():
    b = build_weight("polynomial", {"a": 3}, 32)
    for i, j in itertools.product(range(6), repeat=2):
        assert shift(b, i, 6).value(j) == shift(b, j, 6).value(i)


def test_multi_index_weight_cases():
    b = build_weight("polynomial", {"a": 3}, 32)
    assert multi_index_weight(b, ()) == 1.0
    # single coordinate
    assert multi_index_weight(b, (3,)) == pytest.approx(b.value(3))
    # off-diagonal pair: beta^j ^ beta^k ^ sqrt(beta^j beta^k)
    j, k = 1, 4
    expected = min(b.value(j), b.value(k), np.sqrt(b.value(j) * b.value(k)))
    assert multi_index_weight(b, (j, k)) == pytest.approx(expected)
    assert multi_index_weight(b, (k, j)) == multi_index_weight(b, (j, k))


def test_multi_index_weight_order_cap():
    b = build_weight("polynomial", {"a": 3}, 32)
    with pytest.raises(WeightError):
        multi_index_weight(b, (0, 0, 0, 0))


def test_multi_index_weight_all_ones():
    ones = build_weight("table", {"values": np.ones(33)}, 16)
    for alpha in ((0,), (1, 1), (0, 2, 3), (5, 5, 5)):
        assert multi_index_weight(ones, alpha) == 1.0


def enumerate_alphas(coords, max_order):
    """All multi-indices over the given coordinates with order <= max_order."""
    return [combo for k in range(max_order + 1)
            for combo in itertools.combinations_with_replacement(coords, k)]


def sub_multiset(a1, a2) -> bool:
    """alpha1 <= alpha2 componentwise."""
    return not Counter(a1) - Counter(a2)


def test_multi_index_weight_monotone_in_alpha():
    b = build_weight("polynomial", {"a": 3}, 32)
    alphas = enumerate_alphas(range(4), 3)
    vals = {a: multi_index_weight(b, a) for a in alphas}
    for a1, a2 in itertools.product(alphas, repeat=2):
        if sub_multiset(a1, a2):
            assert vals[a1] >= vals[a2] - 1e-15


def _old_multi_index_weight(beta, entries):
    """multi_index_weight as first written, on the sorted (coordinate,
    multiplicity) pairs its MultiIndex argument held."""
    k = sum(m for _, m in entries)
    if k == 0:
        return 1.0
    logs = sum(m * np.log(beta.value(c)) for c, m in entries)
    geo = float(np.exp(logs / k))
    preds = []
    for c, m in entries:
        d = dict(entries)
        if m == 1:
            del d[c]
        else:
            d[c] = m - 1
        preds.append(tuple(sorted(d.items())))
    return min(geo, min(_old_multi_index_weight(beta, p) for p in preds))


class _SqrtView:
    """sqrt(beta) on the same window: (sqrt beta)^j = sqrt(beta^j)."""

    def __init__(self, beta):
        self.beta = beta

    def value(self, j):
        return math.sqrt(self.beta.value(j))


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(a, b))


@st.composite
def _weights_and_alphas(draw):
    N = draw(st.integers(1, 6))
    if draw(st.booleans()):
        beta = build_weight("polynomial", {"a": draw(st.floats(2.1, 6.0))}, 16)
    else:
        beta = build_weight("geometric-polynomial",
                            {"r": draw(st.floats(0.05, 0.95)),
                             "a": draw(st.floats(1.1, 4.0))}, 16)
    if draw(st.booleans()):
        beta = shift(beta, draw(st.integers(0, N - 1)), N=N)
    if draw(st.booleans()):
        beta = _SqrtView(beta)
    alpha = tuple(draw(st.lists(st.integers(0, N - 1), max_size=3)))
    return beta, alpha


@settings(max_examples=400, deadline=None)
@given(case=_weights_and_alphas())
def test_multi_index_weight_matches_multiindex_recursion(case):
    # the closed form exactly, and the paper's recursion (geometric mean
    # capped by the predecessors, as first written) to the round-off of its
    # exp(log(x)): |ln x| eps from the log, eps from the exp, and an ulp of
    # x is at least x eps / 2
    beta, alpha = case
    got = multi_index_weight(beta, alpha)
    assert got == min((beta.value(c) for c in alpha), default=1.0)
    entries = tuple(sorted(Counter(alpha).items()))
    old = _old_multi_index_weight(beta, entries)
    assert _ulps(got, old) <= 2 * (1 + abs(math.log(got)))
