"""Self-controlled weight sequences and multi-index weights.

A weight sequence beta is a positive, even, non-increasing sequence on the
integer window |i| <= W, normalized so that beta^0 = 1.  The key property of
interest is c-self-control: (beta * beta)^i <= c beta^i, with * the discrete
self-convolution.  The multi-index weight beta^alpha = min over c in alpha of
beta^c, formed only by multi_index_weight, governs all weighted norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WeightSequence",
    "ShiftedWeight",
    "CscCertificate",
    "build_weight",
    "self_convolve",
    "certify_csc",
    "shift",
    "multi_index_weight",
]

# fraction of the window treated as the edge guard band
EDGE_GUARD_FRACTION = 0.1
# largest multi-index order |alpha| the weighted spaces use
MAX_ORDER = 3


class WeightError(ValueError):
    """Invalid weight-sequence parameters or values."""


@dataclass(frozen=True)
class WeightSequence:
    """Even positive sequence beta^i on the window |i| <= W, beta^0 = 1.

    ``values`` stores beta^i for i = -W..W; its length 2W+1 sets W.
    """

    values: np.ndarray = field(repr=False)
    W: int = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size % 2 == 0:
            raise WeightError("values must have odd length 2W+1")
        object.__setattr__(self, "W", v.size // 2)
        if np.any(v <= 0) or not np.all(np.isfinite(v)):
            raise WeightError("weight values must be positive and finite")
        if not np.allclose(v, v[::-1], rtol=1e-12, atol=0):
            raise WeightError("weight sequence must be even")
        right = v[self.W:]
        if np.any(np.diff(right) > 1e-15):
            raise WeightError("weight values must be non-increasing in |i|")
        object.__setattr__(self, "values", v)

    def value(self, i) -> float:
        """beta^i for |i| <= W."""
        i = np.asarray(i)
        if np.any(np.abs(i) > self.W):
            raise WeightError(f"index outside window |i| <= {self.W}")
        out = self.values[np.abs(i) + self.W]
        return float(out) if out.ndim == 0 else out


class ShiftedWeight:
    """View beta_i with (beta_i)^j = beta^(i-j), for ambient coordinates j.

    Exposes the same ``value`` interface that the norm machinery uses, so
    shifted sequences can be passed anywhere a WeightSequence can.
    """

    def __init__(self, base: WeightSequence, center: int):
        self.base = base
        self.center = center

    def value(self, j):
        return self.base.value(np.asarray(self.center) - np.asarray(j))


def build_weight(kind: str, params: dict, W: int) -> WeightSequence:
    """Construct a normalized weight sequence.

    kinds: "polynomial" (exponent a > 2, beta^i = (1+|i|)^-a),
    "geometric-polynomial" (ratio r in (0,1), exponent a > 1,
    beta^i = r^|i| (1+|i|)^-a), "table" (explicit even positive values).
    """
    if W < 8:
        raise WeightError("window half-width W must be >= 8")
    i = np.abs(np.arange(-W, W + 1))
    if kind == "polynomial":
        a = float(params["a"])
        if a <= 2:
            raise WeightError("polynomial exponent must satisfy a > 2 "
                              "(square-root summability fails otherwise)")
        vals = (1.0 + i) ** (-a)
    elif kind == "geometric-polynomial":
        r, a = float(params["r"]), float(params["a"])
        if not 0 < r < 1:
            raise WeightError("geometric ratio must lie in (0,1)")
        if a <= 1:
            raise WeightError("geometric-polynomial exponent must satisfy a > 1")
        vals = r ** i * (1.0 + i) ** (-a)
    elif kind == "table":
        vals = np.asarray(params["values"], dtype=float)
        if vals.shape != (2 * W + 1,):
            raise WeightError("table values must have length 2W+1")
    else:
        raise WeightError(f"unknown weight kind {kind!r}")
    return WeightSequence(vals / vals[W])


def self_convolve(beta: WeightSequence) -> np.ndarray:
    """(beta * beta)^i for |i| <= W, by direct summation over the window."""
    full = np.convolve(beta.values, beta.values)
    return full[beta.W:3 * beta.W + 1]


@dataclass(frozen=True)
class CscCertificate:
    """Outcome of the self-convolution control check beta*beta <= c beta."""

    c: float
    W: int
    edge_contaminated: bool
    certified: bool
    ratios: np.ndarray = field(repr=False)  # ratio at i = 0..W

    @property
    def lower_bound(self) -> float:
        """(beta*beta)^0 / beta^0, a floor for any admissible c."""
        return float(self.ratios[0])


def certify_csc(beta: WeightSequence) -> CscCertificate:
    """Estimate c = max_i (beta*beta)^i / beta^i and flag edge pathologies.

    Certification fails (``certified`` False, no exception) when the ratio
    grows monotonically toward the window edge without stabilizing, which
    signals that beta is not c-self-controlled.
    """
    conv = self_convolve(beta)
    ratios = (conv / beta.values)[beta.W:]  # i = 0..W by evenness
    W = beta.W
    guard = max(1, int(round(EDGE_GUARD_FRACTION * W)))
    interior_max = float(ratios[:W - guard + 1].max())
    edge = float(ratios[-1])
    edge_flag = edge > 1.05 * interior_max
    # monotone growth over the outer quarter of the window, edge on top
    tail = ratios[3 * W // 4:]
    monotone_growth = bool(np.all(np.diff(tail) > 0)) and edge >= ratios.max()
    certified = not (edge_flag and monotone_growth)
    return CscCertificate(
        c=float(ratios.max()),
        W=W,
        edge_contaminated=edge_flag,
        certified=certified,
        ratios=ratios,
    )


def shift(beta: WeightSequence, i: int, N: int) -> ShiftedWeight:
    """The sequence beta_i with (beta_i)^j = beta^(i-j) on the ambient
    coordinates j = 0..N-1; checks that the window covers [i-(N-1), i].
    """
    if not 0 <= i <= N - 1:
        raise WeightError("shift center must lie in [0, N-1]")
    if max(i, (N - 1) - i) > beta.W:
        raise WeightError("window too small for requested ambient dimension")
    return ShiftedWeight(beta, i)


def multi_index_weight(beta, alpha) -> float:
    """The multi-index weight beta^alpha = min over c in alpha of beta^c
    (1 for alpha = ()).

    This is the exact value of the recursion that defines it: the geometric
    mean (prod (beta^c)^(alpha^c))^(1/|alpha|) capped by the smallest
    beta^alpha' over each predecessor alpha' = alpha - e_k.  By induction each
    beta^alpha' is the minimum of beta^c over c in alpha', and every c in
    alpha survives in some predecessor (for |alpha| = 1 the cap is
    beta^() = 1 >= beta^c), so the cap is the minimum over alpha.  That
    minimum is at most the geometric mean, which therefore never binds.
    ``beta`` may be a WeightSequence or a ShiftedWeight; ``alpha`` is a tuple
    of coordinates with repetition, e.g. (0, 1, 1) for D_0 D_1^2.
    """
    if len(alpha) > MAX_ORDER:
        raise WeightError(f"|alpha| = {len(alpha)} exceeds {MAX_ORDER}")
    return min((beta.value(c) for c in alpha), default=1.0)
