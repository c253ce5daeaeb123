"""Weighted Hoelder norms and seminorms on gridded functions.

Fields live on uniform tensor grids [-L, L]^N with M (odd) nodes per axis and
carry a time axis.  Derivatives are central second-order differences in the
interior with second-order one-sided stencils at the boundary; Hoelder
quotients are evaluated over axis-aligned node pairs only, matching the
one-coordinate-at-a-time seminorm the weighted spaces are built on.
The norms use two exponents, both in exact closed form: gamma = 1 (the
difference quotient peaks at lag 1, by the triangle inequality) and
gamma = 0 (the largest pair difference on an axis line is its range).
Multi-indices alpha are tuples of coordinates with repetition, e.g.
(0, 1, 1) for D_0 D_1^2, the keys of derivative_family.  Each D^alpha V is
divided by weights.multi_index_weight(beta, alpha) and by nothing else.

Every derivative is one np.gradient (_partial) of its parent.
derivatives() streams all of them up to an order, depth first, for
derivative_family, nash.triple_norm and pde_linear.verify_decay;
finite_diff makes only the one named by alpha, for nash.picard_step and
nash.residual.  space_norm over a derivative_family is the plain definition
of the weighted norms.
"""

from __future__ import annotations

import itertools
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .weights import MAX_ORDER, multi_index_weight

__all__ = [
    "SpatialGrid",
    "Field",
    "derivatives",
    "finite_diff",
    "derivative_family",
    "sup_abs",
    "space_norm",
    "time_nodes",
    "interp_time",
    "save_field",
    "load_field",
]

# node-count budget guarding against accidental huge tensor grids
MAX_NODES = 2 ** 24


class GridError(ValueError):
    """Invalid grid or field geometry."""


class NonFiniteError(GridError):
    """A field or one of its derivatives holds a non-finite value."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid on [-L, L]^N with M nodes per axis (M odd)."""

    N: int
    L: float
    M: int

    def __post_init__(self):
        if self.M < 5 or self.M % 2 == 0:
            raise GridError("M must be odd and >= 5")
        if self.L <= 0 or self.N < 1:
            raise GridError("need L > 0 and N >= 1")
        if self.M ** self.N > MAX_NODES:
            raise GridError(f"grid exceeds node budget {MAX_NODES}")

    @property
    def h(self) -> float:
        return 2 * self.L / (self.M - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.L, self.L, self.M)

    @property
    def shape(self) -> tuple:
        return (self.M,) * self.N

    def meshgrid(self) -> np.ndarray:
        """Coordinates stacked on the leading axis: shape (N, M, ..., M)."""
        axes = np.meshgrid(*([self.axis] * self.N), indexing="ij")
        return np.stack(axes)

    def interior(self, collar: float) -> tuple:
        """Slice tuple excluding a boundary collar (fraction of M per side;
        above 0.5 it leaves no node)."""
        if not 0 <= collar <= 0.5:
            raise GridError(f"collar must lie in [0, 0.5], got {collar}")
        g = int(round(collar * self.M))
        if 2 * g >= self.M:
            raise GridError("collar consumes entire grid")
        sl = slice(g, self.M - g) if g else slice(None)
        return (sl,) * self.N


@dataclass(frozen=True)
class Field:
    """Scalar function of (t, x) sampled on time nodes x tensor grid."""

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray = field(repr=False)  # shape (K+1, M, ..., M)
    player: int | None = None

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        v = np.asarray(self.values, dtype=float)
        if v.shape != (t.size,) + self.grid.shape:
            raise GridError(f"value shape {v.shape} inconsistent with grid")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise GridError("time nodes must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("field contains non-finite values")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_function(grid: SpatialGrid, times, f, player=None) -> "Field":
        """Sample f(t, X) with X of shape (N, M, ..., M) on all time nodes."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        X = grid.meshgrid()
        vals = np.stack([np.broadcast_to(np.asarray(f(t, X), dtype=float),
                                         grid.shape) for t in times])
        return Field(grid, times, vals, player)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.times, self.values - other.values,
                     self.player)


def time_nodes(t0: float, T: float, dt: float, min_steps: int = 1) -> np.ndarray:
    """Uniform time nodes on [t0, T]: the fewest steps (at least min_steps)
    whose size does not exceed dt; GridError unless dt > 0 and T > t0."""
    if not dt > 0:
        raise GridError(f"time step must be > 0, got {dt}")
    if not T > t0:
        raise GridError(f"need T > t0, got T = {T}, t0 = {t0}")
    K = max(min_steps, int(np.ceil((T - t0) / dt - 1e-12)))
    return np.linspace(t0, T, K + 1)


def interp_time(times: np.ndarray, values: np.ndarray, t):
    """Values (time on axis 0) interpolated linearly in time at a scalar or
    array t; t outside [times[0], times[-1]] takes the nearest end value."""
    if times.size == 1:
        return values[np.zeros(np.shape(t), dtype=int)]
    k = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
    w = np.clip((t - times[k]) / (times[k + 1] - times[k]), 0.0, 1.0)
    w = np.reshape(w, np.shape(w) + (1,) * (values.ndim - 1))
    return (1 - w) * values[k] + w * values[k + 1]


def _partial(values: np.ndarray, h: float, c: int) -> np.ndarray:
    """D_c of values (time on axis 0), second order inside and at edges."""
    return np.gradient(values, h, axis=1 + c, edge_order=2)


def derivatives(values: np.ndarray, h: float, m: int):
    """Yield (alpha, D^alpha values) for each ascending coordinate tuple,
    |alpha| <= m, depth first: each D^alpha is one _partial of its parent
    alpha[:-1], and only the path of parents (m + 1 arrays) stays alive."""
    if m > MAX_ORDER:
        raise GridError(f"derivative order {m} exceeds {MAX_ORDER}")
    return _descend(values, h, m, ())


def _descend(d: np.ndarray, h: float, m: int, alpha: tuple):
    yield alpha, d
    if len(alpha) < m:
        for c in range(alpha[-1] if alpha else 0, d.ndim - 1):
            yield from _descend(_partial(d, h, c), h, m, alpha + (c,))


def finite_diff(field: Field, alpha) -> Field:
    """Grid derivative D^alpha, axes applied in ascending coordinate order."""
    if len(alpha) > MAX_ORDER:
        raise GridError(f"derivative order {len(alpha)} exceeds {MAX_ORDER}")
    out = field.values
    for c in sorted(alpha):
        if not 0 <= c < field.grid.N:
            raise GridError(f"coordinate {c} outside grid dimension")
        out = _partial(out, field.grid.h, c)
    return Field(field.grid, field.times, out, field.player)


def derivative_family(field: Field, m: int) -> dict:
    """All D^alpha fields for |alpha| <= m, keyed by ascending coord tuples
    (depth-first key order, see derivatives)."""
    return {a: Field(field.grid, field.times, d, field.player) if a else field
            for a, d in derivatives(field.values, field.grid.h, m)}


def sup_abs(x: np.ndarray) -> float:
    """max |x| without an |x| temporary.  Negation is exact and abs() turns
    a -0.0 into 0.0, so the value is that of np.max(np.abs(x)), NaN too."""
    return abs(max(float(x.max()), -float(x.min())))


def _axis_seminorm(values: np.ndarray, h: float, gamma: float) -> float:
    """Max over the slices of values (shape (K+1, M, ..., M)) of [V]_gamma
    for gamma = 1 or 0: sup over spatial axes and axis-aligned node pairs."""
    best = 0.0
    for ax in range(1, values.ndim):
        if gamma == 1:
            d = sup_abs(np.diff(values, axis=ax)) / h
        else:
            # a range along the leading axis of a contiguous copy is a fast
            # elementwise max/min; np.ptp along an inner axis is not
            lead = np.moveaxis(values, ax, 0).copy()
            d = float(np.max(lead.max(axis=0) - lead.min(axis=0)))
        best = max(best, d)
    return best


def space_norm(derivs: dict, m: int, gamma: float, beta,
               minus_variant: bool = False) -> float:
    """Assemble ||V||_{m+gamma;beta} (or the minus variant) from a family of
    derivative fields keyed by ascending coordinate tuples (see
    derivative_family), for gamma = 1 or 0.  Sup norms run over all time and
    space nodes; Hoelder seminorms over axis-aligned pairs within each slice,
    max over slices.
    """
    if gamma not in (0, 1):
        raise GridError(f"gamma = {gamma} unsupported: the norms use 0 or 1")
    if minus_variant and m < 2:
        raise GridError("the minus variant needs m >= 2")
    if () not in derivs:
        raise GridError("derivative family must contain the raw field ()")
    base = derivs[()]
    alphas = [list(itertools.combinations_with_replacement(range(base.grid.N), k))
              for k in range(m + 1)]
    for k in range(m + 1):
        for a in alphas[k]:
            if a not in derivs:
                raise GridError(f"missing derivative order {a}")

    weight = {a: multi_index_weight(beta, a) for ak in alphas for a in ak}
    h = base.grid.h
    top = m - 1 if minus_variant else m
    total = 0.0
    for k in range(top + 1):
        total += max(sup_abs(derivs[a].values) / weight[a] for a in alphas[k])
    if not minus_variant:
        total += max(_axis_seminorm(derivs[a].values, h, gamma) / weight[a]
                     for a in alphas[m])
    else:
        # the top order's smallest predecessor weight is beta^alpha itself
        # at |alpha| >= 2, so the minus norm nests below the full norm
        total += max((sup_abs(derivs[a].values)
                      + _axis_seminorm(derivs[a].values, h, gamma)) / weight[a]
                     for a in alphas[m])
    return total


# ---------------------------------------------------------------------------
# binary + sidecar serialization

_HEADER = struct.Struct("<iidi")  # N, M, L, K


def save_field(f: Field, path) -> None:
    """Write header (N, M, L, K) + row-major float64 values, JSON sidecar."""
    path = Path(path)
    K = f.times.size - 1
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(f.grid.N, f.grid.M, f.grid.L, K))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    sidecar = {"N": f.grid.N, "M": f.grid.M, "L": f.grid.L, "K": K,
               "times": f.times.tolist(), "player": f.player}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar))


def load_field(path) -> Field:
    """Read a field written by save_field.  GridError names the file when its
    size or its sidecar disagrees with the binary header."""
    path = Path(path)
    side_path = path.with_suffix(path.suffix + ".json")
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise GridError(f"{path}: {len(raw)} bytes, shorter than the header")
    N, M, L, K = _HEADER.unpack_from(raw)
    if not 1 <= N <= 24:  # more axes exceed MAX_NODES even at M = 2
        raise GridError(f"{path}: invalid header N={N}")
    payload, want = len(raw) - _HEADER.size, (K + 1) * M ** N * 8
    if payload != want:
        raise GridError(f"{path}: payload has {payload} bytes, header "
                        f"(N={N}, M={M}, K={K}) needs {want}")
    side = json.loads(side_path.read_text())
    head = {"N": N, "M": M, "L": L, "K": K, "len(times)": K + 1}
    got = {k: side.get(k) for k in "NMLK"}
    got["len(times)"] = len(side.get("times", ()))
    if got != head:
        raise GridError(f"{side_path}: sidecar {got} disagrees with the "
                        f"binary header {head}")
    vals = np.frombuffer(raw, "<f8", offset=_HEADER.size)
    return Field(SpatialGrid(N, L, M), np.asarray(side["times"]),
                 vals.reshape((K + 1,) + (M,) * N).copy(), side.get("player"))
