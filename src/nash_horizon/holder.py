"""Weighted Hoelder norms and seminorms on gridded functions.

Fields (grid, times, values) live on uniform tensor grids [-L, L]^N with M
(odd) nodes per axis.  Derivatives are central second-order differences in the
interior with second-order one-sided stencils at the boundary; Hoelder
quotients are evaluated over axis-aligned node pairs only, matching the
one-coordinate-at-a-time seminorm the weighted spaces are built on.
The norms use two exponents, both in exact closed form: gamma = 1 (the
difference quotient peaks at lag 1, by the triangle inequality) and
gamma = 0 (the largest pair difference on an axis line is its range).
Multi-indices alpha are tuples of coordinates with repetition, e.g.
(0, 1, 1) for D_0 D_1^2, the keys of derivative_family.  Each D^alpha V is
divided by weights.multi_index_weight(beta, alpha) and by nothing else.

Every derivative is one _partial of its parent.  derivatives() streams all
of them up to an order, depth first, for derivative_family and _walk;
finite_diff makes only the one named by alpha, for nash.picard_step.
_walk runs the stream over blocks of time slices and carries each
derivative's last slice into the next block's time differences, for
nash.triple_norm and pde_linear.verify_decay.  space_norm over a
derivative_family is the plain definition of the weighted norms.

The grid kernels (_partial, _axis_seminorm and pde_linear._neighbours) read
an axis through _strided: in a C-order buffer the neighbours of a node
along an axis lie s nodes apart, s the product of the dimensions after the
axis, so a difference along any axis is one contiguous pass over the flat
buffer, and only the first and last node of each line need their own
formula.  _partial keeps the bits of numpy.gradient(values, h, axis=1 + c,
edge_order=2); _axis_seminorm walks the time axis in blocks of about
_BLOCK_BYTES, so its temporaries stay cache-sized.
"""

from __future__ import annotations

import itertools
import json
import math
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
]

# node-count budget guarding against accidental huge tensor grids
MAX_NODES = 2 ** 24

# _axis_seminorm, _walk (nash.triple_norm, pde_linear.verify_decay),
# nash.residual and pde_linear.fpk_gradient_mass take their blocks of time
# slices from _block_rows: this many bytes (at least one slice), so their
# temporaries stay in cache and none is a whole field: the block is set in
# bytes (a fixed slice count made N = 2 slower), so it holds one N = 3,
# M = 49 slice, three N = 2, M = 101 slices and dozens at N = 1
_BLOCK_BYTES = 256 * 1024


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
        if not (np.isfinite(self.L) and self.L > 0) or self.N < 1:
            raise GridError("need L finite and > 0 and N >= 1")
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
    """Samples of a function of (t, x): a grid, its time nodes, its values."""

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray = field(repr=False)  # shape (K+1, M, ..., M)

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        v = np.asarray(self.values, dtype=float)
        if not t.size:
            raise GridError("a field needs at least one time node")
        if v.shape != (t.size,) + self.grid.shape:
            raise GridError(f"value shape {v.shape} inconsistent with grid")
        if not np.all(np.isfinite(t)) or np.any(np.diff(t) <= 0):
            raise GridError("time nodes must be finite and strictly increasing")
        _extremes(v)                # NonFiniteError unless v is finite
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_function(grid: SpatialGrid, times, f) -> "Field":
        """Sample f(t, X) with X of shape (N, M, ..., M) on all time nodes."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        X = grid.meshgrid()
        vals = np.stack([np.broadcast_to(np.asarray(f(t, X), dtype=float),
                                         grid.shape) for t in times])
        return Field(grid, times, vals)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.times, self.values - other.values)


def time_nodes(t0: float, T: float, dt: float) -> np.ndarray:
    """Uniform time nodes on [t0, T]: the fewest steps (at least one) whose
    size does not exceed dt; GridError unless dt > 0 and T > t0."""
    if not dt > 0:
        raise GridError(f"time step must be > 0, got {dt}")
    if not T > t0:
        raise GridError(f"need T > t0, got T = {T}, t0 = {t0}")
    K = max(1, int(np.ceil((T - t0) / dt - 1e-12)))
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


def _strided(a: np.ndarray, axis: int) -> np.ndarray:
    """The C-contiguous array a as a view of shape (outer, n, s): the n nodes
    of each line along axis lie s = prod(a.shape[axis + 1:]) apart in the
    flat buffer, so [:, 0] and [:, -1] are the first and last nodes."""
    return a.reshape(-1, a.shape[axis], math.prod(a.shape[axis + 1:]))


def _partial(values: np.ndarray, h: float, c: int) -> np.ndarray:
    """D_c of values (time on axis 0), second order inside and at edges:
    numpy.gradient(values, h, axis=1 + c, edge_order=2) bit for bit.  The
    central difference is one flat subtraction at the axis's stride; the
    first and last node of each line then take numpy.gradient's one-sided
    formulas.  values is made contiguous if it is not (a view's flat and
    (outer, n, s) views would each be a copy); derivatives() hands it
    contiguous arrays only."""
    f = np.ascontiguousarray(values)
    out = np.empty(f.shape)
    f3, o3 = _strided(f, 1 + c), _strided(out, 1 + c)
    s = f3.shape[2]
    flat, o = f.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * s:], flat[:-2 * s], out=o[s:-s])
    o[s:-s] /= 2. * h
    o3[:, 0] = -1.5 / h * f3[:, 0] + 2. / h * f3[:, 1] + -0.5 / h * f3[:, 2]
    o3[:, -1] = 0.5 / h * f3[:, -3] + -2. / h * f3[:, -2] + 1.5 / h * f3[:, -1]
    return out


def derivatives(values: np.ndarray, h: float, m: int):
    """Yield (alpha, D^alpha values) for each ascending coordinate tuple,
    |alpha| <= m, depth first: each D^alpha is one _partial of its parent
    alpha[:-1], and only the path of parents (m + 1 arrays) stays alive.
    A view (verify_decay's cropped time slices) is copied once, as the
    root."""
    if m > MAX_ORDER:
        raise GridError(f"derivative order {m} exceeds {MAX_ORDER}")
    return _descend(np.ascontiguousarray(values), h, m, ())


def _descend(d: np.ndarray, h: float, m: int, alpha: tuple):
    yield alpha, d
    if len(alpha) < m:
        for c in range(alpha[-1] if alpha else 0, d.ndim - 1):
            yield from _descend(_partial(d, h, c), h, m, alpha + (c,))


def _block_rows(slice_nbytes: int) -> int:
    """Time slices in a block of _BLOCK_BYTES, at least one."""
    return max(1, _BLOCK_BYTES // slice_nbytes)


def _walk(values: np.ndarray, h: float, m: int, crop: tuple = (),
          inner: tuple = (), orders=range(3)):
    """derivatives() over blocks of _block_rows(slice bytes) time slices
    of the spatial crop: yields (alpha, D^alpha, interior, diff, pairs,
    last) per block, interior D^alpha at the inner slices of the crop, last
    whether the block is the final one.  For |alpha| in orders,
    diff is the interior's raw time differences over the time pairs
    slice(pairs) (k, k + 1), the first formed from the carried last slice
    of the block before (None if there is no pair); the consumer may
    overwrite it.  Spatial derivatives are pointwise in time, so every
    value is the whole field's bit for bit."""
    n = values.shape[0]
    rows = _block_rows(values[(slice(0, 1),) + crop].nbytes)
    inner = (slice(None),) + inner
    carry = {}          # alpha -> the block before's last interior slice
    for t in range(0, n, rows):
        last = t + rows >= n
        pairs = slice(max(t - 1, 0), min(t + rows, n) - 1)
        for a, d in derivatives(values[(slice(t, t + rows),) + crop], h, m):
            body = d[inner]
            prev = carry.get(a)
            diff = None
            if len(a) in orders and pairs.stop > pairs.start:
                if prev is None:
                    diff = np.subtract(body[1:], body[:-1])
                else:
                    diff = np.empty(body.shape)
                    np.subtract(body[:1], prev, out=diff[:1])
                    np.subtract(body[1:], body[:-1], out=diff[1:])
            yield a, d, body, diff, pairs, last
            if len(a) in orders and not last:
                if prev is None:
                    carry[a] = body[-1:].copy()
                else:
                    np.copyto(prev, body[-1:])
            del d, body, diff   # not held while the next one is made


def _quotient_extremes(diff: np.ndarray, steps: np.ndarray) -> tuple:
    """_extremes(diff / steps), row r over steps[r] > 0, from each row's max
    and min over its step: x -> x / dt is monotone, so with the same bits.
    An overflowing quotient comes back as an inf, for the caller to refuse
    in its own terms."""
    rows = diff.reshape(steps.size, -1)
    hi = float((rows.max(axis=1) / steps).max())
    lo = float((rows.min(axis=1) / steps).min())
    return abs(max(hi, -lo)), hi, lo


def _quotient_range(q: np.ndarray, steps: np.ndarray, h: float) -> float:
    """[q / steps]_0, row r of q over steps[r]; q is divided in place."""
    q /= steps.reshape((-1,) + (1,) * (q.ndim - 1))
    return _axis_seminorm(q, h, 0.0)


def _rederived_range(values: np.ndarray, steps: np.ndarray, h: float,
                     alpha: tuple, pairs: slice) -> float:
    """_quotient_range of D^alpha values over the time pairs slice(pairs),
    re-derived from their slices as derivatives() derives them."""
    d = values[pairs.start:pairs.stop + 1]
    for c in alpha:
        d = _partial(d, h, c)
    return _quotient_range(np.subtract(d[1:], d[:-1]), steps[pairs], h)


def _gradient_row(values: np.ndarray, dx, k: int, out: np.ndarray) -> None:
    """Row k of np.gradient(values, times, axis=0, edge_order=2) into out,
    bit for bit, dx the spacing NumPy forms: np.diff(times), or its first
    entry when all are equal."""
    last = values.shape[0] - 1
    if np.ndim(dx) == 0:
        if 0 < k < last:
            np.subtract(values[k + 1], values[k - 1], out=out)
            out /= 2. * dx
            return
        if k == 0:
            a, b, c = -1.5 / dx, 2. / dx, -0.5 / dx
        else:
            a, b, c = 0.5 / dx, -2. / dx, 1.5 / dx
    elif 0 < k < last:
        dx1, dx2 = dx[k - 1], dx[k]
        a = -(dx2) / (dx1 * (dx1 + dx2))
        b = (dx2 - dx1) / (dx1 * dx2)
        c = dx1 / (dx2 * (dx1 + dx2))
    elif k == 0:
        dx1, dx2 = dx[0], dx[1]
        a = -(2. * dx1 + dx2) / (dx1 * (dx1 + dx2))
        b = (dx1 + dx2) / (dx1 * dx2)
        c = - dx1 / (dx2 * (dx1 + dx2))
    else:
        dx1, dx2 = dx[-2], dx[-1]
        a = (dx2) / (dx1 * (dx1 + dx2))
        b = - (dx2 + dx1) / (dx1 * dx2)
        c = (2. * dx2 + dx1) / (dx2 * (dx1 + dx2))
    first = min(max(k - 1, 0), last - 2)
    out[...] = (a * values[first] + b * values[first + 1]
                + c * values[first + 2])


def finite_diff(field: Field, alpha) -> Field:
    """Grid derivative D^alpha, axes applied in ascending coordinate order."""
    if len(alpha) > MAX_ORDER:
        raise GridError(f"derivative order {len(alpha)} exceeds {MAX_ORDER}")
    out = field.values
    for c in sorted(alpha):
        if not 0 <= c < field.grid.N:
            raise GridError(f"coordinate {c} outside grid dimension")
        out = _partial(out, field.grid.h, c)
    return Field(field.grid, field.times, out)


def derivative_family(field: Field, m: int) -> dict:
    """All D^alpha fields for |alpha| <= m, keyed by ascending coord tuples
    (depth-first key order, see derivatives)."""
    return {a: Field(field.grid, field.times, d) if a else field
            for a, d in derivatives(field.values, field.grid.h, m)}


def sup_abs(x: np.ndarray) -> float:
    """max |x| without an |x| temporary.  Negation is exact and abs() turns
    a -0.0 into 0.0, so the value is that of np.max(np.abs(x)), NaN too."""
    return abs(max(float(x.max()), -float(x.min())))


def _extremes(x: np.ndarray) -> tuple:
    """(sup |x|, max x, min x), the sup as sup_abs forms it; NonFiniteError
    if x is not finite."""
    hi, lo = float(x.max()), float(x.min())
    s = abs(max(hi, -lo))
    if not math.isfinite(s):
        raise NonFiniteError("field contains non-finite values")
    return s, hi, lo


def _axis_seminorm(values: np.ndarray, h: float, gamma: float) -> float:
    """Max over the slices of values (shape (K+1, M, ..., M)) of [V]_gamma
    for gamma = 1 or 0: sup over spatial axes and axis-aligned node pairs.

    The slices are reduced in blocks of about _BLOCK_BYTES; the max
    over blocks is the whole-field value bit for bit, as max is exact and
    division by h > 0 is monotone.  At gamma = 1 the lag-1 differences along
    an axis are one flat subtraction at its stride; the pairs that wrap past
    the end of a line are set to 0, which never raises a sup of absolute
    values (the inputs are finite)."""
    rows = _block_rows(values[0].nbytes)
    best = 0.0
    for t in range(0, values.shape[0], rows):
        block = values[t:t + rows]
        flat = block.reshape(-1)
        for ax in range(1, block.ndim):
            if gamma == 1:
                diff = np.empty(block.shape)
                d3 = _strided(diff, ax)
                s = d3.shape[2]
                np.subtract(flat[s:], flat[:-s], out=diff.reshape(-1)[:-s])
                d3[:, -1] = 0.0             # the pairs that wrap past a line
                d = sup_abs(diff) / h
            else:
                # a range along the leading axis of a contiguous copy is a
                # fast elementwise max/min; np.ptp along an inner axis is not
                lead = np.moveaxis(block, ax, 0).copy()
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


def save_field(f: Field, path, player: int) -> None:
    """Write header (N, M, L, K) + row-major float64 values, and the JSON
    sidecar {N, M, L, K, times, player}; player is the field's list index."""
    path = Path(path)
    K = f.times.size - 1
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(f.grid.N, f.grid.M, f.grid.L, K))
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())
    sidecar = {"N": f.grid.N, "M": f.grid.M, "L": f.grid.L, "K": K,
               "times": f.times.tolist(), "player": player}
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(sidecar))
