"""Backward transport-diffusion and forward Fokker-Planck solvers.

The backward equation is  -dw/dt - a Lap w + <B, Dw> = F,  w(T) = G,
with the diffusion a I of N independent noises (DiffusionSpec: N and a > 0),
solved by explicit Euler stepping from t = T with centered diffusion stencils
and drift-sign upwinded transport, homogeneous Neumann walls, at a step under
cfl_step.  The forward density equation  d rho/dt = a Lap rho  is the formal
adjoint of its diffusion part, integrated in conservative flux form so that
total mass is preserved up to the no-flux walls.  A Feynman-Kac Monte Carlo
backend provides an independent route to the same values.  The drift B(t, x)
is a plain callable; the source F(x) and terminal G(x) depend on x only
(TerminalSpec).  The decay of their derivatives is built in by
build_decay_problem, not checked at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .holder import (Field, NonFiniteError, SpatialGrid, _block_rows,
                     _extremes, _quotient_extremes, _strided, _walk, sup_abs,
                     time_nodes)
from .weights import multi_index_weight

__all__ = [
    "DiffusionSpec",
    "TerminalSpec",
    "LinearProblem",
    "build_decay_problem",
    "DecayReport",
    "FPKResult",
    "GradientMassReport",
    "cfl_step",
    "transport_step",
    "solve_grid",
    "solve_mc",
    "solve_fpk_grid",
    "fpk_gradient_mass",
    "verify_decay",
]

MAX_GRID_DIM = 4
MAX_FPK_DIM = 2                   # solve_fpk_grid's density diagnostics


class CFLError(RuntimeError):
    """Requested time step violates the explicit stability bound."""


class SolveError(RuntimeError):
    """Numerical failure during time stepping."""


class TransportBoundError(SolveError):
    """A step exceeds the upwind transport stability bound."""


class SpecError(ValueError):
    """Invalid problem specification."""


# ---------------------------------------------------------------------------
# problem data


@dataclass(frozen=True)
class DiffusionSpec:
    """The diffusion a I of N players' independent noises, dX^i = ... +
    sqrt(2a) dW^i: N >= 1 and a finite coefficient a > 0."""

    N: int
    a: float

    def __post_init__(self):
        if not self.N >= 1:
            raise SpecError("diffusion needs N >= 1")
        if not (math.isfinite(self.a) and self.a > 0):
            raise SpecError("diffusion coefficient must be finite and > 0")

    @staticmethod
    def isotropic(N: int, a: float) -> "DiffusionSpec":
        """DiffusionSpec(N, a) under a second name, kept only because
        bench/ builds its diffusions with it; src/ and the tests call the
        constructor."""
        return DiffusionSpec(N, a)


@dataclass
class TerminalSpec:
    """Data of x alone, the terminal cost G or the source F, broadcast to
    the coordinates' spatial shape as a read-only view."""

    g: object                     # callable (X:(N,...)) -> array

    def eval(self, X):
        return np.broadcast_to(np.asarray(self.g(X), dtype=float), X.shape[1:])


@dataclass
class LinearProblem:
    diffusion: DiffusionSpec
    drift: object | None          # callable (t, X:(N,...)) -> X.shape array
    source: TerminalSpec | None
    terminal: TerminalSpec
    t0: float
    T: float

    def __post_init__(self):
        if not 0 <= self.t0 < self.T:
            raise SpecError("need 0 <= s < T")


def build_decay_problem(N: int, beta, c_B: float, c_F: float, c_G: float,
                        a: float, T: float) -> LinearProblem:
    """Coupled linear problem on [0, T] with builder-enforced decay:
    B^i = c_B sum_j beta^(j-i) tanh(x^j), F and G = c sum_j beta^j tanh(x^j),
    so ||D_j B^i|| <= c_B beta^(j-i), ||D_j F|| <= c_F beta^j and likewise
    for G (higher derivatives of tanh are bounded by 1 as well).
    """

    def drift(t, X, c=c_B):
        th = [np.tanh(X[j]) for j in range(N)]
        return np.stack([c * sum(beta.value(j - i) * th[j] for j in range(N))
                         for i in range(N)])

    def ramp(X, c):
        return c * sum(beta.value(j) * np.tanh(X[j]) for j in range(N))

    return LinearProblem(
        DiffusionSpec(N, a),
        drift if c_B else None,
        TerminalSpec(lambda X: ramp(X, c_F)) if c_F else None,
        TerminalSpec(lambda X: ramp(X, c_G)),
        0.0, T)


# ---------------------------------------------------------------------------
# grid stencils (homogeneous Neumann via mirror ghost nodes): solve_grid
# makes each axis's (lower, upper) neighbours once per step with
# _neighbours, and the diffusion and upwind transport stencils both read them


def _neighbours(v: np.ndarray, axis: int) -> tuple:
    """(lower, upper) mirror neighbours of v along axis: the ghost node below
    the first node is v[1], the one above the last is v[M-2].  Each is one
    flat shifted copy at the axis's stride (holder._strided), whose first or
    last node of each line is then overwritten by its mirror node."""
    v3 = _strided(v, axis)
    s = v3.shape[2]
    flat = v3.reshape(-1)
    lo, hi = np.empty(v3.shape, v.dtype), np.empty(v3.shape, v.dtype)
    lo.reshape(-1)[s:] = flat[:-s]
    hi.reshape(-1)[:-s] = flat[s:]
    lo[:, 0] = v3[:, 1]
    hi[:, -1] = v3[:, -2]
    return lo.reshape(v.shape), hi.reshape(v.shape)


# Both terms sum their axes from np.zeros, not from the first axis's term:
# 0.0 + x turns a -0.0 into +0.0, and the sum keeps those bits.


def _diffusion_term(diff: DiffusionSpec, v, nbrs, h):
    """a sum_j (lo - 2 v + hi) / h^2, each axis's term made in one buffer."""
    out = np.zeros_like(v)
    v2, d = 2 * v, np.empty_like(v)
    for lo, hi in nbrs:
        np.subtract(lo, v2, out=d)
        d += hi
        d /= h ** 2
        d *= diff.a
        out += d
    return out


def _transport_term(B, v, nbrs, h):
    """Upwinded <B, Dv>: backward difference where B > 0, forward where B <= 0.
    Each axis picks its difference before the one multiply by B[j]."""
    out = np.zeros_like(v)
    d = np.empty_like(v)
    for j, (lo, hi) in enumerate(nbrs):
        np.subtract(hi, v, out=d)
        np.subtract(v, lo, out=d, where=B[j] > 0)
        d /= h
        np.multiply(B[j], d, out=d)
        out += d
    return out


def cfl_step(diffusion: DiffusionSpec, h: float) -> float:
    """The explicit diffusion bound h^2 / (2 N a)."""
    return h ** 2 / (2 * diffusion.N * diffusion.a)


def transport_step(diffusion: DiffusionSpec, h: float, supB: float) -> float:
    """Largest explicit step that covers upwind transport at sup|B| as well
    as the diffusion, with a 0.9 margin: 0.9 / (2 N a / h^2 + N sup|B| / h)."""
    N = diffusion.N
    return 0.9 / (2 * N * diffusion.a / h ** 2 + N * supB / h)


def _check_step(diffusion: DiffusionSpec, grid: SpatialGrid, dt: float):
    """SpecError unless the grid has the diffusion's dimension; CFLError if
    dt exceeds cfl_step by more than a 1e-9 relative slack."""
    if grid.N != diffusion.N:
        raise SpecError("grid dimension does not match diffusion spec")
    cfl = cfl_step(diffusion, grid.h)
    if dt > cfl * (1 + 1e-9):
        raise CFLError(f"dt = {dt} exceeds h^2/(2 N a) = {cfl}")


def solve_grid(problem: LinearProblem, grid: SpatialGrid, dt: float) -> Field:
    """Backward explicit Euler for the transport-diffusion equation, in the
    fewest equal steps of at most dt.  A step raises TransportBoundError if
    it exceeds transport_step for the drift B of that step.
    """
    N = grid.N
    if N > MAX_GRID_DIM:
        raise SpecError(f"grid backend limited to N <= {MAX_GRID_DIM}")
    _check_step(problem.diffusion, grid, dt)
    X = grid.meshgrid()
    h = grid.h
    times = time_nodes(problem.t0, problem.T, dt)
    step = times[1] - times[0]
    vals = np.empty((times.size,) + grid.shape)
    vals[-1] = problem.terminal.eval(X)
    F = problem.source.eval(X) if problem.source is not None else None
    for k in range(times.size - 2, -1, -1):
        t = times[k + 1]
        v = vals[k + 1]
        nbrs = [_neighbours(v, axis) for axis in range(N)]
        # blow-up is caught below; silence the transient overflow noise
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = _diffusion_term(problem.diffusion, v, nbrs, h)
            if problem.drift is not None:
                B = problem.drift(t, X)
                bound = transport_step(problem.diffusion, h, sup_abs(B))
                # the slack of _check_step's CFL check: time_nodes may leave
                # a step a rounding error above the bound its caller met
                if step > bound * (1 + 1e-9):
                    raise TransportBoundError(
                        f"step {step:.4g} is {step / bound:.10g} times the "
                        f"transport stability bound {bound:.4g} at t={t:.5g}")
                rhs -= _transport_term(B, v, nbrs, h)
            if F is not None:
                rhs += F
            vals[k] = v + step * rhs
        if not np.all(np.isfinite(vals[k])):
            bad = np.argwhere(~np.isfinite(vals[k]))[0]
            raise SolveError(f"non-finite value at t={times[k]:.5g}, "
                             f"node {tuple(bad.tolist())}")
    return Field(grid, times, vals)


# ---------------------------------------------------------------------------
# Feynman-Kac Monte Carlo


def solve_mc(problem: LinearProblem, query_points, paths: int, dt: float,
             seed: int):
    """Pathwise estimates of w(s, x) = E[G(X_T) + int F(X_t) dt] with
    dX = -B dt + sqrt(2a) dW.  Returns a list of
    (estimate, ci_half_width) per query point; deterministic given the seed.
    """
    if paths < 10 ** 3:
        raise SpecError("need at least 10^3 paths")
    if dt <= 0 or dt > problem.T - problem.t0:
        raise SpecError("dt out of range")
    pts = np.atleast_2d(np.asarray(query_points, dtype=float))
    N = problem.diffusion.N
    if pts.shape[1] != N:
        raise SpecError("query points must have shape (Q, N)")
    times = time_nodes(problem.t0, problem.T, dt)
    step = times[1] - times[0]
    root = np.sqrt(2.0 * problem.diffusion.a)
    out = []
    for qi, x0 in enumerate(pts):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(qi,))))
        X = np.tile(x0, (paths, 1))
        run = np.zeros(paths)
        for t in times[:-1]:
            Xt = X.T  # (N, P)
            if problem.source is not None:
                run += step * problem.source.eval(Xt)
            dW = rng.standard_normal((paths, N))
            if problem.drift is not None:
                X = X + step * -problem.drift(t, Xt).T
            X = X + np.sqrt(step) * (root * dW)
        payoff = run + problem.terminal.eval(X.T)
        est = float(payoff.mean())
        ci = 1.96 * float(payoff.std(ddof=1)) / np.sqrt(paths)
        out.append((est, ci))
    return out


# ---------------------------------------------------------------------------
# forward Fokker-Planck (conservative flux form)


@dataclass
class FPKResult:
    field: Field
    mass: np.ndarray            # total mass per time node
    undershoot: float           # worst clipped negative value (magnitude)
    eps: float


def solve_fpk_grid(diffusion: DiffusionSpec, y, eps, grid: SpatialGrid,
                   dt: float, T: float) -> FPKResult:
    """Forward conservative scheme on [0, T] for
    d rho/dt = a Lap rho,  rho(0) = N(y, eps^2 I), in equal
    steps of at most dt; a dt above cfl_step raises CFLError.  No-flux walls
    conserve mass exactly; negative undershoot is clipped and tracked.

    A step forms a rho once.  Along an axis of stride s (holder._strided)
    the face fluxes (a rho[i+1] - a rho[i]) / h are one flat subtraction at
    stride s, written into a face buffer behind an s-node zero ghost, with
    the face after the last node of each line set to zero: that buffer
    minus itself shifted by s, over h, is the zero-flux divergence, the
    bits of np.diff(flux, prepend=0.0, append=0.0) / h.  The axes' terms
    are summed from the first one, not from zeros: rho never holds -0.0
    (exp, a sum that cancels and the clip all give +0.0), so the sign of a
    zero divergence never reaches rho.  Each axis's views (the flux
    operands, the fluxes, the wall faces and the divergence operands) and
    the flat row of each time slice are made once per call, before the
    step loop, so a step only picks its two rows.  Each step is written
    into its time slice in place."""
    N = grid.N
    if N > MAX_FPK_DIM:
        raise SpecError(f"density diagnostics limited to N <= {MAX_FPK_DIM}")
    if eps < 2 * grid.h:
        raise SpecError("mollifier width must satisfy eps >= 2h")
    _check_step(diffusion, grid, dt)
    X = grid.meshgrid()
    h = grid.h
    y = np.asarray(y, dtype=float).reshape(N)
    times = time_nodes(0.0, T, dt)
    step = times[1] - times[0]

    r2 = sum((X[k] - y[k]) ** 2 for k in range(N))
    rho = np.exp(-r2 / (2 * eps ** 2))
    rho /= rho.sum() * h ** N

    vals = np.empty((times.size,) + grid.shape)
    vals[0] = rho
    mass = np.empty(times.size)
    mass[0] = rho.sum() * h ** N
    undershoot = 0.0
    n = rho.size
    strides = [_strided(rho, ax).shape[2] for ax in range(N)]
    faces = [np.zeros(n + s) for s in strides]      # [:s] is the zero ghost
    G, div, term = np.empty(n), np.empty(n), np.empty(n)
    views = [(G[s:], G[:-s], F[s:n], F[s:].reshape(-1, grid.M, s)[:, -1],
              F[s:], F[:-s], term if ax else div)
             for ax, (s, F) in enumerate(zip(strides, faces))]
    rows = vals.reshape(times.size, n)
    for k in range(times.size - 1):
        np.multiply(rows[k], diffusion.a, out=G)
        for upper, lower, flux, wall, after, before, out in views:
            np.subtract(upper, lower, out=flux)
            wall[...] = 0.0                             # zero flux at walls
            flux /= h
            np.subtract(after, before, out=out)
            out /= h
            if out is term:
                div += term
        div *= step
        rho = rows[k + 1]
        np.add(rows[k], div, out=rho)
        worst = float(rho.min())
        if worst < 0:
            undershoot = max(undershoot, -worst)
            np.maximum(rho, 0.0, out=rho)
        mass[k + 1] = rho.sum() * h ** N
        if abs(mass[k + 1] - 1.0) > 1e-3:
            raise SolveError(f"mass drift {mass[k + 1] - 1.0:.2e} at t={times[k + 1]:.5g}")
        # past the drift test a mass is not finite only by a NaN in rho
        # (a +inf makes it +inf, and the clip removes -inf)
        if not math.isfinite(mass[k + 1]):
            raise SolveError(f"non-finite density at t={times[k + 1]:.5g}")
    return FPKResult(Field(grid, times, vals), mass, undershoot, float(eps))


@dataclass
class GradientMassReport:
    times: np.ndarray           # elapsed t - s at each node
    gradient_mass: np.ndarray   # sup_k int |D_k rho(t)| per node
    cumulative: np.ndarray      # int_s^t of the above
    slope: float                # log-log fit exponent of the cumulative curve
    C: float                    # fitted prefactor


def _gradient_into(values: np.ndarray, h: float, axis: int, out: np.ndarray):
    """numpy.gradient(values, h, axis=axis) (edge_order=1) into out, bit for
    bit: the central difference is one flat subtraction at the axis's
    stride (holder._strided), and the first and last node of each line then
    take the one-sided differences."""
    f3, o3 = _strided(values, axis), _strided(out, axis)
    s = f3.shape[2]
    flat, o = values.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * s:], flat[:-2 * s], out=o[s:-s])
    o[s:-s] /= 2. * h
    np.subtract(f3[:, 1], f3[:, 0], out=o3[:, 0])
    o3[:, 0] /= h
    np.subtract(f3[:, -1], f3[:, -2], out=o3[:, -1])
    o3[:, -1] /= h


def fpk_gradient_mass(result: FPKResult) -> GradientMassReport:
    """Cumulative time integral of sup_k int |D_k rho| and its log-log fit
    over the nodes at elapsed time >= 10 eps^2, where the mollifier's
    offset has washed out.  The gradients (numpy.gradient's, edge_order=1)
    are taken over blocks of time slices of about holder._BLOCK_BYTES,
    each into one reused buffer; every slice is still summed on its own, so
    each node's value is that of a per-slice gradient."""
    f = result.field
    h = f.grid.h
    N = f.grid.N
    elapsed = f.times - f.times[0]
    g = np.empty(f.times.size)
    rows = _block_rows(f.values[0].nbytes)
    buf = np.empty((min(rows, f.times.size),) + f.grid.shape)
    for s in range(0, f.times.size, rows):
        block = f.values[s:s + rows]
        d = buf[:block.shape[0]]
        sums = []
        for ax in range(N):
            _gradient_into(block, h, 1 + ax, d)
            np.abs(d, out=d)
            sums.append(d.reshape(d.shape[0], -1).sum(axis=1))
        # h^N > 0, so the max of the scaled sums is the scaled max
        g[s:s + d.shape[0]] = np.max(sums, axis=0) * h ** N
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(elapsed))))
    mask = elapsed >= 10 * result.eps ** 2
    if mask.sum() < 4:
        raise SpecError("fewer than 4 usable time nodes for the fit")
    slope, logc = np.polyfit(np.log(elapsed[mask]), np.log(cum[mask]), 1)
    return GradientMassReport(elapsed, g, cum, float(slope), float(np.exp(logc)))


# ---------------------------------------------------------------------------
# decay verification


@dataclass
class DecayReport:
    K1: float
    K2: float
    K3: float
    time_lip_grad: float        # sup_j,k |D_j w(t_k+1) - D_j w(t_k)| / dt_k
    time_lip_hess: float        # the same at |alpha| = 2; both / sqrt(beta^alpha)
    collar: float


def verify_decay(w: Field, beta, collar: float = 0.1,
                 third_order: bool = True) -> DecayReport:
    """Measure the decay constants  sup |D^alpha w| / beta^alpha  for
    |alpha| = 1, 2 (and 3) over interior nodes, plus the time-Lipschitz
    quotients  sup |D^alpha w(t_k+1) - D^alpha w(t_k)| / dt_k  for |alpha| =
    1, 2 (those of nash.triple_norm) divided by sqrt(beta^alpha).  Each
    derivative is streamed and reduced.

    The derivatives come from holder._walk, over blocks of time slices of
    about holder._BLOCK_BYTES, so each slice is derived once.  Spatial
    derivatives are pointwise in time, so only the time quotients join
    slices, and the walk carries each |alpha| <= 2 derivative's last
    interior slice into the next block's pairs.  A quotient is reduced
    before it is divided by its step (holder._quotient_extremes); one that
    overflows reaches _weighted as an inf.

    The stream runs over the interior plus a halo of m nodes per side, m the
    top order: a derivative spoils only its own axis's edge nodes, so every
    interior value is the central formula on the same operands as on the
    whole grid, bit for bit.  A derivative non-finite on the whole grid, or
    a sup or time quotient that overflows (alone or divided by its weight)
    raises NonFiniteError.  Each level multiplies the sup by at most 4/h
    (the edge stencil), so sup|w| max(4/h, 1)^m < 1e300 proves every
    whole-grid derivative finite; when that bound fails, or the collar is
    under m nodes, the stream runs on the whole grid and checks each
    derivative."""
    m = 3 if third_order else 2
    M, h = w.grid.M, w.grid.h
    g = w.grid.interior(collar)[0].start or 0
    finite = sup_abs(w.values) * max(4 / h, 1.0) ** m < 1e300
    lo = g - m if finite and g >= m else 0
    crop = (slice(lo, M - lo),) * w.grid.N
    inner = (slice(g - lo, M - g - lo),) * w.grid.N
    K, lip = [0.0] * 4, [0.0] * 3
    steps = np.diff(w.times)
    weights = {}        # alpha -> beta^alpha, looked up on the first block
    # an overflowing time difference or quotient is an inf, refused below
    with np.errstate(over="ignore"):
        for a, d, body, diff, pairs, _ in _walk(w.values, h, m, crop, inner,
                                                range(1, 3)):
            if not a:
                continue
            if not finite:
                _extremes(d)
            if a not in weights:
                weights[a] = multi_index_weight(beta, a)
            weight = weights[a]
            K[len(a)] = max(K[len(a)], _weighted(sup_abs(body), weight, a))
            if diff is not None:
                lip[len(a)] = max(lip[len(a)], _weighted(_quotient_extremes(
                    diff, steps[pairs])[0], math.sqrt(weight), a))
            del d, body, diff
    return DecayReport(K[1], K[2], K[3], lip[1], lip[2], collar)


def _weighted(x: float, weight: float, alpha: tuple) -> float:
    """x / weight; NonFiniteError unless it is finite (x an inf, or a tiny
    weight that overflows it)."""
    q = x / weight
    if not math.isfinite(q):
        raise NonFiniteError(f"D^{alpha} over its weight {weight:.3g} is "
                             f"non-finite")
    return q
