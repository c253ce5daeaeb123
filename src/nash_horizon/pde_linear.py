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

from .holder import (Field, GridError, SpatialGrid, derivatives, sup_abs,
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

# fpk_gradient_mass differentiates this many bytes of time slices at once:
# blocks sized in bytes keep a small N = 2 slice count near one (a fixed
# count of slices made N = 2 slower) while N = 1 takes dozens of slices
_GRADIENT_BLOCK_BYTES = 256 * 1024

# verify_decay streams the derivatives of this many own time slices at once
# (plus one overlap slice per side): small blocks keep its temporaries, and
# the freed heap they leave resident, a few slices in size
_TIME_BLOCK = 4


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
        """DiffusionSpec(N, a), kept only as bench/workloads.py builds it."""
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
    player: int | None = None

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
# grid stencils (homogeneous Neumann via mirror ghost nodes): every stencil
# picks out neighbours through _faces; solve_grid makes each axis's (lower,
# upper) neighbours once per step, and the diffusion and upwind transport
# stencils both read them


def _faces(v: np.ndarray, axis: int) -> tuple:
    """Views of v at the lower and the upper node of each face along axis."""
    head = (slice(None),) * axis
    return v[head + (slice(None, -1),)], v[head + (slice(1, None),)]


def _neighbours(v: np.ndarray, axis: int) -> tuple:
    """(lower, upper) mirror neighbours of v along axis: the ghost node below
    the first node is v[1], the one above the last is v[M-2]."""
    lo, hi = _faces(v, axis)
    head = (slice(None),) * axis
    return (np.concatenate((hi[head + (slice(None, 1),)], lo), axis=axis),
            np.concatenate((hi, lo[head + (slice(-1, None),)]), axis=axis))


def _diffusion_term(diff: DiffusionSpec, v, nbrs, h):
    out = np.zeros_like(v)
    for lo, hi in nbrs:
        out += diff.a * ((lo - 2 * v + hi) / h ** 2)
    return out


def _transport_term(B, v, nbrs, h):
    """Upwinded <B, Dv>: backward difference where B > 0, forward where B < 0."""
    out = np.zeros_like(v)
    for j, (lo, hi) in enumerate(nbrs):
        out += np.where(B[j] > 0, B[j] * ((v - lo) / h), B[j] * ((hi - v) / h))
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
    return Field(grid, times, vals, problem.player)


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
    """
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
    for k in range(times.size - 1):
        div = np.zeros_like(rho)
        for ax in range(N):
            flux = np.diff(diffusion.a * rho, axis=ax) / h
            # zero flux at the walls
            div += np.diff(flux, axis=ax, prepend=0.0, append=0.0) / h
        rho = rho + step * div
        worst = float(rho.min())
        if worst < 0:
            undershoot = max(undershoot, -worst)
            rho = np.maximum(rho, 0.0)
        vals[k + 1] = rho
        mass[k + 1] = rho.sum() * h ** N
        if abs(mass[k + 1] - 1.0) > 1e-3:
            raise SolveError(f"mass drift {mass[k + 1] - 1.0:.2e} at t={times[k + 1]:.5g}")
        if not np.all(np.isfinite(rho)):
            raise SolveError(f"non-finite density at t={times[k + 1]:.5g}")
    return FPKResult(Field(grid, times, vals), mass, undershoot, float(eps))


@dataclass
class GradientMassReport:
    times: np.ndarray           # elapsed t - s at each node
    gradient_mass: np.ndarray   # sup_k int |D_k rho(t)| per node
    cumulative: np.ndarray      # int_s^t of the above
    slope: float                # log-log fit exponent of the cumulative curve
    C: float                    # fitted prefactor

    def to_csv_rows(self):
        return list(zip(self.times, self.gradient_mass, self.cumulative))


def fpk_gradient_mass(result: FPKResult) -> GradientMassReport:
    """Cumulative time integral of sup_k int |D_k rho| and its log-log fit
    over the nodes at elapsed time >= 10 eps^2, where the mollifier's
    offset has washed out.  The gradients are taken over blocks of time
    slices of about _GRADIENT_BLOCK_BYTES each; every slice is still summed
    on its own, so each node's value is that of a per-slice gradient."""
    f = result.field
    h = f.grid.h
    N = f.grid.N
    elapsed = f.times - f.times[0]
    g = np.empty(f.times.size)
    rows = max(1, _GRADIENT_BLOCK_BYTES // f.values[0].nbytes)
    for s in range(0, f.times.size, rows):
        grads = [np.abs(np.gradient(f.values[s:s + rows], h, axis=1 + ax))
                 for ax in range(N)]
        for k in range(grads[0].shape[0]):
            g[s + k] = max(float(np.sum(d[k])) * h ** N for d in grads)
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
    time_lip_grad: float        # sup_j ||d_t D_j w|| / sqrt(beta^j)
    time_lip_hess: float        # second-derivative time-Lipschitz quotient
    collar: float

    def values(self) -> dict:
        return {"K1": self.K1, "K2": self.K2, "K3": self.K3,
                "time_lip_grad": self.time_lip_grad,
                "time_lip_hess": self.time_lip_hess, "collar": self.collar}


def _time_gradient(f: np.ndarray, t: np.ndarray, uniform: bool) -> np.ndarray:
    """np.gradient(f, t, axis=0) by the formula uniform names.  np.gradient
    picks its uniform-step formula when every step of t is equal, and a short
    run of a linspace grid's steps can be equal where the whole run is not."""
    if uniform:
        return np.gradient(f, t[1] - t[0], axis=0)
    dx = np.diff(t).reshape((-1,) + (1,) * (f.ndim - 1))
    dx1, dx2 = dx[:-1], dx[1:]
    out = np.empty_like(f)
    out[1:-1] = (-dx2 / (dx1 * (dx1 + dx2)) * f[:-2]
                 + (dx2 - dx1) / (dx1 * dx2) * f[1:-1]
                 + dx1 / (dx2 * (dx1 + dx2)) * f[2:])
    out[0] = (f[1] - f[0]) / dx[0]
    out[-1] = (f[-1] - f[-2]) / dx[-1]
    return out


def verify_decay(w: Field, beta, collar: float = 0.1,
                 third_order: bool = True) -> DecayReport:
    """Measure the decay constants  sup |D^alpha w| / beta^alpha  for
    |alpha| = 1, 2 (and 3) over interior nodes, plus the time-Lipschitz
    quotients divided by sqrt(beta^alpha).  Each derivative is streamed from
    holder.derivatives and reduced.

    The stream runs over blocks of _TIME_BLOCK time slices.  Spatial
    derivatives are pointwise in time, so only the time quotients cross a
    block's edge: each block carries one overlap slice on each side and
    reduces over its own slices only, the pair (k, k+1) belonging to the
    block that owns k.  The order-1 quotient is np.gradient's, with its
    uniform-step formula chosen once on the whole of w.times.

    The stream runs over the interior plus a halo of m nodes per side, m the
    top order: an np.gradient spoils only its own axis's edge nodes, so every
    interior value is the central formula on the same operands as on the
    whole grid, bit for bit.  A non-finite derivative on the whole grid
    raises GridError.  Each level multiplies the sup by at most 4/h (the
    edge stencil), so sup|w| max(4/h, 1)^m < 1e300 proves every whole-grid
    derivative finite; when that bound fails, or the collar is under m
    nodes, the stream runs on the whole grid and checks each derivative."""
    m = 3 if third_order else 2
    M, h = w.grid.M, w.grid.h
    g = w.grid.interior(collar)[0].start or 0
    finite = sup_abs(w.values) * max(4 / h, 1.0) ** m < 1e300
    lo = g - m if finite and g >= m else 0
    crop = (slice(lo, M - lo),) * w.grid.N
    inner = (slice(None),) + (slice(g - lo, M - g - lo),) * w.grid.N
    n = w.times.size
    dts = np.diff(w.times)
    uniform = bool(np.all(dts == dts[:1]))
    K, lip = [0.0] * 4, [0.0] * 3
    for a0 in range(0, n, _TIME_BLOCK):
        # own slices a0..b0-1 of the block's slices e0..e1-1
        b0 = min(a0 + _TIME_BLOCK, n)
        e0, e1 = max(a0 - 1, 0), min(b0 + 1, n)
        own = slice(a0 - e0, b0 - e0)
        for a, d in derivatives(w.values[(slice(e0, e1),) + crop], h, m):
            if not a:
                continue
            if not finite and not np.all(np.isfinite(d[own])):
                raise GridError("field contains non-finite values")
            weight = multi_index_weight(beta, a)
            body = d[inner]
            K[len(a)] = max(K[len(a)], sup_abs(body[own]) / weight)
            # time quotients are taken over the interior view only: they
            # are pointwise in space, so no full-size temporary is needed
            if dts.size and len(a) == 1:
                dtd = _time_gradient(body, w.times[e0:e1], uniform)[own]
                lip[1] = max(lip[1], sup_abs(dtd) / np.sqrt(weight))
            elif e1 - a0 > 1 and len(a) == 2:
                # the pairs (k, k+1) for own k < n - 1
                q = np.diff(body[own.start:], axis=0).reshape(e1 - a0 - 1, -1)
                rows = np.maximum(q.max(axis=1), -q.min(axis=1))
                lip[2] = max(lip[2], float(np.max(rows / dts[a0:e1 - 1]))
                             / np.sqrt(weight))
            del d, body
    return DecayReport(K[1], K[2], K[3], lip[1], lip[2], collar)
