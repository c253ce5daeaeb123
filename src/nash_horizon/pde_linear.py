"""Backward transport-diffusion and forward Fokker-Planck solvers.

The backward equation is  -dw/dt - tr(A D^2 w) + <B, Dw> = F,  w(T) = G,
solved by explicit Euler stepping from t = T with centered diffusion stencils
and drift-sign upwinded transport, homogeneous Neumann walls.  The forward
density equation is its formal adjoint, integrated in conservative flux form
so that total mass is preserved up to the no-flux walls.  A Feynman-Kac
Monte Carlo backend provides an independent route to the same values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .holder import (Field, GridError, SpatialGrid, derivatives, sup_abs,
                     time_nodes)
from .weights import multi_index_weight

__all__ = [
    "DiffusionSpec",
    "DriftSpec",
    "SourceSpec",
    "TerminalSpec",
    "LinearProblem",
    "build_decay_problem",
    "DecayReport",
    "FPKResult",
    "GradientMassReport",
    "stable_step",
    "solve_grid",
    "solve_mc",
    "solve_fpk_grid",
    "fpk_gradient_mass",
    "verify_decay",
]

MAX_GRID_DIM = 4


class CFLError(RuntimeError):
    """Requested time step violates the explicit stability bound."""


class SolveError(RuntimeError):
    """Numerical failure during time stepping."""


class TransportBoundError(SolveError):
    """A strict step exceeds the upwind transport stability bound."""


class SpecError(ValueError):
    """Invalid problem specification."""


# ---------------------------------------------------------------------------
# problem data


@dataclass
class DiffusionSpec:
    """Diffusion matrix A(t,x): time-only off-diagonals A^{ij}(t) (i != j),
    diagonals A^{kk}(t, x^k) depending on x only through x^k.
    """

    N: int
    diag: list          # k -> callable (t, xk) -> array like xk
    offdiag: dict       # (i, j), i < j -> callable t -> float

    @staticmethod
    def constant(matrix) -> "DiffusionSpec":
        m = np.asarray(matrix, dtype=float)
        if not np.allclose(m, m.T):
            raise SpecError("diffusion matrix must be symmetric")
        if np.linalg.eigvalsh(m).min() <= 0:
            raise SpecError("diffusion must satisfy A >= lam I with lam > 0")
        N = m.shape[0]
        diag = [
            (lambda t, xk, v=m[k, k]: v + 0.0 * xk) for k in range(N)
        ]
        off = {(i, j): (lambda t, v=m[i, j]: v)
               for i in range(N) for j in range(i + 1, N) if m[i, j] != 0.0}
        return DiffusionSpec(N, diag, off)

    @staticmethod
    def isotropic(N: int, a: float) -> "DiffusionSpec":
        return DiffusionSpec.constant(a * np.eye(N))

    def diag_values(self, t: float, X: np.ndarray) -> list:
        """A^{kk}(t, x^k) for each k, on coordinates X of shape (N, ...)."""
        return [np.broadcast_to(np.asarray(self.diag[k](t, X[k]), dtype=float),
                                X[k].shape)
                for k in range(self.N)]

    def offdiag_value(self, i: int, j: int, t: float) -> float:
        key = (min(i, j), max(i, j))
        fn = self.offdiag.get(key)
        return float(fn(t)) if fn is not None else 0.0

    def matrix_points(self, t: float, pts: np.ndarray) -> np.ndarray:
        """Full matrices at points pts of shape (N, P): returns (P, N, N)."""
        P = pts.shape[1]
        out = np.zeros((P, self.N, self.N))
        for k in range(self.N):
            out[:, k, k] = np.asarray(self.diag[k](t, pts[k]), dtype=float)
        for (i, j) in self.offdiag:
            v = self.offdiag_value(i, j, t)
            out[:, i, j] = v
            out[:, j, i] = v
        return out

    def sup_norm(self, t_samples, X) -> float:
        """Max absolute entry over sampled times and grid coordinates."""
        best = 0.0
        for t in t_samples:
            for a in self.diag_values(t, X):
                best = max(best, float(np.max(np.abs(a))))
            for (i, j) in self.offdiag:
                best = max(best, abs(self.offdiag_value(i, j, t)))
        return best


@dataclass
class DriftSpec:
    """Drift B(t, x) in R^N with decay metadata ||D_j B^i|| <= c_B beta^(j-i)."""

    b: object                     # callable (t, X:(N,...)) -> (N,...)
    c_B: float = 0.0
    beta: object = None           # weight-like with .value(offset)

    def eval(self, t: float, X: np.ndarray) -> np.ndarray:
        out = np.asarray(self.b(t, X), dtype=float)
        if out.shape != X.shape:
            out = np.broadcast_to(out, X.shape)
        return out

    def probe_decay(self, N: int, L: float, t: float = 0.0, n_points: int = 20,
                    seed: int = 0, slack: float = 0.1, h: float = 1e-4) -> bool:
        """Sampled finite-difference check of the declared decay bounds."""
        if self.beta is None:
            return True
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-L, L, size=(N, n_points))
        for j in range(N):
            e = np.zeros((N, 1))
            e[j] = h
            dB = (self.eval(t, pts + e) - self.eval(t, pts - e)) / (2 * h)
            for i in range(N):
                bound = (1 + slack) * self.c_B * self.beta.value(j - i)
                if np.max(np.abs(dB[i])) > bound:
                    return False
        return True


@dataclass
class SourceSpec:
    f: object                     # callable (t, X:(N,...)) -> array, or None

    def eval(self, t, X):
        if self.f is None:
            return 0.0
        return np.asarray(self.f(t, X), dtype=float)


@dataclass
class TerminalSpec:
    g: object                     # callable (X:(N,...)) -> array

    def eval(self, X):
        return np.broadcast_to(np.asarray(self.g(X), dtype=float), X.shape[1:]).copy()


@dataclass
class LinearProblem:
    diffusion: DiffusionSpec
    drift: DriftSpec | None
    source: SourceSpec | None
    terminal: TerminalSpec
    t0: float
    T: float
    player: int | None = None

    def __post_init__(self):
        if not 0 <= self.t0 < self.T:
            raise SpecError("need 0 <= s < T")


def build_decay_problem(N: int, beta, c_B: float, c_F: float, c_G: float,
                        a: float, T: float, t0: float = 0.0) -> LinearProblem:
    """Coupled linear problem with builder-enforced decay:
    B^i = c_B sum_j beta^(j-i) tanh(x^j), F and G = c sum_j beta^j tanh(x^j),
    so ||D_j B^i|| <= c_B beta^(j-i), ||D_j F|| <= c_F beta^j and likewise
    for G (higher derivatives of tanh are bounded by 1 as well).
    """

    def drift(t, X, c=c_B):
        return np.stack([
            c * sum(beta.value(j - i) * np.tanh(X[j]) for j in range(N))
            for i in range(N)])

    def ramp(X, c):
        return c * sum(beta.value(j) * np.tanh(X[j]) for j in range(N))

    return LinearProblem(
        DiffusionSpec.isotropic(N, a),
        DriftSpec(drift, c_B=c_B, beta=beta) if c_B else None,
        SourceSpec(lambda t, X: ramp(X, c_F)) if c_F else None,
        TerminalSpec(lambda X: ramp(X, c_G)),
        t0, T)


# ---------------------------------------------------------------------------
# grid stencils (homogeneous Neumann via mirror ghost nodes): solve_grid makes
# each axis's (lower, upper) neighbours once per step, and the diffusion and
# upwind transport stencils both read them


def _neighbours(v: np.ndarray, axis: int) -> tuple:
    """(lower, upper) mirror neighbours of v along axis: the ghost node below
    the first node is v[1], the one above the last is v[M-2]."""
    idx = np.arange(v.shape[axis])
    lo = np.take(v, np.concatenate(([1], idx[:-1])), axis=axis)
    hi = np.take(v, np.concatenate((idx[1:], [idx[-2]])), axis=axis)
    return lo, hi


def _centered_diff(v, axis, h):
    lo, hi = _neighbours(v, axis)
    return (hi - lo) / (2 * h)


def _diffusion_term(diff: DiffusionSpec, t, X, v, nbrs, h):
    out = np.zeros_like(v)
    diag = diff.diag_values(t, X)
    for k, (lo, hi) in enumerate(nbrs):
        out += diag[k] * ((lo - 2 * v + hi) / h ** 2)
    for (i, j) in diff.offdiag:
        a = diff.offdiag_value(i, j, t)
        if a != 0.0:
            out += 2 * a * _centered_diff(_centered_diff(v, i, h), j, h)
    return out


def _transport_term(B, v, nbrs, h):
    """Upwinded <B, Dv>: backward difference where B > 0, forward where B < 0."""
    out = np.zeros_like(v)
    for j, (lo, hi) in enumerate(nbrs):
        out += np.where(B[j] > 0, B[j] * ((v - lo) / h), B[j] * ((hi - v) / h))
    return out


def _transport_step(N: int, supA: float, supB: float, h: float) -> float:
    """Largest explicit step that covers upwind transport at sup|B| as well
    as diffusion at sup|A|, with a 0.9 margin."""
    rate = 2 * N * supA / h ** 2 + N * supB / h
    return 0.9 / rate if rate > 0 else np.inf


def stable_step(diffusion: DiffusionSpec, X: np.ndarray, h: float, t_samples,
                dt: float, drift: DriftSpec | None = None,
                margin: float | None = None) -> float:
    """Explicit step for a requested dt on coordinates X: capped at margin *
    h^2/(2 N sup|A|) when a margin is given; otherwise CFLError above that
    bound, then shrunk (never coarsened) to cover a drift's upwind transport."""
    N = X.shape[0]
    supA = diffusion.sup_norm(t_samples, X)
    cfl = h ** 2 / (2 * N * supA) if supA > 0 else np.inf
    if margin is not None:
        return min(dt, margin * cfl)
    if dt > cfl * (1 + 1e-9):
        raise CFLError(f"dt = {dt} exceeds h^2/(2 N sup|A|) = {cfl}")
    if drift is not None:
        supB = max(float(np.max(np.abs(drift.eval(t, X)))) for t in t_samples)
        if supB > 0:
            dt = min(dt, _transport_step(N, supA, supB, h))
    return dt


def solve_grid(problem: LinearProblem, grid: SpatialGrid, dt: float,
               strict_dt: bool = False) -> Field:
    """Backward explicit Euler for the transport-diffusion equation.

    With strict_dt the requested step is used verbatim, and a step raises
    TransportBoundError if it exceeds 0.9 / (2 N sup|A| / h^2 + N sup|B| / h)
    for the drift B of that step; otherwise the step shrinks to cover the
    upwind transport term as well.
    """
    N = grid.N
    if N != problem.diffusion.N:
        raise SpecError("grid dimension does not match diffusion spec")
    if N > MAX_GRID_DIM:
        raise SpecError(f"grid backend limited to N <= {MAX_GRID_DIM}")
    X = grid.meshgrid()
    h = grid.h
    t_samples = (problem.t0, 0.5 * (problem.t0 + problem.T), problem.T)
    dt = stable_step(problem.diffusion, X, h, t_samples, dt,
                     None if strict_dt else problem.drift)
    if strict_dt:
        supA = problem.diffusion.sup_norm(t_samples, X)
    times = time_nodes(problem.t0, problem.T, dt)
    step = times[1] - times[0]
    vals = np.empty((times.size,) + grid.shape)
    vals[-1] = problem.terminal.eval(X)
    for k in range(times.size - 2, -1, -1):
        t = times[k + 1]
        v = vals[k + 1]
        nbrs = [_neighbours(v, axis) for axis in range(N)]
        # blow-up is caught below; silence the transient overflow noise
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = _diffusion_term(problem.diffusion, t, X, v, nbrs, h)
            if problem.drift is not None:
                B = problem.drift.eval(t, X)
                if strict_dt:
                    bound = _transport_step(N, supA, sup_abs(B), h)
                    if step > bound:
                        raise TransportBoundError(
                            f"step {step:.4g} is {step / bound:.3g} times the "
                            f"transport stability bound {bound:.4g} at "
                            f"t={t:.5g}")
                rhs -= _transport_term(B, v, nbrs, h)
            if problem.source is not None:
                rhs += problem.source.eval(t, X)
            vals[k] = v + step * rhs
        if not np.all(np.isfinite(vals[k])):
            bad = np.argwhere(~np.isfinite(vals[k]))[0]
            raise SolveError(f"non-finite value at t={times[k]:.5g}, node {tuple(bad)}")
    return Field(grid, times, vals, problem.player)


# ---------------------------------------------------------------------------
# Feynman-Kac Monte Carlo


def solve_mc(problem: LinearProblem, query_points, paths: int, dt: float,
             seed: int):
    """Pathwise estimates of w(s, x) = E[G(X_T) + int F(t, X_t) dt] with
    dX = -B dt + sigma dW, sigma sigma^T = 2A.  Returns a list of
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
    out = []
    for qi, x0 in enumerate(pts):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(qi,))))
        X = np.tile(x0, (paths, 1))
        run = np.zeros(paths)
        for t in times[:-1]:
            Xt = X.T  # (N, P)
            if problem.source is not None:
                run += step * np.broadcast_to(problem.source.eval(t, Xt), (paths,))
            m = 2.0 * problem.diffusion.matrix_points(t, Xt)
            try:
                chol = np.linalg.cholesky(m)
            except np.linalg.LinAlgError as e:
                raise SolveError("2A is not positive definite") from e
            dW = rng.standard_normal((paths, N))
            drift = np.zeros((paths, N))
            if problem.drift is not None:
                drift = -problem.drift.eval(t, Xt).T
            X = X + step * drift + np.sqrt(step) * np.einsum(
                "pij,pj->pi", chol, dW)
        payoff = run + np.broadcast_to(problem.terminal.eval(X.T), (paths,))
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


def _face_avg(v, axis):
    lo = [slice(None)] * v.ndim
    hi = [slice(None)] * v.ndim
    lo[axis] = slice(0, -1)
    hi[axis] = slice(1, None)
    return 0.5 * (v[tuple(lo)] + v[tuple(hi)])


def solve_fpk_grid(diffusion: DiffusionSpec, drift: DriftSpec | None, y, eps,
                   grid: SpatialGrid, dt: float, T: float,
                   t0: float = 0.0) -> FPKResult:
    """Forward conservative scheme for
    d rho/dt = sum_jk D^2_jk(A^jk rho) + div(B rho),  rho(t0) = N(y, eps^2 I).
    No-flux walls conserve mass exactly; negative undershoot is clipped and
    tracked.
    """
    N = grid.N
    if N > 2:
        raise SpecError("density diagnostics limited to N <= 2")
    if eps < 2 * grid.h:
        raise SpecError("mollifier width must satisfy eps >= 2h")
    X = grid.meshgrid()
    h = grid.h
    y = np.asarray(y, dtype=float).reshape(N)
    dt = stable_step(diffusion, X, h, (t0, 0.5 * (t0 + T), T), dt, drift)
    times = time_nodes(t0, T, dt)
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
        t = times[k]
        B = drift.eval(t, X) if drift is not None else None
        diag = diffusion.diag_values(t, X)
        div = np.zeros_like(rho)
        for ax in range(N):
            G = diag[ax] * rho
            lo = [slice(None)] * N
            hi = [slice(None)] * N
            lo[ax] = slice(0, -1)
            hi[ax] = slice(1, None)
            flux = (G[tuple(hi)] - G[tuple(lo)]) / h
            if B is not None:
                bf = _face_avg(B[ax], ax)
                flux += np.where(bf > 0, bf * rho[tuple(hi)], bf * rho[tuple(lo)])
            for (i, j) in diffusion.offdiag:
                if ax not in (i, j):
                    continue
                other = j if ax == i else i
                a = diffusion.offdiag_value(i, j, t)
                if a != 0.0:
                    flux += a * _face_avg(_centered_diff(rho, other, h), ax)
            # zero flux at the walls
            width = [(0, 0)] * N
            width[ax] = (1, 1)
            flux = np.pad(flux, width)
            div += (flux[tuple(hi)] - flux[tuple(lo)]) / h
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


def fpk_gradient_mass(result: FPKResult, t_min: float | None = None) -> GradientMassReport:
    """Cumulative time integral of sup_k int |D_k rho| and its log-log fit."""
    f = result.field
    h = f.grid.h
    N = f.grid.N
    elapsed = f.times - f.times[0]
    g = np.empty(f.times.size)
    for k, slc in enumerate(f.values):
        g[k] = max(float(np.sum(np.abs(np.gradient(slc, h, axis=ax))) * h ** N)
                   for ax in range(N))
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(elapsed))))
    if t_min is None:
        t_min = 10 * result.eps ** 2
    mask = elapsed >= t_min
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


def verify_decay(w: Field, beta, collar: float = 0.1,
                 third_order: bool = True) -> DecayReport:
    """Measure the decay constants  sup |D^alpha w| / beta^alpha  for
    |alpha| = 1, 2 (and 3) over interior nodes, plus the time-Lipschitz
    quotients divided by sqrt(beta^alpha).  Each derivative is streamed from
    holder.derivatives and reduced; a non-finite one raises GridError."""
    inner = (slice(None),) + w.grid.interior(collar)
    dts = np.diff(w.times)
    K, lip = [0.0] * 4, [0.0] * 3
    for a, d in derivatives(w.values, w.grid.h, 3 if third_order else 2):
        if not a:
            continue
        if not np.all(np.isfinite(d)):
            raise GridError("field contains non-finite values")
        weight = multi_index_weight(beta, a)
        body = d[inner]
        K[len(a)] = max(K[len(a)], sup_abs(body) / weight)
        # time differences are taken over the interior view only: the
        # quotients are pointwise in space, so no full-size temporary is needed
        if dts.size and len(a) == 1:
            dtd = np.gradient(body, w.times, axis=0)
            lip[1] = max(lip[1], sup_abs(dtd) / np.sqrt(weight))
        elif dts.size and len(a) == 2:
            q = np.diff(body, axis=0).reshape(dts.size, -1)
            rows = np.maximum(q.max(axis=1), -q.min(axis=1))
            lip[2] = max(lip[2], float(np.max(rows / dts)) / np.sqrt(weight))
        del d, body
    return DecayReport(K[1], K[2], K[3], lip[1], lip[2], collar)
