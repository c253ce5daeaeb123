"""Picard fixed-point solver for finite Nash systems.

Each sweep freezes the diagonal gradient vector Du = (D_j u^j)_j, assembles
per-player drifts B^j_i = dH^j/dp^j (with the own slot replaced by the
s-averaged derivative int_0^1 dH^i/dp^i(p^-i, s p^i) ds), and solves the N
decoupled backward linear equations.  Their sources F^i = -H^i(t, x, Du^-i, 0)
depend neither on the iterate nor on t (see HamiltonianFamily), so each is
formed once per player per sweep.  Contraction of the sweep map is measured
in the triple norm combining the C^{2,1}-in-space weighted norm with a
time-Lipschitz part.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import holder  # derivatives, _axis_seminorm: looked up at call time
from .holder import (
    Field,
    GridError,
    SpatialGrid,
    derivative_family,
    finite_diff,
    interp_time,
    sup_abs,
    time_nodes,
)
from .oracle_lq import LQGameSpec
from .pde_linear import (
    DiffusionSpec,
    DriftSpec,
    LinearProblem,
    SourceSpec,
    TerminalSpec,
    TransportBoundError,
    solve_grid,
    stable_step,
)
from .weights import multi_index_weight, shift

__all__ = [
    "HamiltonianFamily",
    "GameSpec",
    "PicardReport",
    "lq_game",
    "assemble_drift",
    "assemble_source",
    "picard_step",
    "picard_solve",
    "triple_norm",
    "contraction_probe",
    "horizon_scan",
    "residual",
    "dimension_stability",
    "uniqueness_probe",
    "probe_fields",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_S = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


class NashError(RuntimeError):
    pass


class StepBoundError(NashError):
    """A sweep's step exceeds the upwind transport stability bound."""


# ---------------------------------------------------------------------------
# Hamiltonian families


class HamiltonianFamily:
    """H^i(t, x, p) with the diagonal momentum partials dH^j/dp^j.

    Two kinds: "lq" with H^i = (1/2)(p^i)^2 - (1/2) x' Q_i x, and
    "saturated" where p^i enters through psi_k(p) = kappa tanh(p/kappa), so
    all p-derivatives stay globally bounded.  In both, H^i depends on p only
    through p^i and not on t; assemble_source relies on this to evaluate the
    source H^i(t, x, Du^-i, 0) once, at zero momentum.
    """

    def __init__(self, kind, Q, kappa=None):
        if kind not in ("lq", "saturated"):
            raise NashError(f"unknown Hamiltonian kind {kind!r}")
        if kind == "saturated" and (kappa is None or kappa <= 0):
            raise NashError("saturation level must be positive")
        self.kind = kind
        self.Q = np.asarray(Q, dtype=float)
        self.kappa = kappa

    @staticmethod
    def lq(Q) -> "HamiltonianFamily":
        return HamiltonianFamily("lq", Q)

    @staticmethod
    def saturated(Q, kappa: float) -> "HamiltonianFamily":
        return HamiltonianFamily("saturated", Q, kappa)

    def _spatial(self, i, X):
        return 0.5 * np.einsum("jk,j...,k...->...", self.Q[i], X, X)

    def value(self, i, t, X, p):
        """H^i(t, x, p) with p = (p^0, ..., p^{N-1}) stacked like X."""
        if self.kind == "lq":
            return 0.5 * p[i] ** 2 - self._spatial(i, X)
        psi = self.kappa * np.tanh(p[i] / self.kappa)
        return 0.5 * psi ** 2 - self._spatial(i, X)

    def dpj(self, j, t, X, p):
        """dH^j/dp^j(t, x, p): the only momentum partials the drift needs."""
        if self.kind == "lq":
            return p[j]
        z = p[j] / self.kappa
        return self.kappa * np.tanh(z) / np.cosh(z) ** 2


# ---------------------------------------------------------------------------
# game specification


@dataclass
class GameSpec:
    N: int
    diffusion: DiffusionSpec
    hamiltonian: HamiltonianFamily
    terminals: list                 # per player, callable X:(N,...) -> array
    T: float
    beta: object                    # WeightSequence
    grid: SpatialGrid
    dt: float                       # requested step; capped by the CFL bound
    R: float | None = None          # soft triple-norm envelope
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.T <= 0:
            raise NashError("need T > 0")
        if self.grid.N != self.N or self.diffusion.N != self.N:
            raise NashError("dimension mismatch between grid/diffusion/N")
        if len(self.terminals) != self.N:
            raise NashError("need one terminal cost per player")
        # keep a margin under the diffusion CFL so the upwind transport term
        # added during Picard sweeps stays stable at the shared step
        step = stable_step(self.diffusion, self.grid.meshgrid(), self.grid.h,
                           (0.0, self.T / 2, self.T), self.dt, margin=0.45)
        self.times = time_nodes(0.0, self.T, step, min_steps=2)

    @property
    def step(self) -> float:
        return self.times[1] - self.times[0]

    def zero_fields(self) -> list:
        z = np.zeros((self.times.size,) + self.grid.shape)
        return [Field(self.grid, self.times, z, player=i) for i in range(self.N)]

    def terminal_field(self, i) -> np.ndarray:
        X = self.grid.meshgrid()
        return np.broadcast_to(np.asarray(self.terminals[i](X), dtype=float),
                               self.grid.shape)

    def player_weight(self, i):
        return shift(self.beta, i, self.N)


def lq_game(spec: LQGameSpec, beta, grid: SpatialGrid, dt: float,
            kind: str = "lq", kappa: float | None = None, R=None) -> GameSpec:
    """GameSpec matching an LQ oracle specification; kind is "lq" or
    "saturated" (which needs kappa)."""
    ham = HamiltonianFamily(kind, spec.Q, kappa)
    diffusion = DiffusionSpec.isotropic(spec.N, 0.5 * spec.sigma ** 2)
    terms = [
        (lambda X, G=spec.Gamma[i]: 0.5 * np.einsum("jk,j...,k...->...", G, X, X))
        for i in range(spec.N)
    ]
    return GameSpec(spec.N, diffusion, ham, terms, spec.T, beta, grid, dt, R=R)


# ---------------------------------------------------------------------------
# gradient cache and sweep assembly


class GradientCache:
    """Frozen diagonal gradients D_j u^j on the solve grid, interpolated
    linearly in time."""

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = values            # (N, K+1, M, ..., M)

    @staticmethod
    def from_fields(fields) -> "GradientCache":
        vals = np.stack([finite_diff(f, (j,)).values
                         for j, f in enumerate(fields)])
        return GradientCache(fields[0].times, vals)

    def at(self, t: float) -> np.ndarray:
        return interp_time(self.times, self.values.swapaxes(0, 1), t)


def assemble_drift(game: GameSpec, cache: GradientCache, i: int) -> DriftSpec:
    """B^j_i = dH^j/dp^j(Du) for j != i; the own slot is the s-averaged
    derivative int_0^1 dH^i/dp^i(Du^-i, s D_i u^i) ds by 8-node Gauss-Legendre
    quadrature (exact for LQ, where it gives D_i u^i / 2).
    """
    ham = game.hamiltonian

    def b(t, X):
        if X.shape[1:] != game.grid.shape:
            raise NashError("drift cache is grid-aligned; off-grid evaluation "
                            "is not supported")
        Du = cache.at(t)
        out = np.empty((game.N,) + X.shape[1:])
        for j in range(game.N):
            if j != i:
                out[j] = ham.dpj(j, t, X, Du)
        acc = np.zeros(X.shape[1:])
        ps = Du.copy()          # only the own slot changes between nodes
        for s, w in zip(_GL_S, _GL_W):
            ps[i] = s * Du[i]
            acc += w * np.asarray(ham.dpj(i, t, X, ps), dtype=float)
        if not np.all(np.isfinite(acc)):
            raise NashError(f"non-finite quadrature integrand for player {i}")
        out[i] = acc
        return out

    return DriftSpec(b)


def assemble_source(game: GameSpec, i: int) -> np.ndarray:
    """Right-hand side source -H^i(t, x, Du^-i, 0) on the grid: the own
    momentum slot zeroed and moved across the equation.  H^i depends on p
    only through p^i and not on t, so this is H^i at zero momentum, the same
    array for every iterate and step."""
    X = game.grid.meshgrid()
    return -game.hamiltonian.value(i, 0.0, X, np.zeros_like(X))


def picard_step(game: GameSpec, fields) -> list:
    """One sweep of the fixed-point map S: all players solved against the
    gradient cache frozen from the incoming iterate.
    """
    cache = GradientCache.from_fields(fields)
    out = []
    for i in range(game.N):
        problem = LinearProblem(
            game.diffusion,
            assemble_drift(game, cache, i),
            SourceSpec(lambda t, X, F=assemble_source(game, i): F),
            TerminalSpec(lambda X, i=i: game.terminals[i](X)),
            0.0, game.T, player=i)
        try:
            w = solve_grid(problem, game.grid, game.step, strict_dt=True)
        except TransportBoundError as e:
            raise StepBoundError(f"linear solve refused for player {i}: {e}") from e
        except Exception as e:
            raise NashError(f"linear solve failed for player {i}: {e}") from e
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# triple norm


def _finite_sup(x: np.ndarray) -> float:
    s = sup_abs(x)
    if not math.isfinite(s):
        raise GridError("field contains non-finite values")
    return s


def _player_norm(values: np.ndarray, times: np.ndarray, h: float,
                 beta) -> float:
    """One player's triple norm, streamed over raw arrays.

    Each D^alpha u (|alpha| <= 2) comes from holder.derivatives, is reduced
    at once (sup; gamma = 1 seminorm at order 2; sup of the time quotient
    diff/dt, and its gamma = 0 seminorm at order 2) and dropped.  The
    per-order maxima are summed with space_norm's association, so the value
    equals space_norm(family, 2, 1, beta) + space_norm(quotients, 2, 0,
    sqrt(beta), minus_variant=True) bit for bit.  The Lipschitz part divides
    by math.sqrt(beta^alpha), which is the sqrt(beta) weight of alpha because
    sqrt is monotone and correctly rounded.  A non-finite derivative or
    quotient raises GridError, as building it as a Field would.
    """
    lip = times.size >= 2
    dts = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    sups, semis = ([], [], []), []
    lip_sups, lip_top = ([], []), 0.0
    for a, d in holder.derivatives(values, h, 2):
        k = len(a)
        weight = multi_index_weight(beta, a)
        sups[k].append(_finite_sup(d) / weight)
        if k == 2:
            semis.append(holder._axis_seminorm(d, h, 1.0) / weight)
        if lip:
            q = np.diff(d, axis=0) / dts
            s = _finite_sup(q)
            if k < 2:
                lip_sups[k].append(s / math.sqrt(weight))
            else:
                # the minus variant's smallest predecessor weight is the
                # weight of alpha itself at |alpha| = 2
                lip_top = max(lip_top, (s + holder._axis_seminorm(q, h, 0.0))
                              / math.sqrt(weight))
            del q
    total = 0.0
    for m in sups:
        total += max(m)
    total += max(semis)
    if lip:
        # the Lipschitz part is its own sum, added once
        lip_total = 0.0
        for m in lip_sups:
            lip_total += max(m)
        lip_total += lip_top
        total += lip_total
    return total


def triple_norm(game: GameSpec, fields) -> float:
    """Max over players of ||.||_{C^{2,1}_{beta_i}} (sup over time) plus the
    time-Lipschitz part measured in the minus-variant C^2 norm with sqrt(beta_i).
    """
    worst = 0.0
    for i, f in enumerate(fields):
        worst = max(worst, _player_norm(f.values, f.times, f.grid.h,
                                        game.player_weight(i)))
    return worst


def _resample(f: Field, times: np.ndarray) -> Field:
    if f.times.size == times.size and np.allclose(f.times, times):
        return f
    return Field(f.grid, times, interp_time(f.times, f.values, times), f.player)


# ---------------------------------------------------------------------------
# Picard driver


@dataclass
class PicardReport:
    increments: list
    ratios: list
    iterations: int
    converged: bool
    diverged: bool
    tol: float
    max_norm: float | None          # largest iterate norm; None: not computed
    envelope_exceeded: bool
    refused: str | None = None      # why a sweep was refused; None: none was

    def to_dict(self):
        d = asdict(self)
        if self.refused is None:        # the key only marks a refused run
            del d["refused"]
        return d


def picard_solve(game: GameSpec, u0=None, tol: float = 1e-6,
                 max_iter: int = 30, *, iterate_norm: bool = False):
    """Iterate u <- S(u) until the triple-norm increment drops below tol.

    Returns (per-player Fields | None, PicardReport); divergence (three
    consecutive growing increments), non-convergence and a sweep refused at
    the transport stability bound (``refused``) yield a flagged report
    without a solution. The iterate norm |||S(u)||| costs one more
    triple norm per sweep, so it is only computed when ``iterate_norm`` is
    set or ``game.R`` asks for the envelope check; otherwise the report's
    ``max_norm`` is None (not computed).
    """
    if tol <= 0:
        raise NashError("tol must be positive")
    u = game.zero_fields() if u0 is None else [
        _resample(f, game.times) for f in u0]
    increments = []
    max_norm = 0.0 if iterate_norm or game.R is not None else None
    converged = diverged = False
    refused = None
    it = 0
    for it in range(1, max_iter + 1):
        try:
            new = picard_step(game, u)
        except StepBoundError as e:
            refused = str(e)
            break
        inc = triple_norm(game, [a - b for a, b in zip(new, u)])
        increments.append(inc)
        if max_norm is not None:
            max_norm = max(max_norm, triple_norm(game, new))
        u = new
        if inc < tol:
            converged = True
            break
        if len(increments) >= 4 and all(
                increments[-k] > increments[-k - 1] for k in (1, 2, 3)):
            diverged = True
            break
    ratios = [b / a for a, b in zip(increments, increments[1:]) if a > 0]
    exceeded = game.R is not None and max_norm > game.R
    if exceeded:
        warnings.warn(f"iterates left the R envelope: {max_norm:.3g} > "
                      f"{game.R:.3g}", stacklevel=2)
    report = PicardReport(increments, ratios, it, converged, diverged, tol,
                          max_norm, exceeded, refused)
    return (u if converged else None), report


# ---------------------------------------------------------------------------
# diagnostics


def residual(game: GameSpec, fields, collar: float = 0.1) -> list:
    """Per-player sup of the Nash equation left side over interior nodes,
    with the location of the max.  One derivative_family(u^i, 2) is built per
    player; the frozen gradients D_j u^j are read from its (j,) entries."""
    grid = game.grid
    times = fields[0].times
    if times.size < 3:
        raise NashError("need at least 3 time nodes for the d/dt stencil")
    fams = [derivative_family(f, 2) for f in fields]
    X = grid.meshgrid()
    grads = np.stack([fam[(j,)].values for j, fam in enumerate(fams)])
    inner = grid.interior(collar)
    out = []
    for i, fam in enumerate(fams):
        ut = np.gradient(fam[()].values, times, axis=0, edge_order=2)
        res = -ut
        for k, t in enumerate(times):
            Du = grads[:, k]
            diag = game.diffusion.diag_values(t, X)
            acc = np.zeros(grid.shape)
            for c in range(game.N):
                acc += diag[c] * fam[(c, c)].values[k]
            for (a, b) in game.diffusion.offdiag:
                acc += 2 * game.diffusion.offdiag_value(a, b, t) * \
                    fam[tuple(sorted((a, b)))].values[k]
            res[k] -= acc
            res[k] += game.hamiltonian.value(i, t, X, Du)
            for j in range(game.N):
                if j != i:
                    res[k] += game.hamiltonian.dpj(j, t, X, Du) * \
                        fam[(j,)].values[k]
        body = np.abs(res[(slice(None),) + inner])
        flat = int(np.argmax(body))
        loc = np.unravel_index(flat, body.shape)
        out.append((float(body.max()), loc))
    return out


@dataclass
class ProbeResult:
    ratio: float
    numerator: float
    denominator: float


def contraction_probe(game: GameSpec, u, v) -> ProbeResult:
    """||S(u) - S(v)|| / ||u - v|| in the triple norm; StepBoundError if
    either sweep is refused."""
    u = [_resample(f, game.times) for f in u]
    v = [_resample(f, game.times) for f in v]
    den = triple_norm(game, [a - b for a, b in zip(u, v)])
    if den < 1e-10:
        raise NashError("degenerate probe pair: ||u - v|| < 1e-10")
    Su = picard_step(game, u)
    Sv = picard_step(game, v)
    num = triple_norm(game, [a - b for a, b in zip(Su, Sv)])
    return ProbeResult(num / den, num, den)


def probe_fields(game: GameSpec, seed: int, scale: float = 0.05) -> list:
    """Seeded smooth fields with the per-player decay profile, for probes."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(game.N):
        c = rng.uniform(-1, 1, game.N)
        ph = rng.uniform(0, 2 * np.pi, game.N)
        om = rng.uniform(0.5, 1.5, game.N + 1)
        w = game.player_weight(i)

        def f(t, X, c=c, ph=ph, om=om, w=w):
            return scale * sum(
                c[j] * w.value(j) * np.sin(om[j] * X[j] + ph[j] + om[-1] * t)
                for j in range(game.N))

        out.append(Field.from_function(game.grid, game.times, f, player=i))
    return out


@dataclass
class HorizonRow:
    T: float
    ratios: list
    max_ratio: float
    converged: bool


@dataclass
class HorizonScan:
    rows: list
    spearman: float                 # rank correlation of max ratio vs T
    T_star_low: float | None       # largest T with all ratios < 1 + convergence
    T_fail: float | None           # smallest T with a failure

    def to_csv_rows(self):
        return [(r.T, r.max_ratio, int(r.converged)) + tuple(r.ratios)
                for r in self.rows]


def _average_ranks(x) -> np.ndarray:
    """1-based ranks of x; tied entries share the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse]


def horizon_scan(make_game, T_list, n_pairs: int = 3, seed: int = 0,
                 tol: float = 1e-6, max_iter: int = 30) -> HorizonScan:
    """Contraction probes and a Picard attempt at each horizon; emits the
    empirical bracket of the short-time threshold.  A probe refused at the
    transport stability bound counts as ratio inf and a refused Picard run
    as not converged, so such a horizon is a failure, not an error."""
    T_list = list(T_list)
    if not T_list:
        raise NashError("empty horizon list")
    if any(b <= a for a, b in zip(T_list, T_list[1:])):
        raise NashError("horizons must be ascending")
    rows = []
    for T in T_list:
        game = make_game(T)
        ratios = []
        for k in range(n_pairs):
            u = probe_fields(game, seed + 2 * k)
            v = probe_fields(game, seed + 2 * k + 1)
            try:
                ratios.append(contraction_probe(game, u, v).ratio)
            except StepBoundError:
                ratios.append(math.inf)
        _, rep = picard_solve(game, tol=tol, max_iter=max_iter)
        rows.append(HorizonRow(T, ratios, max(ratios), rep.converged))
    ok = [r for r in rows if r.max_ratio < 1 and r.converged]
    bad = [r for r in rows if not (r.max_ratio < 1 and r.converged)]
    maxima = [r.max_ratio for r in rows]
    if len(rows) > 1 and max(maxima) - min(maxima) > 0:
        ranks = np.stack([_average_ranks([r.T for r in rows]),
                          _average_ranks(maxima)])
        corr = np.corrcoef(ranks)[1, 0]
    else:
        corr = np.nan
    return HorizonScan(rows, float(corr),
                       max((r.T for r in ok), default=None),
                       min((r.T for r in bad), default=None))


@dataclass
class StabilityRow:
    N_small: int
    N_large: int
    diff: float                     # max_i sup |u^i_N - u^i_N'| on shared nodes
    tail: float                     # sum_{j >= N_small} beta^j


@dataclass
class StabilityReport:
    rows: list
    fitted_C: float                 # max diff / tail over pairs

    def to_csv_rows(self):
        return [(r.N_small, r.N_large, r.diff, r.tail) for r in self.rows]


def dimension_stability(make_game, N_list, tol: float = 1e-6,
                        max_iter: int = 30) -> StabilityReport:
    """Solve the same family at each N and compare players' values on the
    shared sub-grid, extra coordinates of the larger system frozen at 0."""
    N_list = list(N_list)
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise NashError("N_list must be ascending")
    sols = {}
    games = {}
    for N in N_list:
        game = make_game(N)
        sol, _ = picard_solve(game, tol=tol, max_iter=max_iter)
        if sol is None:
            raise NashError(f"Picard failed to converge at N = {N}")
        games[N], sols[N] = game, sol
    rows = []
    # Track the players common to every system: u^i_N for fixed i is the
    # quantity that stabilises as N grows; the newest player always couples
    # at distance one to its neighbour and never settles.
    n_common = N_list[0]
    for a, b in zip(N_list, N_list[1:]):
        ga = games[a]
        center = (ga.grid.M - 1) // 2
        tail = float(sum(ga.beta.value(j)
                         for j in range(a, ga.beta.W + 1)))
        worst = 0.0
        for i in range(n_common):
            fa = sols[a][i]
            fb = sols[b][i]
            sliced = fb.values[(slice(None),) + (slice(None),) * a
                               + (center,) * (b - a)]
            fb_shared = Field(ga.grid, fb.times, sliced, player=i)
            fa_c = _resample(fa, ga.times)
            fb_c = _resample(fb_shared, ga.times)
            worst = max(worst, float(np.max(np.abs(fa_c.values - fb_c.values))))
        rows.append(StabilityRow(a, b, worst, tail))
    C = max((r.diff / r.tail for r in rows if r.tail > 0), default=0.0)
    return StabilityReport(rows, C)


def uniqueness_probe(game: GameSpec, u0_a, u0_b, tol: float = 1e-6,
                     max_iter: int = 30) -> float:
    """Fixed points from two initial guesses; returns their sup-difference."""
    sol_a, _ = picard_solve(game, u0_a, tol=tol, max_iter=max_iter)
    sol_b, _ = picard_solve(game, u0_b, tol=tol, max_iter=max_iter)
    if sol_a is None or sol_b is None:
        raise NashError("a Picard run failed to converge")
    return max(float(np.max(np.abs(fa.values - fb.values)))
               for fa, fb in zip(sol_a, sol_b))
