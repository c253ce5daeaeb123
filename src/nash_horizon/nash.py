"""Picard fixed-point solver for finite Nash systems.

Each sweep freezes the diagonal gradient vector Du = (D_j u^j)_j on its time
nodes, assembles per-player drifts B^j_i = dH^j/dp^j (with the own slot
replaced by the s-averaged derivative int_0^1 dH^i/dp^i(p^-i, s p^i) ds, in
closed form), and solves the N decoupled backward linear equations.  Their
sources F^i = -H^i(t, x, Du^-i, 0) depend neither on the iterate nor on t
(see HamiltonianFamily), so each is formed once per game (GameSpec.sources).
Contraction of the sweep map is measured in the triple norm combining the
C^{2,1}-in-space weighted norm with a time-Lipschitz part.  Its order-2
seminorms are each skipped when a bound read from the derivative's max and
min cannot raise their running max, which leaves the value bit-identical.
The norm takes any iterable of fields and reduces them one at a time, so the
Picard driver and the contraction probe hand it their increments as a stream:
each is made only when the norm reaches it, and a sweep holds the old
iterate, the frozen gradients and the new iterate, 3N fields.  The norm
and residual walk each field's time axis in blocks of about
holder._BLOCK_BYTES of slices, so neither makes a whole-field temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import holder  # derivatives, _axis_seminorm: looked up at call time
from .holder import (
    Field,
    NonFiniteError,
    SpatialGrid,
    _extremes,
    finite_diff,
    interp_time,
    time_nodes,
)
from .oracle_lq import LQGameSpec
from .pde_linear import (
    DiffusionSpec,
    LinearProblem,
    SolveError,
    TerminalSpec,
    TransportBoundError,
    cfl_step,
    solve_grid,
)
from .weights import multi_index_weight, shift

__all__ = [
    "HamiltonianFamily",
    "GameSpec",
    "PicardReport",
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


class NashError(RuntimeError):
    pass


class StepBoundError(NashError):
    """A sweep's step exceeds the upwind transport stability bound."""


class DivergedError(NashError):
    """A sweep went non-finite: in the linear solve or the frozen drift."""


# ---------------------------------------------------------------------------
# Hamiltonian families


def _quadratic(M, X):
    """(1/2) x' M x at every node of the coordinates X (N, ...)."""
    return 0.5 * np.einsum("jk,j...,k...->...", M, X, X)


class HamiltonianFamily:
    """H^i(x, p) with the diagonal momentum partials dH^j/dp^j.

    Two kinds: without kappa the LQ H^i = (1/2)(p^i)^2 - (1/2) x' Q_i x;
    with a saturation level kappa > 0, p^i enters through psi(p) = kappa
    tanh(p/kappa), so all p-derivatives stay globally bounded.  In both, H^i
    depends on p only through p^i and not on t (hence no t argument);
    assemble_source relies on this to evaluate the source H^i(x, Du^-i, 0)
    once, at zero momentum.
    """

    def __init__(self, Q, kappa=None):
        if kappa is not None and not kappa > 0:
            raise NashError("saturation level must be positive")
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 3 or len(set(Q.shape)) != 1 or not Q.size:
            raise NashError(f"Q must be an (N, N, N) stack with N >= 1, got "
                            f"shape {Q.shape}")
        if not np.all(np.isfinite(Q)):
            raise NashError("Q must be finite")
        self.Q = Q
        self.kappa = kappa

    def value(self, i, X, p):
        """H^i(x, p) with p = (p^0, ..., p^{N-1}) stacked like X, whose
        leading dimension must be the N of Q."""
        if len(X) != self.Q.shape[0]:
            raise NashError(f"X holds {len(X)} coordinates; Q is for "
                            f"{self.Q.shape[0]} players")
        if self.kappa is None:
            return 0.5 * p[i] ** 2 - _quadratic(self.Q[i], X)
        psi = self.kappa * np.tanh(p[i] / self.kappa)
        return 0.5 * psi ** 2 - _quadratic(self.Q[i], X)

    def dpj(self, j, p):
        """dH^j/dp^j(p), free of x: the only momentum partials the drift
        needs."""
        if self.kappa is None:
            return p[j]
        z = p[j] / self.kappa
        return self.kappa * np.tanh(z) / np.cosh(z) ** 2

    def own_average(self, i, p):
        """int_0^1 dH^i/dp^i(p^-i, s p^i) ds in closed form: p^i / 2 for the
        LQ kind, psi^2 / (2 p^i) with psi = kappa tanh(p^i / kappa) for the
        saturated one, and 0 at p^i = 0.  Both are (H^i(p) - H^i(p^-i, 0)) /
        p^i, not formed literally because its x'Q_i x parts would cancel to
        round-off."""
        if self.kappa is None:
            return 0.5 * p[i]
        psi = self.kappa * np.tanh(p[i] / self.kappa)
        return np.divide(0.5 * psi ** 2, p[i], out=np.zeros(np.shape(p[i])),
                         where=p[i] != 0)


# ---------------------------------------------------------------------------
# game specification


@dataclass
class GameSpec:
    """An LQ oracle spec's game on a grid: a = sigma^2 / 2, Q, the terminals
    (1/2) x' Gamma_i x and T come from spec; kappa saturates H^i."""
    spec: LQGameSpec                # sigma, Q, Gamma, T; the oracle's input
    beta: object                    # WeightSequence
    grid: SpatialGrid               # [-L, L]^N: N must be spec.N
    dt: float                       # requested step; capped by the CFL bound
    kappa: float | None = None      # saturation level; None: the LQ kind
    hamiltonian: HamiltonianFamily = field(init=False, repr=False)
    terminals: list = field(init=False, repr=False)  # X:(N,...) -> array
    diffusion: DiffusionSpec = field(init=False, repr=False)
    times: np.ndarray = field(init=False, repr=False)
    sources: list = field(init=False, repr=False)   # assemble_source per player

    def __post_init__(self):
        if self.spec.N != self.N:
            raise NashError(f"the spec has {self.spec.N} players; the grid "
                            f"has {self.N}")
        self.hamiltonian = HamiltonianFamily(self.spec.Q, self.kappa)
        self.terminals = [(lambda X, G=G: _quadratic(G, X))
                          for G in self.spec.Gamma]
        self.diffusion = DiffusionSpec(self.N, 0.5 * self.spec.sigma ** 2)
        # keep a margin under the diffusion CFL so the upwind transport term
        # added during Picard sweeps stays stable at the shared step; at most
        # T/2, so there are at least two steps
        step = min(self.dt, 0.45 * cfl_step(self.diffusion, self.grid.h),
                   self.T / 2)
        self.times = time_nodes(0.0, self.T, step)
        self.sources = [assemble_source(self, i) for i in range(self.N)]

    @property
    def N(self) -> int:
        return self.grid.N

    @property
    def T(self) -> float:
        return self.spec.T

    @property
    def step(self) -> float:
        return self.times[1] - self.times[0]

    def zero_fields(self) -> list:
        z = np.zeros((self.times.size,) + self.grid.shape)
        return [Field(self.grid, self.times, z) for _ in range(self.N)]

    def player_weight(self, i):
        return shift(self.beta, i, self.N)


# ---------------------------------------------------------------------------
# frozen drift and sweep assembly


def assemble_drift(game: GameSpec, Du: np.ndarray, i: int):
    """Player i's drift b(t, X) from the frozen gradients Du (N, K+1, M,
    ..., M), D_j u^j on game.times: B^j_i = dH^j/dp^j(Du) for j != i, and
    the own slot is the s-average int_0^1 dH^i/dp^i(Du^-i, s D_i u^i) ds in
    closed form (HamiltonianFamily.own_average).  The drift is read at the
    time nodes of the game's grid only; anywhere else it raises NashError.
    """
    ham = game.hamiltonian
    times = game.times

    def b(t, X):
        if X.shape[1:] != game.grid.shape:
            raise NashError("frozen drift is grid-aligned; off-grid "
                            "evaluation is not supported")
        k = int(np.searchsorted(times, t))
        if k == times.size or times[k] != t:
            raise NashError(f"frozen drift is read at time nodes only; "
                            f"t={t:.6g} is not one")
        p = Du[:, k]
        out = np.empty((game.N,) + X.shape[1:])
        for j in range(game.N):
            if j != i:
                out[j] = ham.dpj(j, p)
        out[i] = ham.own_average(i, p)
        if not np.all(np.isfinite(out[i])):
            raise DivergedError(f"non-finite own-momentum drift for player {i}")
        return out

    return b


def assemble_source(game: GameSpec, i: int) -> np.ndarray:
    """Right-hand side source -H^i(x, Du^-i, 0) on the grid: the own
    momentum slot zeroed and moved across the equation.  H^i depends on p
    only through p^i and not on t, so this is H^i at zero momentum, the same
    array for every iterate and step."""
    X = game.grid.meshgrid()
    return -game.hamiltonian.value(i, X, np.zeros_like(X))


def _require_nodes(game: GameSpec, fields) -> None:
    """NashError unless fields are one per player, each on game.times."""
    if len(fields) != game.N:
        raise NashError(f"need {game.N} fields, got {len(fields)}")
    if any(f.times.size != game.times.size
           or not np.allclose(f.times, game.times) for f in fields):
        raise NashError("fields must be given on the game's time nodes")


def _frozen_gradients(fields) -> np.ndarray:
    """D_j u^j of every player j, (N, K+1, M, ..., M): each finite_diff is
    written into its slot of one preallocated array."""
    Du = np.empty((len(fields),) + fields[0].values.shape)
    for j, f in enumerate(fields):
        Du[j] = finite_diff(f, (j,)).values
    return Du


def picard_step(game: GameSpec, fields) -> list:
    """One sweep of the fixed-point map S: the iterate's diagonal gradients
    D_j u^j are frozen on game.times, and every player is solved against them
    on the same nodes.  A list of other than game.N fields, or a field on
    other time nodes, raises NashError.
    """
    _require_nodes(game, fields)
    Du = _frozen_gradients(fields)
    out = []
    for i in range(game.N):
        problem = LinearProblem(
            game.diffusion,
            assemble_drift(game, Du, i),
            TerminalSpec(lambda X, F=game.sources[i]: F),
            TerminalSpec(game.terminals[i]),
            0.0, game.T)
        try:
            w = solve_grid(problem, game.grid, game.step)
        except TransportBoundError as e:
            raise StepBoundError(f"linear solve refused for player {i}: {e}") from e
        except (SolveError, DivergedError) as e:
            raise DivergedError(f"linear solve failed for player {i}: {e}") from e
        except Exception as e:
            raise NashError(f"linear solve failed for player {i}: {e}") from e
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# triple norm


def _player_norm(values: np.ndarray, times: np.ndarray, h: float,
                 beta) -> float:
    """One player's triple norm, reduced block by block from holder._walk.

    Each block's D^alpha u (|alpha| <= 2) is reduced at once (sup; gamma = 1
    seminorm at order 2; sup of the time quotient, and its gamma = 0
    seminorm at order 2) and dropped.  The per-order maxima are summed with
    space_norm's association, so the value equals space_norm(family, 2, 1,
    beta) + space_norm(quotients, 2, 0, sqrt(beta), minus_variant=True) bit
    for bit (math.sqrt(beta^alpha) is the sqrt(beta) weight: sqrt is
    monotone and correctly rounded).  A non-finite derivative or quotient
    raises NonFiniteError, as building it as a Field would.

    An order-2 seminorm is skipped when a bound from the max hi and min lo
    the sup reads cannot raise its running max: every lag-1 difference and
    line range is at most hi - lo and rounding is monotone, so no bit moves
    (an overflowing hi - lo is inf and never skips).  [D^alpha u]_1 is
    skipped per block.  The Lipschitz top needs the whole-time sup s, so the
    last block settles it from each block's hi - lo: skipped if (s + the
    widest) / sqrt(beta^alpha) cannot raise the running max, else [q]_0 is
    the max of the block ranges, widest first while one can raise it (an
    earlier block re-derived).  A field of one block does one pass's work.
    """
    lip = times.size >= 2
    steps = np.diff(times)
    sups, semi = ([], [], []), 0.0
    lip_sups, lip_top = ([], []), 0.0
    # alpha -> [weight, sup, quotient sup, the earlier blocks' (quotient
    # hi - lo, pairs) at |alpha| = 2]
    acc = {}
    for a, d, body, q, pairs, last in holder._walk(values, h, 2):
        k = len(a)
        st = acc.get(a)
        if st is None:
            st = acc[a] = [multi_index_weight(beta, a), 0.0, 0.0, []]
        weight = st[0]
        s, hi, lo = _extremes(d)
        st[1] = max(st[1], s)
        if k == 2 and (hi - lo) / h / weight > semi:
            semi = max(semi, holder._axis_seminorm(d, h, 1.0) / weight)
        if q is not None:
            s, hi, lo = holder._quotient_extremes(q, steps[pairs])
            if not math.isfinite(s):
                raise NonFiniteError("field contains non-finite values")
            st[2] = max(st[2], s)
            if k == 2 and not last:
                st[3].append((hi - lo, pairs))
            elif k == 2:
                # the minus variant's smallest predecessor weight is the
                # weight of alpha itself at |alpha| = 2
                root = math.sqrt(weight)
                # the block in hand first among equal widths
                blocks = sorted([(hi - lo, None)] + st[3], key=lambda b: -b[0])
                if (st[2] + blocks[0][0]) / root > lip_top:
                    top = 0.0
                    for width, p in blocks:
                        if not width > top:
                            break
                        top = max(top, holder._quotient_range(
                            q, steps[pairs], h) if p is None else
                            holder._rederived_range(values, steps, h, a, p))
                    lip_top = max(lip_top, (st[2] + top) / root)
        del d, body, q  # body is a view of d: not held while the next is made
        if last:
            sups[k].append(st[1] / weight)
            if lip and k < 2:
                lip_sups[k].append(st[2] / math.sqrt(weight))
    total = 0.0
    for m in sups:
        total += max(m)
    total += semi
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
    fields is any iterable of exactly game.N per-player fields, player i at
    position i (unchecked here: a generator has no length); each is reduced
    before the next is drawn, so fields that a generator makes on demand are
    never all held at once.
    """
    worst = 0.0
    for i, f in enumerate(fields):
        worst = max(worst, _player_norm(f.values, f.times, f.grid.h,
                                        game.player_weight(i)))
    return worst


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
    refused: str | None = None      # why a sweep was refused; None: none was


def _increments(new: list, old: list):
    """new[i] - old[i] per player, made on demand; old[i]'s slot is set to
    None as soon as its increment is formed, so old must be the caller's own
    list."""
    for i, w in enumerate(new):
        d = w - old[i]
        old[i] = None
        yield d


def picard_solve(game: GameSpec, u0=None, tol: float = 1e-6,
                 max_iter: int = 30, *, iterate_norm: bool = False):
    """Iterate u <- S(u) until the triple-norm increment drops below tol.

    Returns (per-player Fields | None, PicardReport); divergence (three
    consecutive growing increments, or a sweep, frozen gradient or norm gone
    non-finite), non-convergence and a sweep refused at the transport
    stability bound (``refused``) yield a flagged report without a
    solution; a malformed u0 raises NashError (picard_step).
    The iterate norm |||S(u)||| costs one more triple norm per
    sweep, so it is only computed when ``iterate_norm`` is set; otherwise
    the report's ``max_norm`` is None (not computed).

    triple_norm reduces the increments S(u)^i - u^i one at a time, as a
    generator makes them, and the slot of u^i in the driver's own copy of
    the iterate list is released as soon as its increment is formed; u0 and
    its fields are left as they are.  A sweep so peaks inside picard_step,
    at the old iterate, the frozen gradients and the new iterate: 3N fields
    and the linear solve's temporaries.
    """
    if tol <= 0:
        raise NashError("tol must be positive")
    u = game.zero_fields() if u0 is None else list(u0)
    increments = []
    max_norm = 0.0 if iterate_norm else None
    converged = diverged = False
    refused = None
    it = 0
    for it in range(1, max_iter + 1):
        try:
            new = picard_step(game, u)
            inc = triple_norm(game, _increments(new, u))
            if max_norm is not None:
                max_norm = max(max_norm, triple_norm(game, new))
        except StepBoundError as e:
            refused = str(e)
            break
        except (DivergedError, NonFiniteError):
            diverged = True
            break
        increments.append(inc)
        u = new
        if inc < tol:
            converged = True
            break
        if len(increments) >= 4 and all(
                increments[-k] > increments[-k - 1] for k in (1, 2, 3)):
            diverged = True
            break
    ratios = [b / a for a, b in zip(increments, increments[1:]) if a > 0]
    report = PicardReport(increments, ratios, it, converged, diverged, tol,
                          max_norm, refused)
    return (u if converged else None), report


# ---------------------------------------------------------------------------
# diagnostics


def residual(game: GameSpec, fields) -> list:
    """Per-player sup of the Nash equation left side
    -u_t - a Lap u^i + H^i(Du) + sum_{j != i} dH^j/dp^j(Du) D_j u^i over the
    interior nodes (collar 0.1), one float per player.  Only the derivatives
    it reads are made: D_j u^i (the frozen gradients Du are the j = i ones)
    and D_c D_c u^i.

    The time axis is walked in blocks of holder._BLOCK_BYTES of slices,
    block-major (each block's D_j u^j are made once for all players).  The
    spatial terms are pointwise in time and u_t is np.gradient(u, times,
    axis=0, edge_order=2) row by row (holder._gradient_row), so the sup is
    the whole field's bit for bit.  A non-finite derivative raises
    NonFiniteError, as building it as a Field would."""
    grid = game.grid
    times = fields[0].times
    if times.size < 3:
        raise NashError("need at least 3 time nodes for the d/dt stencil")
    h, N = grid.h, game.N
    X = grid.meshgrid()
    ham, a = game.hamiltonian, game.diffusion.a
    inner = (slice(None),) + grid.interior(0.1)
    steps = np.diff(times)
    # np.gradient's own test for one scalar spacing
    dx = steps[0] if (steps == steps[0]).all() else steps
    rows = holder._block_rows(fields[0].values[0].nbytes)
    sups = [[] for _ in range(N)]
    for t in range(0, times.size, rows):
        blocks = [f.values[t:t + rows] for f in fields]
        Du = [_checked(holder._partial(b, h, j)) for j, b in enumerate(blocks)]
        for i, (f, b) in enumerate(zip(fields, blocks)):
            D = [Du[j] if j == i else _checked(holder._partial(b, h, j))
                 for j in range(N)]
            res = np.empty(b.shape)
            for r in range(b.shape[0]):
                holder._gradient_row(f.values, dx, t + r, res[r])
            np.negative(res, out=res)
            acc = np.zeros_like(res)
            for c in range(N):
                acc += a * _checked(holder._partial(D[c], h, c))
            res -= acc
            del acc             # not held through the Hamiltonian terms
            # H^i is t-independent (HamiltonianFamily): a block at once
            res += ham.value(i, X, Du)
            for j in range(N):
                if j != i:
                    res += ham.dpj(j, Du) * D[j]
            sups[i].append(np.max(np.abs(res[inner])))
    return [float(np.max(s)) for s in sups]


def _checked(d: np.ndarray) -> np.ndarray:
    """d; NonFiniteError unless it is finite."""
    _extremes(d)
    return d


def contraction_probe(game: GameSpec, u, v) -> float:
    """||S(u) - S(v)|| / ||u - v|| in the triple norm; StepBoundError if
    either sweep is refused, NashError unless u and v each hold game.N
    fields on game.times."""
    _require_nodes(game, u)
    _require_nodes(game, v)
    den = triple_norm(game, (a - b for a, b in zip(u, v)))
    if den < 1e-10:
        raise NashError("degenerate probe pair: ||u - v|| < 1e-10")
    Su = picard_step(game, u)
    Sv = picard_step(game, v)
    num = triple_norm(game, (a - b for a, b in zip(Su, Sv)))
    return num / den


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

        out.append(Field.from_function(game.grid, game.times, f))
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


def _average_ranks(x) -> np.ndarray:
    """1-based ranks of x; tied entries share the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse]


def horizon_scan(make_game, T_list, n_pairs: int = 3, seed: int = 0,
                 tol: float = 1e-6, max_iter: int = 30) -> HorizonScan:
    """Contraction probes and a Picard attempt at each horizon; emits the
    empirical bracket of the short-time threshold.  A probe refused at the
    transport bound or gone non-finite counts as ratio inf and such a Picard
    run as not converged, so the horizon is a failure, not an error."""
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
                ratios.append(contraction_probe(game, u, v))
            except (StepBoundError, DivergedError):
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


def dimension_stability(make_game, N_list, tol: float = 1e-6,
                        max_iter: int = 30) -> StabilityReport:
    """Solve the same family at each N (at least two, ascending) and compare
    players' values on the shared sub-grid, extra coordinates of the larger
    system frozen at 0.  The CFL cap can give each N its own time nodes; the
    larger system is then interpolated linearly onto the smaller one's."""
    N_list = list(N_list)
    if len(N_list) < 2:
        raise NashError("N_list needs at least two dimensions to compare")
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
            fb = sols[b][i]
            shared = fb.values[(slice(None),) * (1 + a) + (center,) * (b - a)]
            if not (fb.times.size == ga.times.size
                    and np.allclose(fb.times, ga.times)):
                shared = interp_time(fb.times, shared, ga.times)
            worst = max(worst, float(np.max(np.abs(sols[a][i].values
                                                   - shared))))
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
