import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nash_horizon import holder, nash
from nash_horizon.holder import (
    Field,
    GridError,
    SpatialGrid,
    derivative_family,
    finite_diff,
    interp_time,
    space_norm,
)
from nash_horizon.nash import (
    GameSpec,
    HamiltonianFamily,
    NashError,
    StepBoundError,
    assemble_drift,
    assemble_source,
    contraction_probe,
    dimension_stability,
    horizon_scan,
    picard_solve,
    picard_step,
    probe_fields,
    residual,
    triple_norm,
    uniqueness_probe,
)
from nash_horizon.oracle_lq import (
    LQGameSpec,
    decay_lq_game,
    lq_value,
    riccati_integrate,
)
from nash_horizon.pde_linear import (
    LinearProblem,
    TerminalSpec,
    solve_grid,
    verify_decay,
)
from nash_horizon.weights import build_weight

BETA = build_weight("polynomial", {"a": 3}, 32)
# the saturation level kappa each Hamiltonian kind is tested at
SATURATION = {"lq": None, "saturated": 0.7}


def mini_game(N=2, T=0.2, M=41, L=3.0, c_Q=0.1, c_G=0.2, sigma=0.25, dt=0.02,
              **kw):
    spec = decay_lq_game(N, BETA, c_Q=c_Q, c_G=c_G, sigma=sigma, T=T)
    return GameSpec(spec, BETA, SpatialGrid(N, L, M), dt, **kw)


def zero_game(N=2, T=0.1, M=21, L=2.0):
    # its diffusion 0.5 * sqrt(0.1) ** 2 is 0.05 exactly
    z = np.zeros((N, N, N))
    return GameSpec(LQGameSpec(math.sqrt(0.1), z, z, T), BETA,
                    SpatialGrid(N, L, M), 0.01)


def test_game_step_under_diffusion_cfl_margin():
    for dt in (10.0, 0.3, 0.02):
        game = mini_game(dt=dt)
        cfl = game.grid.h ** 2 / (2 * game.N * 0.5 * game.spec.sigma ** 2)
        assert game.step <= min(dt, 0.45 * cfl)
        assert game.times.size >= 3


def test_game_step_capped_at_half_the_horizon():
    # at M = 5 the CFL cap (8.1) and dt exceed T/2, which sets two steps
    game = mini_game(M=5, dt=10.0)
    np.testing.assert_array_equal(game.times, np.linspace(0.0, game.T, 3))


def test_game_dimension_is_the_grid_dimension():
    # the diffusion and the Hamiltonian follow the grid's player count
    for n in (1, 3):
        spec = decay_lq_game(n, BETA, 0.1, 0.2, 0.25, 0.2)
        game = GameSpec(spec, BETA, SpatialGrid(n, 3.0, 9), 0.02)
        assert game.N == game.diffusion.N == game.hamiltonian.Q.shape[0] == n


@pytest.mark.parametrize("n", [3, 1])
def test_game_refuses_a_hamiltonian_for_another_player_count(n):
    # the grid sets the player count, and the spec's Q stack must have the
    # same one
    spec = decay_lq_game(n, BETA, 0.1, 0.2, 0.25, 0.2)
    with pytest.raises(NashError, match=f"spec has {n} players; the grid "
                                        "has 2"):
        GameSpec(spec, BETA, SpatialGrid(2, 3.0, 21), 0.02)


@pytest.mark.parametrize("kind", ["lq", "saturated"])
def test_game_reads_its_facts_from_its_spec(kind, same_bits):
    spec = decay_lq_game(3, BETA, 0.1, 0.2, 0.25, 0.2)
    game = GameSpec(spec, BETA, SpatialGrid(3, 3.0, 9), 0.02, SATURATION[kind])
    assert same_bits(game.diffusion.a, 0.5 * spec.sigma ** 2)
    assert same_bits(game.T, spec.T)
    assert same_bits(game.hamiltonian.Q, spec.Q)
    assert game.hamiltonian.kappa is SATURATION[kind]
    X = game.grid.meshgrid()
    for i, G in enumerate(spec.Gamma):
        assert same_bits(game.terminals[i](X),
                         0.5 * np.einsum("jk,j...,k...->...", G, X, X))


# ---------------------------------------------------------------------------
# Hamiltonian families


def probe_derivatives(ham):
    """Finite-difference reference for the momentum partials: the max
    relative error of dpj against central differences of value at 100
    random (x, p) with |x|, |p| <= 2."""
    N = ham.Q.shape[0]
    rng = np.random.default_rng(0)
    X = rng.uniform(-2.0, 2.0, (N, 100))
    p = rng.uniform(-2.0, 2.0, (N, 100))
    h = 1e-5
    worst = 0.0
    for j in range(N):
        e = np.zeros_like(p)
        e[j] = h
        fd = (ham.value(j, X, p + e) - ham.value(j, X, p - e)) / (2 * h)
        an = np.broadcast_to(ham.dpj(j, p), fd.shape)
        scale = np.maximum(np.abs(an), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - an) / scale)))
    return worst


def test_hamiltonian_probe_passes_builtin():
    Q = decay_lq_game(3, BETA, 0.3, 0.3, 0.2, 1.0).Q
    assert probe_derivatives(HamiltonianFamily(Q)) < 1e-6
    assert probe_derivatives(HamiltonianFamily(Q, 2.0)) < 1e-4


def test_hamiltonian_probe_catches_wrong_derivative():
    class WrongPartial(HamiltonianFamily):
        def dpj(self, j, p):
            return 1.5 * p[j]

    assert probe_derivatives(WrongPartial(np.zeros((2, 2, 2)))) > 1e-4


def test_non_positive_saturation_level_rejected():
    spec = decay_lq_game(2, BETA, 0.1, 0.2, 0.25, 0.2)
    grid = SpatialGrid(2, 3.0, 21)
    for kappa in (0.0, -2.0, math.nan):
        with pytest.raises(NashError, match="saturation level"):
            GameSpec(spec, BETA, grid, 0.02, kappa=kappa)


def test_saturated_matches_lq_at_small_momenta():
    Q = np.zeros((2, 2, 2))
    lq = HamiltonianFamily(Q)
    sat = HamiltonianFamily(Q, kappa=10.0)
    p = np.array([[0.3], [-0.8]])
    for j in range(2):
        assert sat.dpj(j, p) == pytest.approx(lq.dpj(j, p), abs=2e-2)


def test_saturated_derivatives_bounded():
    sat = HamiltonianFamily(np.zeros((1, 1, 1)), kappa=2.0)
    p = np.linspace(-100, 100, 1001)[None]
    assert np.max(np.abs(sat.dpj(0, p))) <= 2.0


def test_hamiltonian_value_refuses_coordinates_of_another_dimension():
    # a (3, 3, 3) Q read on an N = 2 grid once failed inside value with a
    # NumPy broadcast ValueError
    ham = HamiltonianFamily(decay_lq_game(3, BETA, 0.1, 0.2, 0.25, 0.2).Q)
    X = SpatialGrid(2, 1.0, 5).meshgrid()
    with pytest.raises(NashError, match="2 coordinates; Q is for 3 players"):
        ham.value(0, X, np.zeros_like(X))


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3), (2, 2, 2, 2), (0, 0, 0)])
def test_hamiltonian_refuses_q_that_is_not_a_stack(shape):
    # a (2, 2) Q once reached einsum and failed there
    with pytest.raises(NashError, match=r"\(N, N, N\) stack"):
        HamiltonianFamily(np.zeros(shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hamiltonian_refuses_non_finite_q(bad):
    # a NaN entry once came back from value as a NaN Hamiltonian
    Q = np.zeros((2, 2, 2))
    Q[1, 0, 1] = bad
    with pytest.raises(NashError, match="Q must be finite"):
        HamiltonianFamily(Q, kappa=1.0)


# ---------------------------------------------------------------------------
# sweep assembly


def frozen_gradients(fields):
    """Du = (D_j u^j)_j stacked as picard_step freezes it: (N, K+1, M, ...)."""
    return np.stack([finite_diff(f, (j,)).values for j, f in enumerate(fields)])


def test_assemble_drift_lq_structure():
    # for LQ, B^j_i = D_j u^j (j != i) and B^i_i = D_i u^i / 2
    game = mini_game()
    u = [Field.from_function(game.grid, game.times,
                             lambda t, X, i=i: np.sin(X[i]) * (1 + i))
         for i in range(2)]
    Du = frozen_gradients(u)
    X = game.grid.meshgrid()
    t = game.times[3]
    B0 = assemble_drift(game, Du, 0)(t, X)
    np.testing.assert_allclose(B0[0], 0.5 * Du[0, 3], atol=1e-12)
    np.testing.assert_allclose(B0[1], Du[1, 3], atol=1e-12)


def test_assemble_drift_zero_field():
    game = mini_game()
    Du = frozen_gradients(game.zero_fields())
    X = game.grid.meshgrid()
    B = assemble_drift(game, Du, 1)(game.times[2], X)
    np.testing.assert_allclose(B, 0.0, atol=1e-15)


def test_assemble_drift_reads_nodes_only():
    # the drift is frozen on game.times: between nodes, past the ends and
    # off the game's grid it refuses to answer
    game = mini_game()
    drift = assemble_drift(game, frozen_gradients(game.zero_fields()), 0)
    X = game.grid.meshgrid()
    for t in (0.05, 0.5 * (game.times[0] + game.times[1]), -0.01,
              game.T + 0.01):
        with pytest.raises(NashError, match="time nodes"):
            drift(t, X)
    with pytest.raises(NashError, match="grid-aligned"):
        drift(game.times[1], X[:, :5])


def test_assemble_source_zero_field_is_spatial_part():
    # the right-hand side source -H^0(., 0) is the spatial part (1/2) x'Q_0 x
    game = mini_game()
    X = game.grid.meshgrid()
    F = assemble_source(game, 0)
    spatial = 0.5 * np.einsum("jk,j...,k...->...", game.spec.Q[0], X, X)
    np.testing.assert_allclose(F, spatial, atol=1e-12)


def test_source_consistency_split():
    # H^i(Du) = F^i + bracket, bracket = 0 wherever D_i u^i = 0
    game = mini_game()
    u = probe_fields(game, seed=9, scale=0.5)
    X = game.grid.meshgrid()
    Du = frozen_gradients(u)[:, 2]
    i = 1
    H = game.hamiltonian.value(i, X, Du)
    F = -assemble_source(game, i)
    bracket = H - F
    # for LQ the bracket is exactly (D_i u^i)^2 / 2
    np.testing.assert_allclose(bracket, 0.5 * Du[i] ** 2, atol=1e-12)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_S = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


@pytest.mark.parametrize("kind", ["lq", "saturated"])
def test_game_sources_are_formed_once(kind, same_bits):
    game = mini_game(N=3, M=9, kappa=SATURATION[kind])
    assert len(game.sources) == game.N
    for i in range(game.N):
        assert same_bits(game.sources[i], assemble_source(game, i))


def _drift_first_form(game, Du, i, t, X):
    """assemble_drift's drift as first written, on the gradients Du at t: the
    own slot by 8-node Gauss-Legendre quadrature, a copy of Du per node."""
    ham = game.hamiltonian
    out = np.empty((game.N,) + X.shape[1:])
    for j in range(game.N):
        if j != i:
            out[j] = ham.dpj(j, Du)
    acc = np.zeros(X.shape[1:])
    for s, w in zip(_GL_S, _GL_W):
        ps = Du.copy()
        ps[i] = s * Du[i]
        acc += w * np.asarray(ham.dpj(i, ps), dtype=float)
    out[i] = acc
    return out


@pytest.mark.parametrize("kind", ["lq", "saturated"])
def test_hoisted_source_and_drift_match_first_form(kind, same_bits):
    # the source is H^i at zero momentum, formed once; the general formula
    # -H^i(t, x, Du^-i, 0) gives the same bits at every t and every Du.  The
    # drift's j != i slots keep the first form's bits; the own slot is the
    # closed form (exactly D_i u^i / 2 for LQ)
    game = mini_game(N=3, M=9, kappa=SATURATION[kind])
    X = game.grid.meshgrid()
    rng = np.random.default_rng(11)
    times = game.times
    for _ in range(3):
        Du = 2 * rng.standard_normal((game.N, times.size) + game.grid.shape)
        for t in (times[0], 0.5 * (times[1] + times[2]), rng.uniform(0, game.T),
                  times[-1]):
            for i in range(game.N):
                p = interp_time(times, Du.swapaxes(0, 1), t).copy()
                p[i] = 0.0
                assert same_bits(assemble_source(game, i),
                                 -game.hamiltonian.value(i, X, p))
        for k in (0, 1, int(rng.integers(times.size)), times.size - 1):
            t = times[k]
            for i in range(game.N):
                got = assemble_drift(game, Du, i)(t, X)
                ref = _drift_first_form(game, Du[:, k], i, t, X)
                others = [j for j in range(game.N) if j != i]
                assert same_bits(got[others], ref[others])
                if kind == "lq":
                    assert same_bits(got[i], 0.5 * Du[i, k])
                else:
                    assert same_bits(got[i], game.hamiltonian.own_average(
                        i, Du[:, k]))


def test_saturated_own_average_matches_adaptive_quadrature():
    # the closed form psi^2 / (2 p) is the s-average of dH/dp to round-off
    # for |p| / kappa <= 12, where the 8-node rule is off by up to 2%
    quad = pytest.importorskip("scipy.integrate").quad
    kappa = 0.7
    sat = HamiltonianFamily(np.zeros((2, 2, 2)), kappa)
    worst_closed = worst_rule = 0.0
    for r in np.concatenate((np.linspace(-12, 12, 97), [1e-8, -3e-5])):
        p = np.array([[r * kappa], [0.3]])
        ref, _ = quad(lambda s: float(sat.dpj(0, np.array(
            [[s * p[0, 0]], [0.3]]))[0]), 0.0, 1.0, epsabs=0.0, epsrel=1e-13,
            limit=200)
        if ref == 0.0:
            continue
        rule = sum(w * sat.dpj(0, np.array([[s * p[0, 0]], [0.3]]))[0]
                   for s, w in zip(_GL_S, _GL_W))
        worst_closed = max(worst_closed,
                           abs(sat.own_average(0, p)[0] - ref) / abs(ref))
        worst_rule = max(worst_rule, abs(rule - ref) / abs(ref))
    assert worst_closed < 1e-13
    assert worst_rule > 1e-3
    zero = sat.own_average(0, np.array([[0.0, -0.0], [1.0, 1.0]]))
    assert np.all(np.isfinite(zero)) and np.all(zero == 0.0)


@pytest.mark.parametrize("kind", ["lq", "saturated"])
def test_picard_step_matches_interpolating_reference(kind, same_bits):
    # the drift read at its node and the drift interpolated there (the old
    # cache) differ only in the sign of a zero, which cannot reach the
    # solution: the sweep keeps its bits
    from test_holder import _old_cache_at

    game = mini_game(N=2, M=21, kappa=SATURATION[kind])
    u = probe_fields(game, seed=4, scale=0.5)
    for f in u:
        # signed zeros of both signs side by side, so some D_j u^j is -0.0
        # where its interpolated value is +0.0
        zeros = np.where(np.indices(f.values.shape).sum(axis=0) % 2, -0.0, 0.0)
        f.values[:, :8] = zeros[:, :8]
    Du = frozen_gradients(u)
    times = game.times
    X = game.grid.meshgrid()

    def old_drift(i):
        def b(t, X):
            p = _old_cache_at(times, Du, t)
            out = np.empty_like(p)
            for j in range(game.N):
                out[j] = (game.hamiltonian.own_average(i, p) if j == i
                          else game.hamiltonian.dpj(j, p))
            return out
        return b

    flipped = False
    for i in range(game.N):
        new, old = assemble_drift(game, Du, i), old_drift(i)
        for t in times[1:]:
            a, b = new(t, X), old(t, X)
            assert np.array_equal(a, b)
            flipped |= not same_bits(a, b)
    assert flipped
    got = picard_step(game, u)
    for i, w in enumerate(got):
        problem = LinearProblem(
            game.diffusion, old_drift(i),
            TerminalSpec(lambda X, F=assemble_source(game, i): F),
            TerminalSpec(lambda X, i=i: game.terminals[i](X)),
            0.0, game.T)
        ref = solve_grid(problem, game.grid, game.step)
        assert same_bits(w.times, ref.times)
        assert same_bits(w.values, ref.values)


def test_picard_step_refuses_off_node_fields():
    game = mini_game(N=2, M=21)
    on = game.zero_fields()
    coarse = np.linspace(0.0, game.T, 5)
    assert coarse.size != game.times.size
    shifted = game.times + 1e-3
    for times in (coarse, shifted):
        off = [Field.from_function(game.grid, times,
                                   lambda t, X, i=i: (1 + t) * np.sin(X[i]))
               for i in range(game.N)]
        with pytest.raises(NashError, match="time nodes"):
            picard_step(game, off)
        with pytest.raises(NashError, match="time nodes"):
            contraction_probe(game, on, off)
        with pytest.raises(NashError, match="time nodes"):
            picard_solve(game, u0=off)


def test_field_lists_hold_one_field_per_player():
    # a wrong count once failed deep inside: one field as "index 1 is out of
    # bounds" in the linear solve, three as a GridError from finite_diff
    game = mini_game(N=2, M=21)
    on = game.zero_fields()
    for fields in (on[:1], on + on[:1]):
        msg = f"need 2 fields, got {len(fields)}"
        with pytest.raises(NashError, match=msg):
            picard_step(game, fields)
        with pytest.raises(NashError, match=msg):
            picard_solve(game, u0=fields)
        for u, v in ((on, fields), (fields, on)):
            with pytest.raises(NashError, match=msg):
                contraction_probe(game, u, v)


def test_picard_step_zero_game():
    game = zero_game()
    out = picard_step(game, game.zero_fields())
    for f in out:
        np.testing.assert_allclose(f.values, 0.0, atol=1e-15)


def test_picard_step_fixes_riccati_solution():
    # S applied to the oracle-exact u returns u within discretization error
    game = mini_game(M=61, dt=0.005)
    traj = riccati_integrate(game.spec, game.T / 400)
    X = game.grid.meshgrid()
    u = [Field(game.grid, game.times,
               np.stack([lq_value(traj, i, t, X) for t in game.times]))
         for i in range(2)]
    Su = picard_step(game, u)
    inner = game.grid.interior(0.15)
    gap = max(np.max(np.abs((a - b).values[(slice(None),) + inner]))
              for a, b in zip(Su, u))
    assert gap < 5e-3


# ---------------------------------------------------------------------------
# Picard driver


def test_picard_trivial_game_one_iteration():
    game = zero_game()
    sol, rep = picard_solve(game, tol=1e-10)
    assert rep.converged and rep.iterations == 1
    for f in sol:
        np.testing.assert_allclose(f.values, 0.0, atol=1e-15)


def test_picard_matches_oracle_mini():
    game = mini_game()
    sol, rep = picard_solve(game, tol=1e-6, max_iter=20)
    assert rep.converged
    traj = riccati_integrate(game.spec, game.T / 200)
    X = game.grid.meshgrid()
    inner = game.grid.interior(0.1)
    for i in range(2):
        exact = np.stack([lq_value(traj, i, t, X) for t in game.times])
        err = np.max(np.abs(sol[i].values - exact)[(slice(None),) + inner])
        assert err < 2e-2
    # decay reports and residuals of the fixed point are finite
    assert all(np.isfinite(verify_decay(f, game.player_weight(i),
                                        third_order=False).K2)
               for i, f in enumerate(sol))
    assert all(np.isfinite(r) for r in residual(game, sol))


def test_picard_determinism():
    game = mini_game()
    a, _ = picard_solve(game, tol=1e-6)
    b, _ = picard_solve(game, tol=1e-6)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.values, fb.values)


def test_picard_long_horizon_fails():
    # T scaled x8 from the contractive regime: blow-up, divergence, or at
    # least non-contraction must be reported
    game = mini_game(T=1.6, c_Q=0.5, c_G=0.8, M=31)
    try:
        sol, rep = picard_solve(game, tol=1e-8, max_iter=25)
    except NashError:
        return  # solver blow-up counts as detected failure
    assert (sol is None) or rep.diverged or (rep.ratios and max(rep.ratios) > 1)


def test_picard_rejects_a_step_above_the_transport_bound():
    # the uniqueness game with dt 1.0: GameSpec caps the step at 0.45 of the
    # diffusion CFL only, which leaves it about 3.08 times the upwind
    # transport bound on the converged iterates; the sweep must refuse it
    # and the run must come back as a flagged failure
    game = mini_game(M=41, dt=1.0, c_Q=0.4, c_G=0.8)
    sol, rep = picard_solve(game, tol=1e-6, max_iter=25)
    assert sol is None and not rep.converged and not rep.diverged
    assert "times the transport stability bound" in rep.refused
    assert len(rep.increments) == rep.iterations - 1
    ok = mini_game(M=41, c_Q=0.4, c_G=0.8)
    sol, rep = picard_solve(ok, tol=1e-6, max_iter=25)
    assert sol is not None and rep.refused is None


def overflow_game(T=0.05):
    """A game whose terminal c_G sum_j beta^j tanh(x^j), c_G = 1e308, is
    finite but overflows the first explicit step (as in the CLI's
    verify-decay overflow test)."""
    game = mini_game(T=T, M=21, L=3.0, dt=0.01)
    game.terminals = [lambda X: 1e308 * sum(BETA.value(j) * np.tanh(X[j])
                                            for j in range(len(X)))] * game.N
    return game


def test_picard_reports_a_non_finite_sweep_as_diverged():
    game = overflow_game()
    with pytest.raises(nash.DivergedError, match="non-finite value"):
        picard_step(game, game.zero_fields())
    sol, rep = picard_solve(game, tol=1e-6, max_iter=5)
    assert sol is None and rep.diverged and not rep.converged
    assert rep.iterations == 1 and rep.increments == []
    assert rep.refused is None


@pytest.mark.parametrize("pattern", ["checkerboard", "stripes"])
def test_picard_reports_an_overflowing_gradient_as_diverged(pattern):
    # +-1e308 fields are finite, but their one-sided edge differences
    # overflow: the checkerboard in the frozen gradients D_j u^j, the stripes
    # (constant along the player's own axis, so D_j u^j = 0) only in the
    # increment's norm
    game = mini_game(N=2, M=15)
    k = np.indices(game.grid.shape)
    signs = ([(-1.0) ** (k[0] + k[1])] * 2 if pattern == "checkerboard"
             else [(-1.0) ** k[1], (-1.0) ** k[0]])
    u0 = [Field(game.grid, game.times,
                np.broadcast_to(1e308 * s, (game.times.size,) + s.shape))
          for s in signs]
    with np.errstate(over="ignore", invalid="ignore"):
        sol, rep = picard_solve(game, u0=u0, max_iter=5, iterate_norm=True)
    assert sol is None and rep.diverged and not rep.converged
    assert rep.iterations == 1 and rep.increments == []
    assert rep.refused is None


def test_non_finite_own_drift_is_a_divergence():
    game = mini_game(M=9)
    Du = np.zeros((game.N, game.times.size) + game.grid.shape)
    Du[0, 0, 4, 4] = np.inf
    drift = assemble_drift(game, Du, 0)
    with pytest.raises(nash.DivergedError, match="own-momentum drift"):
        drift(game.times[0], game.grid.meshgrid())


def test_picard_step_raises_step_bound_error(monkeypatch):
    from nash_horizon import pde_linear

    def refuse(*a, **k):
        raise pde_linear.TransportBoundError("step 1 is 2 times the bound")

    game = mini_game(M=21)
    monkeypatch.setattr(nash, "solve_grid", refuse)
    with pytest.raises(StepBoundError, match="refused for player 0"):
        picard_step(game, game.zero_fields())


def _oracle_errors(steps, tol):
    """Acceptance 5's game on L = 4 at each (M, dt) of steps: (h, the
    interior sup error of the Picard fixed point against the Riccati
    oracle), collar 0.1, with Picard run to tol."""
    spec = decay_lq_game(2, BETA, c_Q=0.1, c_G=0.2, sigma=0.25, T=0.2)
    traj = riccati_integrate(spec, spec.T / 400)
    out = []
    for M, dt in steps:
        game = GameSpec(spec, BETA, SpatialGrid(2, 4.0, M), dt)
        sol, rep = picard_solve(game, tol=tol, max_iter=30)
        assert rep.converged
        X = game.grid.meshgrid()
        inner = (slice(None),) + game.grid.interior(0.1)
        out.append((game.grid.h, max(
            float(np.max(np.abs(sol[i].values - np.stack(
                [lq_value(traj, i, t, X) for t in game.times]))[inner]))
            for i in range(2))))
    return out


def test_oracle_error_is_first_order_in_h():
    # acceptance 5's game: the interior sup error against the Riccati oracle
    # must fall at least like h^0.8 from M = 25 to 51 to 101
    hs, errs = zip(*_oracle_errors([(25, 0.01), (51, 0.01), (101, 0.01)],
                                   1e-9))
    orders = np.log(np.divide(errs[:-1], errs[1:])) / np.log(
        np.divide(hs[:-1], hs[1:]))
    assert np.all(orders >= 0.8), (errs, orders)


def test_coupled_solve_converges_at_first_order():
    # h and dt halved together: explicit Euler and first-order upwinding
    # predict order 1 (measured 0.995 and 1.000); an O(1) slip in the
    # coupling (the own slot's closed form, the cross drifts, the sources)
    # can keep acceptance 5's single-grid error under 1e-2 but not this order
    _, errs = zip(*_oracle_errors([(21, 0.02), (41, 0.01), (81, 0.005)], 1e-8))
    orders = np.log2(np.divide(errs[:-1], errs[1:]))
    assert np.all(orders >= 0.9), (errs, orders)


def test_iterate_norm_flag_changes_only_max_norm():
    game = mini_game()
    off_sol, off = picard_solve(game, tol=1e-6, max_iter=20)
    on_sol, on = picard_solve(game, tol=1e-6, max_iter=20, iterate_norm=True)
    assert off.max_norm is None
    assert (on.increments, on.ratios, on.iterations, on.converged) == (
        off.increments, off.ratios, off.iterations, off.converged)
    for a, b in zip(on_sol, off_sol):
        assert np.array_equal(a.values, b.values)
    # brute force: the largest triple norm over the replayed iterates
    u, norms = game.zero_fields(), []
    for _ in range(on.iterations):
        u = picard_step(game, u)
        norms.append(triple_norm(game, u))
    assert on.max_norm == max(norms)


def test_unread_iterate_norm_costs_no_triple_norm(monkeypatch):
    from nash_horizon import nash
    calls = []

    def counting(game, fields):
        calls.append(1)
        return triple_norm(game, fields)

    monkeypatch.setattr(nash, "triple_norm", counting)
    game = mini_game(M=21)
    _, rep = picard_solve(game, tol=1e-6, max_iter=20)
    assert len(calls) == rep.iterations
    calls.clear()
    _, rep = picard_solve(game, tol=1e-6, max_iter=20, iterate_norm=True)
    assert len(calls) == 2 * rep.iterations


def test_picard_solve_leaves_u0_intact():
    # the driver releases the iterate's slots in its own copy of the list
    game = mini_game(M=21)
    u0 = probe_fields(game, 0)
    before, values = list(u0), [f.values.copy() for f in u0]
    sol, rep = picard_solve(game, u0, tol=1e-6, max_iter=20)
    assert rep.converged and all(f is not None for f in sol)
    assert all(a is b for a, b in zip(u0, before))
    assert all(np.array_equal(f.values, v) for f, v in zip(u0, values))


def test_a_stopped_run_returns_no_fields_with_its_report(monkeypatch):
    game = mini_game(M=15)
    # the second player's increment norm fails after the first slot of the
    # iterate was released
    calls = []
    player_norm = nash._player_norm

    def fail_second(*args):
        calls.append(1)
        if len(calls) == 2:
            raise holder.NonFiniteError("field contains non-finite values")
        return player_norm(*args)

    monkeypatch.setattr(nash, "_player_norm", fail_second)
    sol, rep = picard_solve(game, tol=1e-6, max_iter=5)
    assert sol is None and rep.diverged and not rep.converged
    assert rep.iterations == 1 and rep.increments == []
    monkeypatch.undo()
    # three growing increments in a row
    growing = iter(range(1, 10))

    def growing_norm(game, fields):
        list(fields)            # every increment is formed, as in the norm
        return next(growing)

    monkeypatch.setattr(nash, "triple_norm", growing_norm)
    sol, rep = picard_solve(game, tol=0.5, max_iter=10)
    assert sol is None and rep.diverged and rep.increments == [1, 2, 3, 4]
    monkeypatch.undo()
    # the second sweep is refused at the transport bound
    step = nash.picard_step
    sweeps = []

    def refuse_second(game, fields):
        sweeps.append(1)
        if len(sweeps) == 2:
            raise StepBoundError("linear solve refused for player 0")
        return step(game, fields)

    monkeypatch.setattr(nash, "picard_step", refuse_second)
    sol, rep = picard_solve(game, tol=1e-12, max_iter=5)
    assert sol is None and not rep.diverged and not rep.converged
    assert rep.refused == "linear solve refused for player 0"
    assert rep.iterations == 2 and len(rep.increments) == 1


def test_fixed_point_property():
    game = mini_game()
    tol = 1e-5
    sol, rep = picard_solve(game, tol=tol)
    again = picard_step(game, sol)
    inc = triple_norm(game, [a - b for a, b in zip(again, sol)])
    assert inc <= 2 * tol


def test_decoupling_invariant():
    # diagonal-only costs: players never interact
    N = 2
    Q = np.zeros((N, N, N))
    G = np.zeros((N, N, N))
    for i in range(N):
        Q[i, i, i] = 0.3
        G[i, i, i] = 0.4
    spec = LQGameSpec(0.25, Q, G, 0.2)
    game = GameSpec(spec, BETA, SpatialGrid(N, 3.0, 41), 0.02)
    sol, rep = picard_solve(game, tol=1e-7)
    assert rep.converged
    for i in range(N):
        cross = finite_diff(sol[i], (1 - i,))
        assert np.max(np.abs(cross.values)) < 1e-8


# ---------------------------------------------------------------------------
# norms and probes


def test_triple_norm_zero_and_positive():
    game = mini_game(M=21)
    assert triple_norm(game, game.zero_fields()) == 0.0
    assert triple_norm(game, probe_fields(game, 0)) > 0


def _lipschitz_family(fam, times):
    """Time quotients (D^a u(t_{k+1}) - D^a u(t_k)) / dt_k of a family."""
    dts = np.diff(times).reshape((-1,) + (1,) * (fam[()].values.ndim - 1))
    return {a: Field(f.grid, times[:-1], np.diff(f.values, axis=0) / dts)
            for a, f in fam.items()}


def _axis_seminorm_as_before(values, h, gamma):
    """holder._axis_seminorm before its rewrite: |np.diff| at gamma = 1 and
    np.ptp along each axis at gamma = 0."""
    best = 0.0
    for ax in range(1, values.ndim):
        if gamma == 1:
            d = np.max(np.abs(np.diff(values, axis=ax))) / h
        else:
            d = np.max(np.ptp(values, axis=ax))
        best = max(best, float(d))
    return best


class _SqrtView:
    """sqrt(beta_i): (sqrt beta_i)^j = sqrt(beta_i^j)."""

    def __init__(self, w):
        self.w = w

    def value(self, j):
        return math.sqrt(self.w.value(j))


def _triple_norm_by_definition(game, fields):
    """The triple norm from whole derivative and Lipschitz families and
    space_norm (with the seminorm as first vectorised), the reference the
    streamed kernel must equal."""
    worst = 0.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holder, "_axis_seminorm", _axis_seminorm_as_before)
        for i, f in enumerate(fields):
            fam = derivative_family(f, 2)
            total = space_norm(fam, 2, 1.0, game.player_weight(i))
            if f.times.size >= 2:
                total += space_norm(_lipschitz_family(fam, f.times), 2, 0.0,
                                    _SqrtView(game.player_weight(i)),
                                    minus_variant=True)
            worst = max(worst, total)
    return worst


@st.composite
def _norm_inputs(draw, max_times=4):
    N = draw(st.integers(1, 4))
    M = draw(st.sampled_from([5, 7, 9, 11]))
    game = mini_game(N=N, M=M, L=2.0, T=0.1, dt=0.01)
    n_times = draw(st.integers(1, max_times))
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        fields = [Field(f.grid, f.times[:n_times], f.values[:n_times])
                  for f in probe_fields(game, seed)]
    else:
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.01, 0.1, n_times))
        shape = (n_times,) + game.grid.shape
        fields = [Field(game.grid, times,
                        rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3))
                  for _ in range(N)]
    return game, fields


@settings(max_examples=60, deadline=None)
@given(inputs=_norm_inputs())
def test_triple_norm_equals_space_norm_definition(inputs):
    game, fields = inputs
    assert triple_norm(game, fields) == _triple_norm_by_definition(game, fields)


@st.composite
def _blocked_norm_inputs(draw):
    """_norm_inputs on up to 7 time nodes and a block of 1 to 4 slices plus
    a remainder, so that several blocks occur and the last can be ragged."""
    game, fields = draw(_norm_inputs(max_times=7))
    size = fields[0].values[0].nbytes
    return game, fields, (draw(st.integers(1, 4)) * size
                          + draw(st.integers(0, size - 1)))


@settings(max_examples=60, deadline=None)
@given(inputs=_blocked_norm_inputs())
def test_triple_norm_in_blocks_equals_definition(inputs):
    game, fields, block = inputs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holder, "_BLOCK_BYTES", block)
        value = triple_norm(game, fields)
    assert value == _triple_norm_by_definition(game, fields)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("n_times, rows", [(1, 1), (2, 1), (3, 2), (5, 2),
                                           (7, 3), (7, 4)])
def test_blocked_norm_equals_definition_on_rough_fields(N, n_times, rows,
                                                         monkeypatch):
    # seeded noise on uneven time steps, walked in blocks of `rows` slices:
    # every term that a skip, the carried slice or a block's time steps can
    # spoil is near the running max here (see the next tests)
    game = mini_game(N=N, M=7, L=2.0, T=0.1, dt=0.01)
    monkeypatch.setattr(holder, "_BLOCK_BYTES",
                        rows * 8 * game.grid.M ** N + 5)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.01, 0.1, n_times))
        fields = [Field(game.grid, times,
                        rng.normal(size=(n_times,) + game.grid.shape))
                  for _ in range(N)]
        assert triple_norm(game, fields) == \
            _triple_norm_by_definition(game, fields)


@pytest.mark.parametrize("N", [2, 4])
def test_triple_norm_equals_definition_on_iterate_differences(N):
    # probe-field differences on the full time grid, like a sweep increment
    game = mini_game(N=N, M=11, L=2.0, T=0.1, dt=0.01)
    for seed in (0, 2):
        u, v = probe_fields(game, seed), probe_fields(game, seed + 1)
        for fields in (u, [a - b for a, b in zip(u, v)]):
            assert triple_norm(game, fields) == \
                _triple_norm_by_definition(game, fields)


def _count_seminorms(monkeypatch):
    """Patch holder._axis_seminorm to count its calls and the bytes it
    reduces, by gamma."""
    calls = {1.0: 0, 0.0: 0}
    nbytes = {1.0: 0, 0.0: 0}
    inner = holder._axis_seminorm

    def counted(values, h, gamma):
        calls[gamma] += 1
        nbytes[gamma] += values.nbytes
        return inner(values, h, gamma)

    monkeypatch.setattr(holder, "_axis_seminorm", counted)
    return calls, nbytes


@pytest.mark.parametrize("N", [2, 3])
def test_pruned_norm_equals_definition_on_rough_fields(N):
    # seeded noise: a lag-1 difference can come close to the whole range of
    # D^alpha u, so a later seminorm often raises the running max with a
    # bound only just above it.  A bound smaller than (hi - lo) / h, or than
    # s + (hi - lo) for the Lipschitz top, skips such a term and drops below
    # the definition here
    game = mini_game(N=N, M=7, L=2.0, T=0.1, dt=0.01)
    times = game.times[:3]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        fields = [Field(game.grid, times,
                        rng.normal(size=(times.size,) + game.grid.shape))
                  for _ in range(N)]
        assert triple_norm(game, fields) == \
            _triple_norm_by_definition(game, fields)


def test_pruned_norm_skips_seminorms_on_increments(monkeypatch):
    # an unpruned kernel reduces a gamma = 1 and a gamma = 0 seminorm over
    # each of the 10 second derivatives at N = 4, per player: 2 * 10 * N
    # field sizes (a quotient field is one slice shorter).  An N = 4, M = 11
    # field is 6 blocks of 2 slices, and the calls grow with the blocks, so
    # the bytes reduced are counted
    game = mini_game(N=4, M=11, L=2.0, T=0.1, dt=0.01)
    u, v = probe_fields(game, 0), probe_fields(game, 1)
    fields = [a - b for a, b in zip(u, v)]
    size = fields[0].values.nbytes
    assert holder._BLOCK_BYTES < size
    _, nbytes = _count_seminorms(monkeypatch)
    value = triple_norm(game, fields)
    assert 0 < nbytes[1.0] + nbytes[0.0] < 2 * 10 * game.N * size
    monkeypatch.undo()
    assert value == _triple_norm_by_definition(game, fields)


def test_pruned_norm_skips_a_bound_that_ties_the_running_max(monkeypatch):
    # u = step(x^0) + step(x^2) at t = 1 (0 at t = 0), h = 1/2: D_00 u and
    # D_22 u take the values 0, 1 and -1 exactly, with the max and min next
    # to each other, and the other second derivatives are 0.  Player 1's
    # weights of (0, 0) and (2, 2) are both beta^1, so after (0, 0) each
    # bound of (2, 2) equals its running max: only (0, 0) is computed
    game = mini_game(N=3, M=9, L=2.0, T=0.1, dt=0.01)
    X = game.grid.meshgrid()
    times = np.array([0.0, 1.0])
    step = (X[0] > 0).astype(float) + (X[2] > 0).astype(float)
    zero = np.zeros((2,) + game.grid.shape)
    fields = [Field(game.grid, times, zero),
              Field(game.grid, times, np.stack([0 * step, step])),
              Field(game.grid, times, zero)]
    d00 = finite_diff(fields[1], (0, 0)).values
    d22 = finite_diff(fields[1], (2, 2)).values
    assert set(np.unique(d00)) == {-1.0, 0.0, 1.0}
    assert np.array_equal(d22, np.moveaxis(d00, 1, 3))
    h, w = game.grid.h, game.player_weight(1).value(0)
    assert holder._axis_seminorm(d00, h, 1.0) / w == 2.0 / h / w
    calls, _ = _count_seminorms(monkeypatch)
    value = triple_norm(game, fields)
    assert calls == {1.0: 1, 0.0: 1}
    monkeypatch.undo()
    assert value == _triple_norm_by_definition(game, fields)


@pytest.mark.parametrize("bad", [0, 1])
def test_triple_norm_rejects_overflowing_derivative(bad):
    # alternating +-1e308 is finite, but its one-sided edge stencil
    # overflows: the norm must fail as a Field of that derivative would,
    # not let max() drop the inf or nan
    game = mini_game(N=2, M=11, L=2.0, T=0.1, dt=0.01)
    fields = probe_fields(game, 0)
    sign = (-1.0) ** np.indices(game.grid.shape).sum(axis=0)
    vals = np.broadcast_to(1e308 * sign, fields[bad].values.shape)
    fields[bad] = Field(game.grid, game.times, vals.copy())
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GridError, match="non-finite"):
            _triple_norm_by_definition(game, fields)
        with pytest.raises(GridError, match="non-finite"):
            triple_norm(game, fields)


@pytest.mark.parametrize("rows", [None, 1, 2])
def test_triple_norm_rejects_overflowing_time_quotient(rows, monkeypatch):
    # u = s_k A x_0, s_k = +-1, A = 1e306 on [-2, 2]: every derivative is
    # finite, but the time differences 4A over dt = 0.01 pass the float
    # range, in one block, in blocks of one slice (each pair carried) and
    # in blocks of two
    game = mini_game(N=2, M=11, L=2.0, T=0.1, dt=0.01)
    if rows is not None:
        monkeypatch.setattr(holder, "_BLOCK_BYTES",
                            rows * 8 * game.grid.M ** 2 + 5)
    s = (-1.0) ** np.arange(game.times.size)
    X = game.grid.meshgrid()
    vals = s[:, None, None] * 1e306 * X[0][None]
    fields = [Field(game.grid, game.times, vals), probe_fields(game, 0)[1]]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GridError, match="non-finite"):
            _triple_norm_by_definition(game, fields)
        with pytest.raises(GridError, match="non-finite"):
            triple_norm(game, fields)


def test_triple_norm_peak_memory_is_a_few_fields():
    # the depth-first stream holds the path of parents (one first and one
    # second derivative), the derivative being made and its time quotient;
    # the seminorms' temporaries are a block of slices each.  An np.gradient
    # temporary and whole-field seminorm copies put the peak at 4.7 fields
    game = mini_game(N=4, M=15, L=2.0, T=0.1, dt=0.01)
    u = probe_fields(game, 0)
    tracemalloc.start()
    try:
        triple_norm(game, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * u[0].values.nbytes


def test_residual_and_norm_peak_memory_is_a_few_blocks():
    # both walk the time axis in blocks: at N = 2, M = 101 a slice is
    # 81.6 kB, so a block holds 3 slices and the 41-node field 13.7 blocks.
    # residual peaks at 7.7 blocks (the meshgrid, each player's block
    # derivatives and terms) and triple_norm at 8.4 (a block's path of
    # parents, its quotients, the carried slices and a re-derived range);
    # whole-field derivatives peaked at 6.9 field sizes in residual and 3.1
    # in the norm, and one whole-field temporary fails the bound
    game = mini_game(N=2, M=101, L=4.0, T=0.4, dt=0.01)
    u = probe_fields(game, 0)
    block = holder._BLOCK_BYTES // u[0].values[0].nbytes * u[0].values[0].nbytes
    assert u[0].values.nbytes > 13 * block
    for diagnostic in (residual, triple_norm):
        tracemalloc.start()
        try:
            diagnostic(game, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * block


def test_triple_norm_of_a_generator_equals_the_list():
    game = mini_game(N=3, M=11, L=2.0, T=0.1, dt=0.01)
    u, v = probe_fields(game, 0), probe_fields(game, 1)
    listed = triple_norm(game, [a - b for a, b in zip(u, v)])
    assert triple_norm(game, (a - b for a, b in zip(u, v))) == listed


def test_picard_sweep_peak_memory_is_three_fields_per_player():
    # a sweep holds the old iterate, the frozen gradients and the new
    # iterate, 3N = 12 fields, plus the linear solve's temporaries; the
    # increments are made and reduced one player at a time.  Holding all N
    # increments at once peaks at 16.7 field sizes
    game = mini_game(N=4, M=15, L=2.0, T=0.1, dt=0.01)
    u0 = probe_fields(game, 0)
    tracemalloc.start()
    try:
        picard_solve(game, u0, tol=1e-12, max_iter=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15 * u0[0].values.nbytes


def test_contraction_probe_small_T():
    # the empirical contraction factor scales with the cost amplitudes
    # (kappa'_R in the fixed-point argument), so the probe family keeps
    # them small
    game = mini_game(M=31, T=0.05, c_Q=0.01, c_G=0.01)
    u = probe_fields(game, 0)
    v = probe_fields(game, 1)
    ratio = contraction_probe(game, u, v)
    assert 0 < ratio < 1.0
    # swap symmetry is exact
    assert contraction_probe(game, v, u) == ratio


def test_contraction_probe_degenerate_pair():
    game = mini_game(M=21)
    u = probe_fields(game, 0)
    with pytest.raises(NashError):
        contraction_probe(game, u, u)


def test_contraction_is_stable_in_the_dimension():
    # the paper's claim at N = 1..4: with data decaying like beta, the Picard
    # map contracts with one bound at every N and needs no more sweeps.  The
    # probe fields are drawn anew at each N, so the ratios are not monotone:
    # the test asserts a bound, not a trend
    ratios, sweeps = [], []
    for N in range(1, 5):
        spec = decay_lq_game(N, BETA, 0.05, 0.1, 0.25, 0.1)
        game = GameSpec(spec, BETA, SpatialGrid(N, 2.0, 11), 0.01)
        ratios.append(max(contraction_probe(game, probe_fields(game, 2 * k),
                                            probe_fields(game, 2 * k + 1))
                          for k in range(2)))
        sol, rep = picard_solve(game, tol=1e-6)
        assert sol is not None
        sweeps.append(rep.iterations)
    assert max(ratios) < 1, ratios
    assert max(sweeps) <= sweeps[0], sweeps


def test_horizon_scan():
    def make(T):
        return mini_game(T=T, M=31, dt=0.02, c_Q=0.01, c_G=0.01)

    scan = horizon_scan(make, [0.05, 0.1, 0.2], n_pairs=3, tol=1e-5,
                        max_iter=20)
    assert scan.rows[0].max_ratio < 1.0
    assert scan.rows[0].converged
    assert scan.spearman > 0
    assert scan.T_star_low is not None
    with pytest.raises(NashError):
        horizon_scan(make, [])
    with pytest.raises(NashError):
        horizon_scan(make, [0.2, 0.1])


def test_horizon_scan_reports_a_refused_horizon():
    # dt 1.0 leaves the step at GameSpec's diffusion cap; at T = 0.8 the
    # Picard iterates' drift takes it past the transport stability bound,
    # and the scan records that horizon as a failure, not an error
    def make(T):
        return mini_game(T=T, M=31, dt=1.0, c_Q=0.05, c_G=0.1)

    scan = horizon_scan(make, [0.2, 0.8], n_pairs=1, tol=1e-8, max_iter=25)
    assert scan.rows[0].converged and scan.rows[0].max_ratio < 1
    assert not scan.rows[1].converged
    assert scan.T_star_low == 0.2 and scan.T_fail == 0.8


def test_horizon_scan_reports_a_non_finite_horizon():
    # the longer horizon's game blows up in its first sweep: its probes
    # count as ratio inf and its Picard run as not converged, and the scan
    # keeps its bracket
    def make(T):
        if T > 0.1:
            return overflow_game(T)
        return mini_game(T=T, M=21, L=3.0, dt=0.01, c_Q=0.01, c_G=0.01)

    scan = horizon_scan(make, [0.05, 0.2], n_pairs=1, tol=1e-8, max_iter=25)
    assert scan.rows[0].converged and scan.rows[0].max_ratio < 1
    assert not scan.rows[1].converged
    assert scan.rows[1].max_ratio == math.inf
    assert scan.T_star_low == 0.05 and scan.T_fail == 0.2


def test_horizon_scan_counts_a_refused_probe_as_inf(monkeypatch):
    from types import SimpleNamespace

    def probe(game, u, v):
        if game > 0.5:
            raise StepBoundError("refused")
        return 0.5

    monkeypatch.setattr(nash, "probe_fields", lambda game, seed: game)
    monkeypatch.setattr(nash, "contraction_probe", probe)
    monkeypatch.setattr(nash, "picard_solve", lambda game, **kw: (
        None, SimpleNamespace(converged=True)))
    scan = nash.horizon_scan(lambda T: T, [0.1, 0.2, 1.0], n_pairs=2)
    assert [r.max_ratio for r in scan.rows] == [0.5, 0.5, math.inf]
    assert scan.T_star_low == 0.2 and scan.T_fail == 1.0
    assert scan.spearman > 0


def test_horizon_scan_spearman_matches_scipy(monkeypatch):
    stats = pytest.importorskip("scipy.stats")
    from types import SimpleNamespace

    from nash_horizon import nash
    # each "game" is its horizon T, and its probe ratio is scripted
    ratio = {}
    monkeypatch.setattr(nash, "probe_fields", lambda game, seed: game)
    monkeypatch.setattr(nash, "contraction_probe",
                        lambda game, u, v: ratio[game])
    monkeypatch.setattr(nash, "picard_solve", lambda game, **kw: (
        None, SimpleNamespace(converged=False)))
    rng = np.random.default_rng(0)
    cases = [([0.1, 0.2, 0.3], [0.5, 0.5, 0.9]), ([0.1, 0.2], [0.7, 0.7])]
    for _ in range(300):
        n = int(rng.integers(2, 12))
        # maxima on a coarse lattice, so ties are common
        cases.append((np.cumsum(rng.uniform(0.01, 1.0, n)).tolist(),
                      (rng.integers(0, 4, n) / 4).tolist()))
    for T_list, maxima in cases:
        ratio.clear()
        ratio.update(zip(T_list, maxima))
        scan = nash.horizon_scan(lambda T: T, T_list, n_pairs=1)
        if max(maxima) == min(maxima):
            assert np.isnan(scan.spearman)
        else:
            assert scan.spearman == stats.spearmanr(T_list, maxima).correlation


def test_horizon_scan_degenerate_game():
    def make(T):
        g = zero_game(T=T)
        return g

    scan = horizon_scan(make, [0.05, 0.1], n_pairs=2, tol=1e-8)
    for row in scan.rows:
        assert row.max_ratio < 1e-10
        assert row.converged


# ---------------------------------------------------------------------------
# residual


def test_residual_zero_on_trivial_game():
    game = zero_game()
    res = residual(game, game.zero_fields())
    assert all(r == 0.0 for r in res)


def test_residual_refines_on_oracle_fields():
    # Riccati-exact fields: residual is pure discretization error, order >= 1
    sups = []
    for M, nt in ((31, 11), (61, 21)):
        game = mini_game(M=M)
        traj = riccati_integrate(game.spec, game.T / 400)
        X = game.grid.meshgrid()
        times = np.linspace(0, game.T, nt)
        u = [Field(game.grid, times,
                   np.stack([lq_value(traj, i, t, X) for t in times]))
             for i in range(2)]
        sups.append(max(residual(game, u)))
    assert np.log2(sups[0] / sups[1]) >= 1.0


def test_residual_perturbation_slope():
    game = mini_game()
    sol, _ = picard_solve(game, tol=1e-7)
    base = max(residual(game, sol))
    X = game.grid.meshgrid()

    def perturbed(delta):
        u = [Field(f.grid, f.times, f.values + delta * np.sin(X[0]))
             for f in sol]
        return max(residual(game, u))

    e1 = perturbed(0.1) - base
    e2 = perturbed(0.05) - base
    assert e1 > 0 and e2 > 0
    assert 1.3 < e1 / e2 < 3.0


def test_residual_needs_time_nodes():
    game = zero_game()
    short = [Field(game.grid, [0.0, 0.1],
                   np.zeros((2,) + game.grid.shape)) for _ in range(game.N)]
    with pytest.raises(NashError):
        residual(game, short)


def _residual_first_form(game, fields, collar=0.1):
    """residual as first written: its own stacked D_j u^j and its own
    derivative family per player."""
    grid = game.grid
    times = fields[0].times
    X = grid.meshgrid()
    a = game.diffusion.a
    grads = frozen_gradients(fields)
    inner = grid.interior(collar)
    out = []
    for i, f in enumerate(fields):
        fam = derivative_family(f, 2)
        res = -np.gradient(f.values, times, axis=0, edge_order=2)
        for k in range(times.size):
            Du = grads[:, k]
            acc = np.zeros(grid.shape)
            for c in range(game.N):
                acc += a * fam[(c, c)].values[k]
            res[k] -= acc
            res[k] += game.hamiltonian.value(i, X, Du)
            for j in range(game.N):
                if j != i:
                    res[k] += game.hamiltonian.dpj(j, Du) * \
                        fam[(j,)].values[k]
        out.append(float(np.abs(res[(slice(None),) + inner]).max()))
    return out


@pytest.mark.parametrize("N, M, kind", [
    pytest.param(1, 21, "lq", id="1-21-lq"),
    pytest.param(2, 15, "saturated", id="2-15-saturated"),
    pytest.param(3, 9, "lq", id="3-9-lq"),
])
def test_residual_on_shared_families_matches_first_form(N, M, kind):
    game = mini_game(N=N, M=M, kappa=None if kind == "lq" else 1.5)
    u = probe_fields(game, seed=N, scale=0.5)
    assert residual(game, u) == _residual_first_form(game, u)


@pytest.mark.parametrize("N, M, kind", [
    pytest.param(1, 21, "lq", id="1-21-lq"),
    pytest.param(2, 9, "saturated", id="2-9-saturated"),
    pytest.param(3, 7, "lq", id="3-7-lq"),
])
@pytest.mark.parametrize("spacing", ["uniform", "uneven"])
@pytest.mark.parametrize("n_times", [3, 4, 7])
def test_residual_in_blocks_matches_whole_field(N, M, kind, spacing, n_times,
                                                monkeypatch):
    # blocks of 1 to 4 slices against the whole-field first form, the last
    # block ragged where they do not divide the time nodes; u_t takes
    # np.gradient's scalar-step formulas when every step is equal (0.375
    # exactly, not a power of two, so the two formulas differ in their last
    # bits) and its per-node ones otherwise
    game = mini_game(N=N, M=M, kappa=None if kind == "lq" else 1.5)
    rng = np.random.default_rng(n_times)
    if spacing == "uniform":
        times = 0.375 * np.arange(n_times)
    else:
        times = np.cumsum(rng.uniform(0.01, 0.1, n_times))
    steps = np.diff(times)
    assert bool((steps == steps[0]).all()) is (spacing == "uniform")
    u = [Field(game.grid, times,
               rng.normal(size=(n_times,) + game.grid.shape))
         for _ in range(N)]
    whole = _residual_first_form(game, u)
    for rows in (1, 2, 3, 4):
        monkeypatch.setattr(holder, "_BLOCK_BYTES",
                            rows * u[0].values[0].nbytes + 3)
        assert residual(game, u) == whole


@pytest.mark.parametrize("spacing", ["uniform", "uneven"])
def test_residual_in_blocks_keeps_the_bits_of_u_t(spacing, monkeypatch):
    # u(t, x) = g(t) on the zero game: every interior spatial derivative
    # and H is 0, so the residual is max_k |u_t(t_k)|, and a last-bit
    # change of the time stencil, which the sums of the general case can
    # round away, shows.  g is steepest near node k, which puts the max on
    # nodes 0, 2, 3, 4 and 6 at least, in blocks of every size
    game = zero_game(N=1, M=21)
    rng = np.random.default_rng(3)
    times = (0.375 * np.arange(7) if spacing == "uniform"
             else np.cumsum(rng.uniform(0.05, 0.4, 7)))
    maxima = set()
    for k in range(7):
        g = (5 * np.tanh((times - times[k]) / 0.03)
             + 0.01 * rng.normal(size=7))
        u = [Field(game.grid, times, np.broadcast_to(
            g[:, None], (7,) + game.grid.shape).copy())]
        u_t = np.abs(np.gradient(g, times, edge_order=2))
        maxima.add(int(np.argmax(u_t)))
        for rows in (1, 2, 3, 7):
            monkeypatch.setattr(holder, "_BLOCK_BYTES",
                                rows * u[0].values[0].nbytes)
            assert residual(game, u) == [float(u_t.max())]
    assert maxima >= {0, 2, 3, 4, 6}


# ---------------------------------------------------------------------------
# stability and uniqueness


def test_dimension_stability_decoupled():
    def make(N):
        Q = np.zeros((N, N, N))
        G = np.zeros((N, N, N))
        for i in range(N):
            Q[i, i, i] = 0.3
            G[i, i, i] = 0.4
        spec = LQGameSpec(0.25, Q, G, 0.1)
        return GameSpec(spec, BETA, SpatialGrid(N, 2.0, 21), 0.01)

    rep = dimension_stability(make, [2, 3], tol=1e-7)
    assert rep.rows[0].diff < 1e-6


def test_dimension_stability_needs_two_dimensions():
    with pytest.raises(NashError, match="at least two"):
        dimension_stability(lambda N: pytest.fail("no game is solved"), [2])


def test_dimension_stability_interpolates_across_time_nodes():
    # at sigma = 1 and M = 11 the 0.45 CFL cap binds at every N and gives N
    # players the step 0.45 h^2 / (N sigma^2): N = 2 and 3 share no time grid
    def make(N):
        spec = decay_lq_game(N, BETA, c_Q=0.1, c_G=0.2, sigma=1.0, T=0.2)
        return GameSpec(spec, BETA, SpatialGrid(N, 2.0, 11), 0.1)

    g2, g3 = make(2), make(3)
    assert g2.times.size != g3.times.size
    rep = dimension_stability(make, [2, 3], tol=1e-7)
    sol2, _ = picard_solve(g2, tol=1e-7)
    sol3, _ = picard_solve(g3, tol=1e-7)
    center = (g2.grid.M - 1) // 2
    ref = max(float(np.max(np.abs(
        a.values - interp_time(b.times, b.values[..., center], a.times))))
        for a, b in zip(sol2, sol3))
    assert ref > 0
    assert rep.rows[0].diff == ref


def test_uniqueness_probe_identical_guesses():
    game = mini_game(M=31)
    u0 = probe_fields(game, 3)
    assert uniqueness_probe(game, u0, u0, tol=1e-6) == 0.0


def test_uniqueness_probe_distinct_guesses():
    game = mini_game(M=31)
    tol = 1e-6
    X = game.grid.meshgrid()
    # second guess: terminal costs extended constantly in time
    u0_b = [Field(game.grid, game.times,
                  np.broadcast_to(TerminalSpec(g).eval(X),
                                  (game.times.size,) + game.grid.shape).copy())
            for g in game.terminals]
    d = uniqueness_probe(game, None, u0_b, tol=tol, max_iter=25)
    assert d <= 10 * tol
