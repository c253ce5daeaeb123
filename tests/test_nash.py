import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nash_horizon import holder
from nash_horizon.holder import (
    Field,
    GridError,
    SpatialGrid,
    derivative_family,
    finite_diff,
    space_norm,
)
from nash_horizon.nash import (
    GameSpec,
    GradientCache,
    HamiltonianFamily,
    NashError,
    assemble_drift,
    assemble_source,
    contraction_probe,
    dimension_stability,
    horizon_scan,
    lq_game,
    picard_solve,
    picard_step,
    probe_fields,
    residual,
    triple_norm,
    uniqueness_probe,
)
from nash_horizon.oracle_lq import decay_lq_game, lq_value, riccati_integrate
from nash_horizon.pde_linear import verify_decay
from nash_horizon.weights import build_weight

BETA = build_weight("polynomial", {"a": 3}, 32)


def mini_game(N=2, T=0.2, M=41, L=3.0, c_Q=0.1, c_G=0.2, sigma=0.25, dt=0.02,
              **kw):
    spec = decay_lq_game(N, BETA, c_Q=c_Q, c_G=c_G, sigma=sigma, T=T)
    return lq_game(spec, BETA, SpatialGrid(N, L, M), dt, **kw), spec


def zero_game(N=2, T=0.1, M=21, L=2.0):
    from nash_horizon.pde_linear import DiffusionSpec
    ham = HamiltonianFamily.lq(np.zeros((N, N, N)))
    diff = DiffusionSpec.isotropic(N, 0.05)
    terms = [lambda X: 0.0 * X[0] for _ in range(N)]
    return GameSpec(N, diff, ham, terms, T, BETA, SpatialGrid(N, L, M), 0.01)


def fams_of(fields):
    return [derivative_family(f, 2) for f in fields]


def test_game_step_under_diffusion_cfl_margin():
    for dt in (10.0, 0.3, 0.02):
        game, spec = mini_game(dt=dt)
        cfl = game.grid.h ** 2 / (2 * game.N * 0.5 * spec.sigma ** 2)
        assert game.step <= min(dt, 0.45 * cfl)
        assert game.times.size >= 3


# ---------------------------------------------------------------------------
# Hamiltonian families


def probe_derivatives(ham):
    """Finite-difference reference for the momentum partials: the max
    relative error of dpj against central differences of value at 100
    random (t, x, p) with |x|, |p| <= 2."""
    N = ham.Q.shape[0]
    rng = np.random.default_rng(0)
    X = rng.uniform(-2.0, 2.0, (N, 100))
    p = rng.uniform(-2.0, 2.0, (N, 100))
    t = float(rng.uniform(0, 1))
    h = 1e-5
    worst = 0.0
    for j in range(N):
        e = np.zeros_like(p)
        e[j] = h
        fd = (ham.value(j, t, X, p + e) - ham.value(j, t, X, p - e)) / (2 * h)
        an = np.broadcast_to(ham.dpj(j, t, X, p), fd.shape)
        scale = np.maximum(np.abs(an), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - an) / scale)))
    return worst


def test_hamiltonian_probe_passes_builtin():
    Q = decay_lq_game(3, BETA, 0.3, 0.3, 0.2, 1.0).Q
    assert probe_derivatives(HamiltonianFamily.lq(Q)) < 1e-6
    assert probe_derivatives(HamiltonianFamily.saturated(Q, 2.0)) < 1e-4


def test_hamiltonian_probe_catches_wrong_derivative():
    class WrongPartial(HamiltonianFamily):
        def dpj(self, j, t, X, p):
            return 1.5 * p[j]

    assert probe_derivatives(WrongPartial("lq", np.zeros((2, 2, 2)))) > 1e-4


def test_unknown_hamiltonian_kind_rejected():
    spec = decay_lq_game(2, BETA, 0.1, 0.2, 0.25, 0.2)
    grid = SpatialGrid(2, 3.0, 21)
    for kind in ("LQ", "user", ""):
        with pytest.raises(NashError, match="unknown Hamiltonian kind"):
            lq_game(spec, BETA, grid, 0.02, kind=kind, kappa=2.0)
    with pytest.raises(NashError, match="saturation level"):
        lq_game(spec, BETA, grid, 0.02, kind="saturated")


def test_saturated_matches_lq_at_small_momenta():
    Q = np.zeros((2, 2, 2))
    lq = HamiltonianFamily.lq(Q)
    sat = HamiltonianFamily.saturated(Q, kappa=10.0)
    p = np.array([[0.3], [-0.8]])
    X = np.zeros((2, 1))
    for j in range(2):
        assert sat.dpj(j, 0.0, X, p) == pytest.approx(
            lq.dpj(j, 0.0, X, p), abs=2e-2)


def test_saturated_derivatives_bounded():
    sat = HamiltonianFamily.saturated(np.zeros((1, 1, 1)), kappa=2.0)
    p = np.linspace(-100, 100, 1001)[None]
    assert np.max(np.abs(sat.dpj(0, 0.0, np.zeros_like(p), p))) <= 2.0


# ---------------------------------------------------------------------------
# sweep assembly


def test_assemble_drift_lq_structure():
    # for LQ, B^j_i = D_j u^j (j != i) and B^i_i = D_i u^i / 2
    game, _ = mini_game()
    u = [Field.from_function(game.grid, game.times,
                             lambda t, X, i=i: np.sin(X[i]) * (1 + i))
         for i in range(2)]
    cache = GradientCache.from_fields(u)
    X = game.grid.meshgrid()
    t = game.times[3]
    Du = cache.at(t)
    B0 = assemble_drift(game, cache, 0).eval(t, X)
    np.testing.assert_allclose(B0[0], 0.5 * Du[0], atol=1e-12)
    np.testing.assert_allclose(B0[1], Du[1], atol=1e-12)


def test_assemble_drift_zero_field():
    game, _ = mini_game()
    cache = GradientCache.from_fields(game.zero_fields())
    X = game.grid.meshgrid()
    B = assemble_drift(game, cache, 1).eval(0.05, X)
    np.testing.assert_allclose(B, 0.0, atol=1e-15)


def test_assemble_source_zero_field_is_spatial_part():
    game, spec = mini_game()
    cache = GradientCache.from_fields(game.zero_fields())
    X = game.grid.meshgrid()
    F = assemble_source(game, cache, 0).eval(0.0, X)
    spatial = -0.5 * np.einsum("jk,j...,k...->...", spec.Q[0], X, X)
    np.testing.assert_allclose(F, spatial, atol=1e-12)


def test_source_consistency_split():
    # H^i(Du) = F^i + bracket, bracket = 0 wherever D_i u^i = 0
    game, _ = mini_game()
    rng = np.random.default_rng(5)
    u = probe_fields(game, seed=9, scale=0.5)
    cache = GradientCache.from_fields(u)
    X = game.grid.meshgrid()
    t = float(game.times[2])
    Du = cache.at(t)
    i = 1
    H = game.hamiltonian.value(i, t, X, Du)
    F = assemble_source(game, cache, i).eval(t, X)
    bracket = H - F
    # for LQ the bracket is exactly (D_i u^i)^2 / 2
    np.testing.assert_allclose(bracket, 0.5 * Du[i] ** 2, atol=1e-12)


def test_picard_step_zero_game():
    game = zero_game()
    out = picard_step(game, game.zero_fields())
    for f in out:
        np.testing.assert_allclose(f.values, 0.0, atol=1e-15)


def test_picard_step_fixes_riccati_solution():
    # S applied to the oracle-exact u returns u within discretization error
    game, spec = mini_game(M=61, dt=0.005)
    traj = riccati_integrate(spec, spec.T / 400)
    X = game.grid.meshgrid()
    u = [Field(game.grid, game.times,
               np.stack([lq_value(traj, i, t, X)[0] for t in game.times]),
               player=i) for i in range(2)]
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
    game, spec = mini_game()
    sol, rep = picard_solve(game, tol=1e-6, max_iter=20)
    assert rep.converged
    traj = riccati_integrate(spec, spec.T / 200)
    X = game.grid.meshgrid()
    inner = game.grid.interior(0.1)
    for i in range(2):
        exact = np.stack([lq_value(traj, i, t, X)[0] for t in game.times])
        err = np.max(np.abs(sol[i].values - exact)[(slice(None),) + inner])
        assert err < 2e-2
    # decay reports and residuals of the fixed point are finite
    assert all(np.isfinite(verify_decay(fam, game.player_weight(i),
                                        third_order=False).K2)
               for i, fam in enumerate(fams_of(sol)))
    assert all(np.isfinite(r[0]) for r in residual(game, fams_of(sol)))


def test_picard_determinism():
    game, _ = mini_game()
    a, _ = picard_solve(game, tol=1e-6)
    b, _ = picard_solve(game, tol=1e-6)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.values, fb.values)


def test_picard_long_horizon_fails():
    # T scaled x8 from the contractive regime: blow-up, divergence, or at
    # least non-contraction must be reported
    game, _ = mini_game(T=1.6, c_Q=0.5, c_G=0.8, M=31)
    try:
        sol, rep = picard_solve(game, tol=1e-8, max_iter=25)
    except NashError:
        return  # solver blow-up counts as detected failure
    assert (sol is None) or rep.diverged or (rep.ratios and max(rep.ratios) > 1)


def test_envelope_warning():
    # setting R alone turns the iterate norm on
    game, _ = mini_game(R=1e-9)
    with pytest.warns(UserWarning):
        _, rep = picard_solve(game, tol=1e-4, max_iter=8)
    assert rep.envelope_exceeded
    assert rep.max_norm > game.R


def test_iterate_norm_flag_changes_only_max_norm():
    game, _ = mini_game()
    off_sol, off = picard_solve(game, tol=1e-6, max_iter=20)
    on_sol, on = picard_solve(game, tol=1e-6, max_iter=20, iterate_norm=True)
    assert off.max_norm is None and not off.envelope_exceeded
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
    game, _ = mini_game(M=21)
    _, rep = picard_solve(game, tol=1e-6, max_iter=20)
    assert len(calls) == rep.iterations
    calls.clear()
    _, rep = picard_solve(game, tol=1e-6, max_iter=20, iterate_norm=True)
    assert len(calls) == 2 * rep.iterations


def test_fixed_point_property():
    game, _ = mini_game()
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
    from nash_horizon.oracle_lq import LQGameSpec
    spec = LQGameSpec(N, 0.25, Q, G, 0.2)
    game = lq_game(spec, BETA, SpatialGrid(N, 3.0, 41), 0.02)
    sol, rep = picard_solve(game, tol=1e-7)
    assert rep.converged
    for i in range(N):
        cross = finite_diff(sol[i], (1 - i,))
        assert np.max(np.abs(cross.values)) < 1e-8


# ---------------------------------------------------------------------------
# norms and probes


def test_triple_norm_zero_and_positive():
    game, _ = mini_game(M=21)
    assert triple_norm(game, game.zero_fields()) == 0.0
    assert triple_norm(game, probe_fields(game, 0)) > 0


def _lipschitz_family(fam, times):
    """Time quotients (D^a u(t_{k+1}) - D^a u(t_k)) / dt_k of a family."""
    dts = np.diff(times).reshape((-1,) + (1,) * (fam[()].values.ndim - 1))
    return {a: Field(f.grid, times[:-1], np.diff(f.values, axis=0) / dts,
                     f.player) for a, f in fam.items()}


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
                                    game.player_weight(i, sqrt=True),
                                    minus_variant=True)
            worst = max(worst, total)
    return worst


@st.composite
def _norm_inputs(draw):
    N = draw(st.integers(1, 4))
    M = draw(st.sampled_from([5, 7, 9, 11]))
    game, _ = mini_game(N=N, M=M, L=2.0, T=0.1, dt=0.01)
    n_times = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 16))
    if draw(st.booleans()):
        fields = [Field(f.grid, f.times[:n_times], f.values[:n_times], i)
                  for i, f in enumerate(probe_fields(game, seed))]
    else:
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.01, 0.1, n_times))
        shape = (n_times,) + game.grid.shape
        fields = [Field(game.grid, times,
                        rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3), i)
                  for i in range(N)]
    return game, fields


@settings(max_examples=60, deadline=None)
@given(inputs=_norm_inputs())
def test_triple_norm_equals_space_norm_definition(inputs):
    game, fields = inputs
    assert triple_norm(game, fields) == _triple_norm_by_definition(game, fields)


@pytest.mark.parametrize("N", [2, 4])
def test_triple_norm_equals_definition_on_iterate_differences(N):
    # probe-field differences on the full time grid, like a sweep increment
    game, _ = mini_game(N=N, M=11, L=2.0, T=0.1, dt=0.01)
    for seed in (0, 2):
        u, v = probe_fields(game, seed), probe_fields(game, seed + 1)
        for fields in (u, [a - b for a, b in zip(u, v)]):
            assert triple_norm(game, fields) == \
                _triple_norm_by_definition(game, fields)


@pytest.mark.parametrize("bad", [0, 1])
def test_triple_norm_rejects_overflowing_derivative(bad):
    # alternating +-1e308 is finite, but its one-sided edge stencil
    # overflows: the norm must fail as a Field of that derivative would,
    # not let max() drop the inf or nan
    game, _ = mini_game(N=2, M=11, L=2.0, T=0.1, dt=0.01)
    fields = probe_fields(game, 0)
    sign = (-1.0) ** np.indices(game.grid.shape).sum(axis=0)
    vals = np.broadcast_to(1e308 * sign, fields[bad].values.shape)
    fields[bad] = Field(game.grid, game.times, vals.copy(), bad)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GridError, match="non-finite"):
            _triple_norm_by_definition(game, fields)
        with pytest.raises(GridError, match="non-finite"):
            triple_norm(game, fields)


def test_triple_norm_peak_memory_is_a_few_fields():
    # the streamed kernel holds u, its first derivatives and one second
    # derivative at a time; the whole families held about 43 fields
    game, _ = mini_game(N=4, M=11, L=2.0, T=0.1, dt=0.01)
    u = probe_fields(game, 0)
    tracemalloc.start()
    try:
        triple_norm(game, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * u[0].values.nbytes


def test_contraction_probe_small_T():
    # the empirical contraction factor scales with the cost amplitudes
    # (kappa'_R in the fixed-point argument), so the probe family keeps
    # them small
    game, _ = mini_game(M=31, T=0.05, c_Q=0.01, c_G=0.01)
    u = probe_fields(game, 0)
    v = probe_fields(game, 1)
    res = contraction_probe(game, u, v)
    assert res.ratio < 1.0
    assert res.denominator > 0
    # swap symmetry is exact
    res2 = contraction_probe(game, v, u)
    assert res2.ratio == res.ratio


def test_contraction_probe_degenerate_pair():
    game, _ = mini_game(M=21)
    u = probe_fields(game, 0)
    with pytest.raises(NashError):
        contraction_probe(game, u, u)


def test_horizon_scan():
    def make(T):
        return mini_game(T=T, M=31, dt=0.02, c_Q=0.01, c_G=0.01)[0]

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


def test_horizon_scan_spearman_matches_scipy(monkeypatch):
    stats = pytest.importorskip("scipy.stats")
    from types import SimpleNamespace

    from nash_horizon import nash
    # each "game" is its horizon T, and its probe ratio is scripted
    ratio = {}
    monkeypatch.setattr(nash, "probe_fields", lambda game, seed: game)
    monkeypatch.setattr(nash, "contraction_probe",
                        lambda game, u, v: nash.ProbeResult(ratio[game], 0, 0))
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
    res = residual(game, fams_of(game.zero_fields()))
    assert all(r[0] == 0.0 for r in res)


def test_residual_refines_on_oracle_fields():
    # Riccati-exact fields: residual is pure discretization error, order >= 1
    sups = []
    for M, nt in ((31, 11), (61, 21)):
        game, spec = mini_game(M=M)
        traj = riccati_integrate(spec, spec.T / 400)
        X = game.grid.meshgrid()
        times = np.linspace(0, spec.T, nt)
        u = [Field(game.grid, times,
                   np.stack([lq_value(traj, i, t, X)[0] for t in times]),
                   player=i) for i in range(2)]
        sups.append(max(r[0] for r in residual(game, fams_of(u))))
    assert np.log2(sups[0] / sups[1]) >= 1.0


def test_residual_perturbation_slope():
    game, spec = mini_game()
    sol, _ = picard_solve(game, tol=1e-7)
    base = max(r[0] for r in residual(game, fams_of(sol)))
    X = game.grid.meshgrid()

    def perturbed(delta):
        u = [Field(f.grid, f.times, f.values + delta * np.sin(X[0]), f.player)
             for f in sol]
        return max(r[0] for r in residual(game, fams_of(u)))

    e1 = perturbed(0.1) - base
    e2 = perturbed(0.05) - base
    assert e1 > 0 and e2 > 0
    assert 1.3 < e1 / e2 < 3.0


def test_residual_needs_time_nodes():
    game = zero_game()
    short = [Field(game.grid, [0.0, 0.1],
                   np.zeros((2,) + game.grid.shape)) for _ in range(game.N)]
    with pytest.raises(NashError):
        residual(game, fams_of(short))


def _residual_first_form(game, fields, collar=0.1):
    """residual as first written: its own GradientCache for D_j u^j and its
    own derivative family per player."""
    grid = game.grid
    times = fields[0].times
    X = grid.meshgrid()
    cache = GradientCache.from_fields(fields)
    inner = grid.interior(collar)
    out = []
    for i, f in enumerate(fields):
        fam = derivative_family(f, 2)
        res = -np.gradient(f.values, times, axis=0, edge_order=2)
        for k, t in enumerate(times):
            Du = cache.values[:, k]
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
        loc = np.unravel_index(int(np.argmax(body)), body.shape)
        out.append((float(body.max()), loc))
    return out


@pytest.mark.parametrize("N, M, kind", [(1, 21, "lq"), (2, 15, "saturated"),
                                        (3, 9, "lq")])
def test_residual_on_shared_families_matches_first_form(N, M, kind):
    game, _ = mini_game(N=N, M=M, kind=kind, kappa=1.5)
    u = probe_fields(game, seed=N, scale=0.5)
    assert residual(game, fams_of(u)) == _residual_first_form(game, u)


# ---------------------------------------------------------------------------
# stability and uniqueness


def test_dimension_stability_decoupled():
    from nash_horizon.oracle_lq import LQGameSpec

    def make(N):
        Q = np.zeros((N, N, N))
        G = np.zeros((N, N, N))
        for i in range(N):
            Q[i, i, i] = 0.3
            G[i, i, i] = 0.4
        spec = LQGameSpec(N, 0.25, Q, G, 0.1)
        return lq_game(spec, BETA, SpatialGrid(N, 2.0, 21), 0.01)

    rep = dimension_stability(make, [2, 3], tol=1e-7)
    assert rep.rows[0].diff < 1e-6


def test_uniqueness_probe_identical_guesses():
    game, _ = mini_game(M=31)
    u0 = probe_fields(game, 3)
    assert uniqueness_probe(game, u0, u0, tol=1e-6) == 0.0


def test_uniqueness_probe_distinct_guesses():
    game, _ = mini_game(M=31)
    tol = 1e-6
    X = game.grid.meshgrid()
    # second guess: terminal costs extended constantly in time
    u0_b = [Field(game.grid, game.times,
                  np.broadcast_to(game.terminal_field(i),
                                  (game.times.size,) + game.grid.shape).copy(),
                  player=i) for i in range(2)]
    d = uniqueness_probe(game, None, u0_b, tol=tol, max_iter=25)
    assert d <= 10 * tol
