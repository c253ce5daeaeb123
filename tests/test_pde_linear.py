import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from nash_horizon.holder import (Field, GridError, NonFiniteError,
                                 SpatialGrid, finite_diff, time_nodes)
from nash_horizon import holder, pde_linear
from nash_horizon.pde_linear import (
    CFLError,
    DiffusionSpec,
    FPKResult,
    LinearProblem,
    SolveError,
    SpecError,
    TerminalSpec,
    TransportBoundError,
    _diffusion_term,
    _neighbours,
    _transport_term,
    build_decay_problem,
    cfl_step,
    fpk_gradient_mass,
    solve_fpk_grid,
    solve_grid,
    solve_mc,
    verify_decay,
)
from nash_horizon.weights import build_weight, multi_index_weight

BETA = build_weight("polynomial", {"a": 3}, 32)


def heat_problem(N, T=0.25, a=0.5):
    diff = DiffusionSpec(N, a)
    term = TerminalSpec(lambda X: np.exp(-sum(x ** 2 for x in X) / 2))
    return LinearProblem(diff, None, None, term, 0.0, T)


def gaussian_exact(X, s, T, a=0.5):
    # heat semigroup applied to exp(-|x|^2/2): variance grows by 2a(T-s)
    v = 1.0 + 2 * a * (T - s)
    N = X.shape[0]
    return v ** (-N / 2) * np.exp(-sum(x ** 2 for x in X) / (2 * v))


def cfl_dt(grid, N, a):
    return 0.9 * grid.h ** 2 / (2 * N * a)


def test_heat_kernel_oracle_2d():
    # A = 0.5 I, G a standard Gaussian: exact solution is a widening Gaussian
    g = SpatialGrid(2, 6.0, 201)
    p = heat_problem(2)
    w = solve_grid(p, g, cfl_dt(g, 2, 0.5))
    X = g.meshgrid()
    err = np.max(np.abs(w.values[0] - gaussian_exact(X, 0.0, p.T)))
    assert err < 5e-3


def test_heat_kernel_refinement_order():
    errs = []
    for M in (101, 201):
        g = SpatialGrid(2, 6.0, M)
        p = heat_problem(2)
        w = solve_grid(p, g, cfl_dt(g, 2, 0.5))
        X = g.meshgrid()
        errs.append(np.max(np.abs(w.values[0] - gaussian_exact(X, 0.0, p.T))))
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_constant_terminal_no_source(covering_step):
    # with F = 0 and G = c the solution is identically c
    g = SpatialGrid(2, 2.0, 41)
    diff = DiffusionSpec(2, 1.0)
    drift = lambda t, X: np.stack([np.sin(X[0]), 0 * X[1]])
    p = LinearProblem(diff, drift, None,
                      TerminalSpec(lambda X: 3.0 + 0 * X[0]), 0.0, 0.1)
    w = solve_grid(p, g, covering_step(p, g, cfl_dt(g, 2, 1.0)))
    np.testing.assert_allclose(w.values, 3.0, atol=1e-10)


def test_linearity():
    g = SpatialGrid(1, 3.0, 81)
    diff = DiffusionSpec(1, 0.5)

    def solve(gfun, ffun):
        p = LinearProblem(diff, None, TerminalSpec(ffun),
                          TerminalSpec(gfun), 0.0, 0.1)
        return solve_grid(p, g, cfl_dt(g, 1, 0.5))

    w1 = solve(lambda X: np.cos(X[0]), lambda X: np.sin(X[0]))
    w2 = solve(lambda X: X[0] ** 2, lambda X: 1.0 + 0 * X[0])
    w12 = solve(lambda X: np.cos(X[0]) + 2 * X[0] ** 2,
                lambda X: np.sin(X[0]) + 2.0)
    np.testing.assert_allclose(w12.values, w1.values + 2 * w2.values,
                               atol=1e-10)


def test_comparison_principle(covering_step):
    # F >= 0, G >= 0 implies w >= 0 (monotone scheme)
    g = SpatialGrid(2, 2.0, 31)
    diff = DiffusionSpec(2, 0.5)
    drift = lambda t, X: np.stack([np.tanh(X[0]), -np.tanh(X[1])])
    src = TerminalSpec(lambda X: np.maximum(np.sin(5 * X[0]), 0.0))
    p = LinearProblem(diff, drift, src,
                      TerminalSpec(lambda X: np.maximum(X[0], 0.0)), 0.0, 0.2)
    w = solve_grid(p, g, covering_step(p, g, cfl_dt(g, 2, 0.5)))
    assert w.values.min() >= -1e-12


def test_cfl_violation_raises():
    g = SpatialGrid(2, 2.0, 41)
    with pytest.raises(CFLError):
        solve_grid(heat_problem(2), g, 10 * cfl_dt(g, 2, 0.5))


def test_grid_and_diffusion_dimensions_must_match():
    # both grid solvers refuse a diffusion matrix of another dimension
    g = SpatialGrid(1, 6.0, 61)
    p = LinearProblem(DiffusionSpec(2, 0.5), None, None,
                      TerminalSpec(lambda X: X[0]), 0.0, 0.1)
    with pytest.raises(SpecError, match="does not match"):
        solve_grid(p, g, 1e-3)
    with pytest.raises(SpecError, match="does not match"):
        solve_fpk_grid(DiffusionSpec(2, 0.5), [0.0], 4 * g.h, g,
                       1e-3, T=0.1)


def test_given_step_checks_the_transport_bound():
    # solve_grid keeps the requested step, and raises above the transport
    # bound 0.9 / (2 N a / h^2 + N sup|B| / h) of the step's drift; a step a
    # rounding error above the bound still runs
    g = SpatialGrid(1, 2.0, 21)
    bound = 0.9 / (2 * 0.5 / g.h ** 2 + 3.0 / g.h)
    for dt, ok in ((0.99 * bound, True), (bound * (1 + 1e-13), True),
                   (1.1 * bound, False)):
        p = LinearProblem(DiffusionSpec(1, 0.5),
                          lambda t, X: 3.0 * np.cos(X), None,
                          TerminalSpec(lambda X: np.sin(X[0])), 0.0, 4 * dt)
        if ok:
            w = solve_grid(p, g, dt)
            assert w.times.size == 5 and w.times[1] == dt
        else:
            with pytest.raises(TransportBoundError,
                               match="is 1.1 times the transport"):
                solve_grid(p, g, dt)


def test_every_step_checks_the_transport_bound():
    # the steps near a drift pulse at T/4, between the times t0, T/2 and T,
    # are checked too: run past their bound (up to 6.6 times), they once
    # took sup|w| to 1.027, outside the terminal's range [-1, 1]
    g = SpatialGrid(1, 2.0, 41)
    diff = DiffusionSpec(1, 0.5)
    T = 0.4
    pulse = lambda t, X: (60 * np.exp(-((t - T / 4) / (T / 40)) ** 2)
                          * np.cos(3 * X))
    p = LinearProblem(diff, pulse, None, TerminalSpec(lambda X: np.sin(X[0])),
                      0.0, T)
    with pytest.raises(TransportBoundError) as err:
        solve_grid(p, g, 0.9 * cfl_step(diff, g.h))
    # the message prints a ratio above 1 as above 1
    assert float(re.search(r" is (\S+) times", str(err.value))[1]) > 1


def _solve_grid_per_step(problem, grid, dt):
    """solve_grid's loop at a verbatim step, the source evaluated at every
    step as first written."""
    X, h = grid.meshgrid(), grid.h
    times = time_nodes(problem.t0, problem.T, dt)
    vals = [problem.terminal.eval(X)]
    for t0, t1 in zip(times[-2::-1], times[:0:-1]):
        v = vals[-1]
        nbrs = [_neighbours(v, k) for k in range(grid.N)]
        rhs = _diffusion_term(problem.diffusion, v, nbrs, h)
        rhs -= _transport_term(problem.drift(t1, X), v, nbrs, h)
        rhs += problem.source.eval(X)
        vals.append(v + (times[1] - times[0]) * rhs)
    return np.stack(vals[::-1])


def test_solve_grid_evaluates_the_source_once(same_bits):
    # the source depends on x only: one evaluation serves every step and
    # gives the per-step evaluation's bits
    calls = []

    def f(X):
        calls.append(X.shape)
        return np.cos(X[0]) * X[1] + 0.5

    g = SpatialGrid(2, 2.0, 21)
    diff = DiffusionSpec(2, 0.5)
    drift = lambda t, X: np.stack([np.tanh(X[1]) + t, -np.sin(X[0])])
    p = LinearProblem(diff, drift, TerminalSpec(f),
                      TerminalSpec(lambda X: np.sin(X[0]) * X[1]), 0.0, 0.1)
    dt = 0.5 * cfl_step(diff, g.h)
    w = solve_grid(p, g, dt)
    assert calls == [(2, 21, 21)]
    assert w.times.size > 10
    assert same_bits(w.values, _solve_grid_per_step(p, g, dt))


# ---------------------------------------------------------------------------
# grid stencils against their first form: slices of an np.pad-reflect copy


def _pad_reflect(v, axis):
    width = [(0, 0)] * v.ndim
    width[axis] = (1, 1)
    return np.pad(v, width, mode="reflect")


def _second_diff_first_form(v, axis, h):
    p = _pad_reflect(v, axis)
    lo = [slice(None)] * v.ndim
    hi = [slice(None)] * v.ndim
    lo[axis] = slice(0, -2)
    hi[axis] = slice(2, None)
    return (p[tuple(lo)] - 2 * v + p[tuple(hi)]) / h ** 2


def _one_sided_diffs_first_form(v, axis, h):
    p = _pad_reflect(v, axis)
    lo = [slice(None)] * v.ndim
    hi = [slice(None)] * v.ndim
    lo[axis] = slice(0, -2)
    hi[axis] = slice(2, None)
    backward = (v - p[tuple(lo)]) / h
    forward = (p[tuple(hi)] - v) / h
    return backward, forward


def _diffusion_term_first_form(a, v, h):
    out = np.zeros_like(v)
    for k in range(v.ndim):
        out += a * _second_diff_first_form(v, k, h)
    return out


def _transport_term_first_form(B, v, h):
    out = np.zeros_like(v)
    for j in range(B.shape[0]):
        backward, forward = _one_sided_diffs_first_form(v, j, h)
        out += np.where(B[j] > 0, B[j] * backward, B[j] * forward)
    return out


@pytest.mark.parametrize("shape", [(3,), (8,), (3, 3), (5, 3), (4, 3, 6),
                                   (3, 3, 3, 3), (5, 4, 3, 5), (5, 5, 5, 5)])
def test_stencils_match_pad_reflect_first_form(shape, same_bits):
    rng = np.random.default_rng(sum(shape) * len(shape))
    N = len(shape)
    h = 0.37
    v = rng.standard_normal(shape)
    B = rng.standard_normal((N,) + shape)
    B.reshape(-1)[::3] = 0.0                    # ties of the upwind switch
    diff = DiffusionSpec(N, 1.3)
    nbrs = [_neighbours(v, k) for k in range(N)]
    assert same_bits(_diffusion_term(diff, v, nbrs, h),
                     _diffusion_term_first_form(1.3, v, h))
    assert same_bits(_transport_term(B, v, nbrs, h),
                     _transport_term_first_form(B, v, h))
    # v and B drawn from signed zeros and both signs: a term or a sum that
    # lands on -0.0 becomes +0.0 only if every axis is summed from
    # np.zeros; on the checkerboard of -0.0 and +0.0 every +0.0 node has a
    # -0.0 diffusion term on every axis; past the float range a difference
    # is inf, and at B = 0 the upwind choice is the NaN of 0 * inf or not
    B = rng.choice([-0.0, 0.0, 0.75, -1.25], size=(N,) + shape)
    mixed = rng.choice([-0.0, 0.0, 1.5, -2.0], size=shape)
    board = np.where(np.indices(shape).sum(axis=0) % 2, 0.0, -0.0)
    for v in (mixed, board, 1.5e308 * np.sign(mixed)):
        nbrs = [_neighbours(v, k) for k in range(N)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(_diffusion_term(diff, v, nbrs, h),
                             _diffusion_term_first_form(1.3, v, h))
            assert same_bits(_transport_term(B, v, nbrs, h),
                             _transport_term_first_form(B, v, h))


def decay_probe(drift, N, c_B):
    """Central-difference check, with 10% slack, of ||D_j B^i|| <= c_B
    BETA^(j-i) at 20 seeded points of [-2, 2]^N."""
    pts = np.random.default_rng(0).uniform(-2.0, 2.0, size=(N, 20))
    h = 1e-4
    for j in range(N):
        e = np.zeros((N, 1))
        e[j] = h
        dB = (drift(0.0, pts + e) - drift(0.0, pts - e)) / (2 * h)
        for i in range(N):
            if np.max(np.abs(dB[i])) > 1.1 * c_B * BETA.value(j - i):
                return False
    return True


def test_drift_decay_probe():
    # build_decay_problem's drift holds the decay it is built with
    for N in (1, 3, 5):
        drift = build_decay_problem(N, BETA, 0.6, 0.0, 0.0, 0.5, 0.2).drift
        assert decay_probe(drift, N, 0.6)
    bad = lambda t, X: np.stack([np.sin(X[2]), 0 * X[1], 0 * X[2]])
    assert not decay_probe(bad, 3, 0.1)


@pytest.mark.parametrize("N", [1, 3, 4])
def test_decay_drift_matches_per_pair_tanh(N, same_bits):
    # the drift forms tanh(x^j) once per coordinate, not once per (i, j)
    drift = build_decay_problem(N, BETA, 0.6, 0.0, 0.0, 0.5, 0.2).drift
    X = SpatialGrid(N, 3.0, 9).meshgrid() + 0.1
    want = np.stack([
        0.6 * sum(BETA.value(j - i) * np.tanh(X[j]) for j in range(N))
        for i in range(N)])
    assert same_bits(drift(0.0, X), want)


@pytest.mark.parametrize("N, a, message", [
    (0, 0.5, "needs N >= 1"),
    (2, 0.0, "finite and > 0"),
    (2, -1.0, "finite and > 0"),
    (2, float("nan"), "finite and > 0"),
    (2, float("inf"), "finite and > 0"),
])
def test_diffusion_refuses_a_bad_dimension_or_coefficient(N, a, message):
    with pytest.raises(SpecError, match=message):
        DiffusionSpec(N, a)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_mc_constant_terminal():
    p = LinearProblem(DiffusionSpec(2, 0.5), None, None,
                      TerminalSpec(lambda X: 5.0 + 0 * X[0]), 0.0, 0.2)
    [(est, ci)] = solve_mc(p, [[0.0, 0.0]], paths=2000, dt=0.01, seed=1)
    assert est == pytest.approx(5.0, abs=1e-12)
    assert ci == pytest.approx(0.0, abs=1e-12)


def test_mc_martingale_linear_payoff():
    # pure diffusion, G(x) = x0: expectation stays at the start point
    p = LinearProblem(DiffusionSpec(1, 0.5), None, None,
                      TerminalSpec(lambda X: X[0]), 0.0, 0.25)
    [(est, ci)] = solve_mc(p, [[0.7]], paths=20000, dt=0.01, seed=3)
    assert abs(est - 0.7) < 3 * ci


def test_mc_determinism():
    p = heat_problem(2)
    a = solve_mc(p, [[0.3, -0.2]], paths=1500, dt=0.02, seed=11)
    b = solve_mc(p, [[0.3, -0.2]], paths=1500, dt=0.02, seed=11)
    assert a == b
    c = solve_mc(p, [[0.3, -0.2]], paths=1500, dt=0.02, seed=12)
    assert a != c


def test_mc_matches_grid():
    p = heat_problem(2)
    g = SpatialGrid(2, 6.0, 121)
    w = solve_grid(p, g, cfl_dt(g, 2, 0.5))
    mid = (121 - 1) // 2
    grid_val = w.values[0, mid, mid]
    [(est, ci)] = solve_mc(p, [[0.0, 0.0]], paths=20000, dt=0.005, seed=7)
    assert abs(est - grid_val) < max(3 * ci, 5e-3)


def _solve_mc_first_form(problem, query_points, paths, dt, seed):
    """solve_mc as first written: 2A = 2a I factored batched, once per path
    and per step, and each path's factor applied to its own increment."""
    pts = np.atleast_2d(np.asarray(query_points, dtype=float))
    N = problem.diffusion.N
    A = problem.diffusion.a * np.eye(N)
    times = time_nodes(problem.t0, problem.T, dt)
    step = times[1] - times[0]
    out = []
    for qi, x0 in enumerate(pts):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=seed, spawn_key=(qi,))))
        X = np.tile(x0, (paths, 1))
        run = np.zeros(paths)
        for t in times[:-1]:
            Xt = X.T
            if problem.source is not None:
                run += step * np.broadcast_to(problem.source.eval(Xt),
                                              (paths,))
            chol = np.linalg.cholesky(
                2.0 * np.tile(A, (paths, 1, 1)))
            dW = rng.standard_normal((paths, N))
            drift = np.zeros((paths, N))
            if problem.drift is not None:
                drift = -problem.drift(t, Xt).T
            X = X + step * drift + np.sqrt(step) * np.einsum(
                "pij,pj->pi", chol, dW)
        payoff = run + np.broadcast_to(problem.terminal.eval(X.T), (paths,))
        ci = 1.96 * float(payoff.std(ddof=1)) / np.sqrt(paths)
        out.append((float(payoff.mean()), ci))
    return out


@pytest.mark.parametrize("A", [DiffusionSpec(2, 0.4), DiffusionSpec(3, 0.35)])
def test_mc_factors_once_and_matches_first_form(A):
    # one factor sqrt(2a) of 2A = 2a I applied to every path gives the
    # per-path Cholesky factors' bits
    N = A.N
    p = LinearProblem(
        A,
        lambda t, X: np.stack(
            [0.3 * np.sin(X[(k + 1) % N]) + 0.1 * t for k in range(N)]),
        TerminalSpec(lambda X: np.cos(X[0]) * X[-1]),
        TerminalSpec(lambda X: np.exp(-sum(x ** 2 for x in X) / 2)
                     + X[0] * X[-1]), 0.0, 0.2)
    pts = [[0.3] * N, [-0.5] + [0.2] * (N - 1)]
    got = solve_mc(p, pts, paths=4000, dt=0.02, seed=5)
    assert got == _solve_mc_first_form(p, pts, 4000, 0.02, 5)


def test_mc_input_validation():
    p = heat_problem(1)
    with pytest.raises(SpecError):
        solve_mc(p, [[0.0]], paths=100, dt=0.01, seed=0)
    with pytest.raises(SpecError):
        solve_mc(p, [[0.0]], paths=2000, dt=1.0, seed=0)


# ---------------------------------------------------------------------------
# Fokker-Planck


def test_fpk_mass_conserved_and_nonnegative():
    g = SpatialGrid(1, 4.0, 161)
    diff = DiffusionSpec(1, 0.5)
    res = solve_fpk_grid(diff, [0.0], eps=4 * g.h, grid=g,
                         dt=cfl_dt(g, 1, 0.5), T=0.3)
    np.testing.assert_allclose(res.mass, 1.0, atol=1e-12)
    assert res.field.values.min() >= 0.0
    assert res.undershoot < 1e-12


def _fpk_first_form(diffusion, y, eps, grid, dt, T):
    """solve_fpk_grid's loop as first written, with slice lists and a
    zero-padded flux; returns (field values, mass, undershoot)."""
    N, h = grid.N, grid.h
    X = grid.meshgrid()
    times = time_nodes(0.0, T, dt)
    step = times[1] - times[0]
    r2 = sum((X[k] - y[k]) ** 2 for k in range(N))
    rho = np.exp(-r2 / (2 * eps ** 2))
    rho /= rho.sum() * h ** N
    vals, mass, undershoot = [rho], [rho.sum() * h ** N], 0.0
    for _ in times[:-1]:
        div = np.zeros_like(rho)
        for ax in range(N):
            lo = [slice(None)] * N
            hi = [slice(None)] * N
            lo[ax] = slice(0, -1)
            hi[ax] = slice(1, None)
            lo, hi = tuple(lo), tuple(hi)
            G = diffusion.a * rho
            flux = (G[hi] - G[lo]) / h
            width = [(0, 0)] * N
            width[ax] = (1, 1)
            flux = np.pad(flux, width)
            div += (flux[hi] - flux[lo]) / h
        rho = rho + step * div
        worst = float(rho.min())
        if worst < 0:
            undershoot = max(undershoot, -worst)
            rho = np.maximum(rho, 0.0)
        vals.append(rho)
        mass.append(rho.sum() * h ** N)
    return np.stack(vals), np.array(mass), undershoot


# N, M, y, step over cfl_step, steps: above cfl_step (let through by a
# patched check) the grid-scale mode grows until a step clips, yet stays
# inside the mass-drift bound; no step at or under cfl_step was found to clip
FPK_CASES = {"1d": (1, 41, [0.1], 1.0, 60),
             "1d-clipping": (1, 81, [0.37], 1.1, 100),
             "2d-clipping": (2, 21, [0.1, 0.1], 1.2, 101)}


@pytest.mark.parametrize("case", ["2d-isotropic", "2d-off-centre",
                                  *FPK_CASES])
def test_fpk_matches_first_form(case, same_bits, monkeypatch):
    g = SpatialGrid(2, 3.0, 31)
    if case == "2d-off-centre":
        diff = DiffusionSpec(2, 0.45)
        y = [0.2, -0.4]
    else:
        diff = DiffusionSpec(2, 0.5)
        y = [0.0, 0.0]
    args = (diff, y, 4 * g.h, g, cfl_dt(g, g.N, 0.5), 0.2)
    if case in FPK_CASES:
        N, M, y, factor, steps = FPK_CASES[case]
        monkeypatch.setattr(pde_linear, "_check_step", lambda *a: None)
        g = SpatialGrid(N, 2.0, M)
        diff = DiffusionSpec(N, 0.5)
        dt = factor * cfl_step(diff, g.h)
        args = (diff, y, 2 * g.h, g, dt, steps * dt)
    res = solve_fpk_grid(*args)
    vals, mass, undershoot = _fpk_first_form(*args)
    assert res.field.values.shape[0] > 10
    assert (undershoot > 0) == case.endswith("clipping")
    assert same_bits(res.field.values, vals)
    assert same_bits(res.mass, mass)
    assert same_bits(np.float64(res.undershoot), np.float64(undershoot))


def test_fpk_oversized_dt_raises():
    g = SpatialGrid(1, 4.0, 81)
    diff = DiffusionSpec(1, 0.5)
    with pytest.raises(CFLError):
        solve_fpk_grid(diff, [0.0], 4 * g.h, g, 10 * cfl_dt(g, 1, 0.5), T=0.1)


def test_fpk_gaussian_spreading():
    # pure diffusion from a Gaussian: variance grows like 2a(t-s)
    g = SpatialGrid(1, 5.0, 201)
    diff = DiffusionSpec(1, 0.5)
    eps = 4 * g.h
    T = 0.5
    res = solve_fpk_grid(diff, [0.0], eps, g, cfl_dt(g, 1, 0.5), T)
    x = g.axis
    var = np.sum(x ** 2 * res.field.values[-1]) * g.h
    assert var == pytest.approx(eps ** 2 + 2 * 0.5 * T, rel=0.02)


def test_fpk_eps_floor():
    g = SpatialGrid(1, 4.0, 81)
    with pytest.raises(SpecError):
        solve_fpk_grid(DiffusionSpec(1, 0.5), [0.0], eps=g.h,
                       grid=g, dt=1e-4, T=0.1)


def test_fpk_gradient_mass_slope():
    # int |D rho(t)| ~ 1/sqrt(t), so the cumulative integral grows like
    # sqrt(t); the window must be long against eps^2 for the mollifier
    # offset to wash out of the fit
    g = SpatialGrid(1, 6.0, 401)
    diff = DiffusionSpec(1, 1.0)
    eps = 4 * g.h
    T = 200 * eps ** 2
    res = solve_fpk_grid(diff, [0.0], eps, g, cfl_dt(g, 1, 1.0), T=T)
    rep = fpk_gradient_mass(res)
    assert 0.4 <= rep.slope <= 0.6
    assert rep.cumulative[-1] > 0
    assert rep.times[-1] == pytest.approx(T)


@pytest.mark.parametrize("N, M, n_times", [(1, 401, 200), (2, 121, 7),
                                           (2, 9, 5), (1, 5, 6)])
def test_fpk_gradient_mass_blocks_match_per_slice(N, M, n_times, same_bits):
    # the flat-stride gradients are taken over blocks of slices into one
    # buffer, the slice count here no multiple of the block (the last two
    # cases fill less than one block); every slice is summed on its own, as
    # np.gradient's was
    rows = holder._BLOCK_BYTES // (8 * M ** N)
    assert n_times % rows
    g = SpatialGrid(N, 6.0, M)
    rng = np.random.default_rng(N)
    vals = rng.uniform(-1.0, 1.0, (n_times,) + g.shape)
    vals[vals > 0.9] = -0.0
    f = Field(g, np.linspace(0.0, 1.0, n_times), vals)
    rep = fpk_gradient_mass(FPKResult(f, np.ones(n_times), 0.0, 0.01))
    want = [max(float(np.sum(np.abs(np.gradient(slc, g.h, axis=ax,
                                                edge_order=1))))
                * g.h ** N for ax in range(N)) for slc in vals]
    assert same_bits(rep.gradient_mass, want)


def test_fpk_gradient_mass_needs_nodes():
    g = SpatialGrid(1, 4.0, 81)
    res = solve_fpk_grid(DiffusionSpec(1, 0.5), [0.0], 4 * g.h, g,
                         cfl_dt(g, 1, 0.5), T=0.02)
    # the fit starts at 10 eps^2 = 1.6, past T
    with pytest.raises(SpecError, match="fewer than 4"):
        fpk_gradient_mass(res)


# ---------------------------------------------------------------------------
# decay verification


def decayed_field(N, M=33, L=2.0, n_times=3):
    # w(t, x) = sum_j beta^j sin(x_j + t): |D_j w| <= beta^j by construction
    g = SpatialGrid(N, L, M)

    def f(t, X):
        return sum(BETA.value(j) * np.sin(X[j] + t) for j in range(N))

    return Field.from_function(g, np.linspace(0, 0.2, n_times), f)


def test_verify_decay_separable_field():
    w = decayed_field(3)
    rep = verify_decay(w, BETA, collar=0.1)
    # each K is bounded by ~1 up to discretization error
    assert rep.K1 < 1.05
    assert rep.K2 < 1.05
    assert rep.K3 < 1.1
    # time derivative of D_j w is beta^j cos, so / sqrt(beta^j) stays small
    assert rep.time_lip_grad <= 1.05
    assert rep.time_lip_hess <= 1.05


def test_verify_decay_flags_slow_decay():
    # a field leaning on the last coordinate violates the weighted bounds
    g = SpatialGrid(3, 2.0, 33)
    w = Field.from_function(g, [0.0, 0.1],
                            lambda t, X: np.sin(3 * X[2]))
    rep = verify_decay(w, BETA, collar=0.1)
    assert rep.K1 > 1.0 / BETA.value(2)


def test_verify_decay_collar_excludes_boundary():
    # boundary-localized wiggle is invisible to the interior sup
    g = SpatialGrid(1, 2.0, 81)
    bump = np.zeros((1, 81))
    bump[0, :3] = [0.0, 1.0, 0.0]
    clean = Field(g, [0.0], np.zeros((1, 81)))
    dirty = Field(g, [0.0], bump)
    r_clean = verify_decay(clean, BETA, collar=0.1, third_order=False)
    r_dirty = verify_decay(dirty, BETA, collar=0.1, third_order=False)
    assert r_dirty.K1 == r_clean.K1 == 0.0


def test_linear_estimate_is_stable_in_the_dimension(covering_step):
    # the a priori constants of build_decay_problem's solution stay put as
    # players are added (K1 0.2896 -> 0.2910 from N = 1 to 4); with the data
    # built at beta = 1 instead, K1 reaches 18.3 at N = 4
    def constants(N):
        p = build_decay_problem(N, BETA, 0.2, 0.3, 0.3, 0.5, 0.2)
        g = SpatialGrid(N, 3.0, 15)
        dt = covering_step(p, g, 0.9 * cfl_step(p.diffusion, g.h))
        rep = verify_decay(solve_grid(p, g, dt), BETA)
        return np.array([rep.K1, rep.K2, rep.K3])

    base = constants(1)
    assert np.all(base > 0)
    for N in (2, 3, 4):
        assert np.all(constants(N) / base <= 1.05)


def _verify_decay_first_form(w, beta, collar, third_order):
    """verify_decay as first written: its own finite_diff chain from w."""
    grid = w.grid
    N = grid.N
    inner = (slice(None),) + grid.interior(collar)

    def wpair(j, k):
        return min(beta.value(j), np.sqrt(beta.value(j) * beta.value(k)))

    grads = [finite_diff(w, (j,)) for j in range(N)]
    K1 = max(float(np.max(np.abs(grads[j].values[inner]))) / beta.value(j)
             for j in range(N))
    hess = {}
    K2 = 0.0
    for j in range(N):
        for k in range(j, N):
            d2 = finite_diff(grads[j], (k,))
            hess[(j, k)] = d2
            sup = float(np.max(np.abs(d2.values[inner])))
            K2 = max(K2, sup / wpair(j, k), sup / wpair(k, j))
    K3 = 0.0
    if third_order:
        for (j, k), d2 in hess.items():
            for l in range(k, N):
                sup = float(np.max(np.abs(finite_diff(d2, (l,)).values[inner])))
                for a, b in ((j, k), (k, j), (j, l), (l, j), (k, l), (l, k)):
                    K3 = max(K3, sup / wpair(a, b))
    lip1 = lip2 = 0.0
    if w.times.size >= 2:
        dts = np.diff(w.times)
        for j in range(N):
            diffs = np.abs(np.diff(grads[j].values, axis=0))[inner]
            sup = float(np.max(diffs.reshape(diffs.shape[0], -1).max(axis=1)
                               / dts))
            lip1 = max(lip1, sup / np.sqrt(beta.value(j)))
        for (j, k), d2 in hess.items():
            diffs = np.abs(np.diff(d2.values, axis=0))[inner]
            sup = float(np.max(diffs.reshape(diffs.shape[0], -1).max(axis=1)
                               / dts))
            lip2 = max(lip2, sup / np.sqrt(beta.value(j)),
                       sup / np.sqrt(beta.value(k)))
    return K1, K2, K3, lip1, lip2, collar


@pytest.mark.parametrize("N, M", [(1, 41), (2, 21), (3, 13)])
def test_verify_decay_on_family_matches_first_form(N, M):
    rng = np.random.default_rng(N)
    c = rng.uniform(0.5, 1.5, (3, N))
    w = Field.from_function(
        SpatialGrid(N, 2.0, M), np.linspace(0.0, 0.2, 4),
        lambda t, X: sum(c[0, j] * np.sin(c[1, j] * X[j] + c[2, j] * t)
                         * BETA.value(j) for j in range(N))
        + X[0] * X[-1] ** 2)
    for third in (False, True):
        rep = verify_decay(w, BETA, collar=0.1, third_order=third)
        first = _verify_decay_first_form(w, BETA, 0.1, third)
        assert dataclasses.astuple(rep) == first
        assert (rep.K3 > 0) == third


@pytest.mark.parametrize("N, M, n_times", [(1, 41, 1), (1, 41, 2), (2, 21, 3),
                                           (3, 13, 4), (3, 13, 5), (1, 41, 9),
                                           (1, 41, 14), (2, 21, 7),
                                           (2, 21, 12), (3, 13, 10)])
def test_verify_decay_matches_full_size_reductions(N, M, n_times):
    # signed random fields on uneven time steps: the interior-view time
    # differences and signed extrema, reduced slice by slice, give the
    # DecayReport of the full-size |x| reductions; one time node and many,
    # the collars crop (0.2 and 0.25 at M = 21 and 41, 0.25 at M = 13) and
    # do not, and a sup |w| past the finiteness bound runs the whole grid
    rng = np.random.default_rng(10 * N + n_times)
    times = np.cumsum(rng.uniform(0.01, 0.1, n_times))
    vals = rng.normal(size=(n_times,) + (M,) * N) - rng.uniform(-2, 2)
    g = SpatialGrid(N, 2.0, M)
    for scale in (1.0, 1e300 / max(4 / g.h, 1.0) ** 2):
        w = Field(g, times, scale * vals)
        for collar, third in ((0.1, False), (0.2, True), (0.0, True),
                              (0.25, False)):
            rep = verify_decay(w, BETA, collar=collar, third_order=third)
            want = _verify_decay_first_form(w, BETA, collar, third)
            assert dataclasses.astuple(rep) == want


def test_verify_decay_time_quotients_bound_every_pair():
    # the time-Lipschitz constants bound the change of D^alpha w between
    # any two time nodes, not only adjacent ones: a sum of adjacent changes
    # is at most the constant times the sum of their steps; np.gradient's
    # central order-1 quotient, an average of two adjacent ones, once broke
    # this on 15 of these 20 fields
    g = SpatialGrid(2, 2.0, 21)
    inner = (slice(None),) + g.interior(0.1)
    alphas = [(0,), (1,), (0, 0), (0, 1), (1, 1)]
    for seed in range(20):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.01, 0.1, 10))
        w = Field(g, times, rng.normal(size=(10,) + g.shape))
        rep = verify_decay(w, BETA, collar=0.1, third_order=False)
        k, l = np.triu_indices(times.size, 1)
        for alpha in alphas:
            lip = rep.time_lip_grad if len(alpha) == 1 else rep.time_lip_hess
            d = finite_diff(w, alpha).values[inner]
            change = np.abs(d[l] - d[k]).reshape(k.size, -1).max(axis=1)
            bound = (lip * np.sqrt(multi_index_weight(BETA, alpha))
                     * (times[l] - times[k]))
            assert np.all(change <= bound * (1 + 1e-12)), (seed, alpha)


def test_verify_decay_rejects_a_non_finite_derivative():
    # the differences of a finite field overflow in the boundary stencils
    # only: the whole-field check catches what the interior sup cannot see
    g = SpatialGrid(2, 2.0, 11)
    sign = (-1.0) ** np.indices(g.shape).sum(axis=0)
    w = Field(g, [0.0, 0.1], np.stack([1e308 * sign] * 2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GridError, match="non-finite"):
            verify_decay(w, BETA, collar=0.2, third_order=False)


def test_verify_decay_of_a_source_near_the_float_range_is_finite():
    # a source near the float range passes every config check and solves
    # to finite values with max |D_0 w| about 9.0e306 and every adjacent
    # time quotient of D_j w at most about 4.9e307; np.gradient's
    # non-uniform formula once overflowed in its coefficient x value
    # products here and raised NonFiniteError on this valid input
    beta = build_weight("polynomial", {"a": 3}, 32)
    problem = build_decay_problem(2, beta, 0.0, 5e307, 0.0, 0.5, 0.2)
    w = solve_grid(problem, SpatialGrid(2, 3.0, 21), 0.01)
    rep = verify_decay(w, beta)
    assert all(type(v) is float and np.isfinite(v)
               for v in dataclasses.astuple(rep))
    assert rep.time_lip_grad > 1e306


def test_verify_decay_rejects_an_overflowing_time_quotient():
    # w = s_k A x on [-1, 1], s_k = +-1, A = 1e306: D_0 w = s_k A and its
    # edge stencils (2 A / h at h = 0.1) are finite, but its quotients
    # 2 A / dt pass the float range at dt = 0.01, and at A / 10 they do not;
    # the order-1 quotient once came back as inf, and its NaN was dropped
    g = SpatialGrid(1, 1.0, 21)
    s = (-1.0) ** np.arange(5)
    w = Field(g, np.linspace(0.0, 0.04, 5), s[:, None] * 1e306 * g.axis[None])
    with pytest.raises(NonFiniteError,
                       match=r"D\^\(0,\) over its weight 1 is non-finite"):
        verify_decay(w, BETA, third_order=False)
    rep = verify_decay(Field(g, w.times, w.values / 10), BETA,
                       third_order=False)
    assert all(type(v) is float for v in dataclasses.astuple(rep))
    assert rep.time_lip_grad > 1e307


@pytest.mark.parametrize("A, overflows", [(1e306, True), (1e305, False)])
def test_verify_decay_checks_the_second_order_quotient(A, overflows):
    # w = s_k A x^2 / 2 on [-0.01, 0.01], s_k = +-1: the order-1 quotients
    # are at most 0.02 A / dt and the order-2 ones 2 A / dt, past the float
    # range at A = 1e306 only; below it every constant is a plain float
    g = SpatialGrid(1, 0.01, 21)
    s = (-1.0) ** np.arange(5)
    w = Field(g, np.linspace(0.0, 0.04, 5),
              s[:, None] * (A / 2) * g.axis[None] ** 2)
    if overflows:
        with pytest.raises(NonFiniteError,
                           match=r"D\^\(0, 0\) over its weight 1 is non-finite"):
            verify_decay(w, BETA, third_order=False)
    else:
        rep = verify_decay(w, BETA, third_order=False)
        assert all(type(v) is float for v in dataclasses.astuple(rep))
        assert rep.time_lip_hess > 1e307


def _crop_streams(w, collar, rows, monkeypatch):
    """(report, streamed block shapes) of each verify_decay order on w, in
    blocks of `rows` cropped slices (None: the default block size)."""
    shapes, out = [], []
    real = holder.derivatives
    monkeypatch.setattr(holder, "derivatives", lambda values, h, m: (
        shapes.append(values.shape) or real(values, h, m)))
    g = int(round(collar * w.grid.M))
    for third in (False, True):
        m = 3 if third else 2
        crop = (w.grid.M - 2 * (g - m),) * w.grid.N
        if rows is not None:
            monkeypatch.setattr(holder, "_BLOCK_BYTES",
                                rows * 8 * math.prod(crop) + 7)
        rep = verify_decay(w, BETA, collar=collar, third_order=third)
        out.append((rep, third, crop, list(shapes)))
        shapes.clear()
    return out


@pytest.mark.parametrize("N, M, collar", [(1, 41, 0.2), (2, 21, 0.25),
                                          (3, 25, 0.2)])
def test_verify_decay_crop_matches_first_form(N, M, collar, monkeypatch):
    # the collar holds at least m = 3 nodes, so the stream runs on the
    # interior plus an m-node halo, yet the report is the whole grid's;
    # it streams each of the 4 time slices once, in blocks of the default
    # size: one block, but blocks of 3 and 1 for the third order at N = 3
    rng = np.random.default_rng(N)
    times = np.cumsum(rng.uniform(0.01, 0.1, 4))
    w = Field(SpatialGrid(N, 2.0, M), times,
              rng.normal(size=(4,) + (M,) * N))
    for rep, third, crop, shapes in _crop_streams(w, collar, None,
                                                  monkeypatch):
        assert dataclasses.astuple(rep) == _verify_decay_first_form(
            w, BETA, collar, third)
        assert {s[1:] for s in shapes} == {crop}
        r = max(1, holder._BLOCK_BYTES // (8 * math.prod(crop)))
        assert [s[0] for s in shapes] == [min(r, 4 - t)
                                          for t in range(0, 4, r)]


@pytest.mark.parametrize("N, M, collar", [(1, 41, 0.2), (2, 21, 0.25),
                                          (3, 25, 0.2)])
@pytest.mark.parametrize("rows, blocks", [(1, [1, 1, 1, 1]), (3, [3, 1])])
def test_verify_decay_in_blocks_matches_first_form(N, M, collar, rows, blocks,
                                                   monkeypatch):
    # blocks of one slice and of three (the last one ragged): each
    # block's first time pair is formed from the carried slice
    rng = np.random.default_rng(N)
    times = np.cumsum(rng.uniform(0.01, 0.1, 4))
    w = Field(SpatialGrid(N, 2.0, M), times,
              rng.normal(size=(4,) + (M,) * N))
    for rep, third, crop, shapes in _crop_streams(w, collar, rows,
                                                  monkeypatch):
        assert dataclasses.astuple(rep) == _verify_decay_first_form(
            w, BETA, collar, third)
        assert shapes == [(b,) + crop for b in blocks]


@pytest.mark.parametrize("outer", [False, True])
def test_verify_decay_rejects_non_finite_despite_the_crop(outer):
    # a collar of 4 >= m = 2 nodes would crop, but sup |w| is too large for
    # the finiteness bound, so the whole grid is differentiated and checked;
    # with outer set the overflowing values lie outside the cropped block
    g = SpatialGrid(2, 2.0, 21)
    sign = (-1.0) ** np.indices(g.shape).sum(axis=0)
    vals = 1e308 * sign
    if outer:
        vals[2:-2, 2:-2] = 0.0
    w = Field(g, [0.0, 0.1], np.stack([vals] * 2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GridError, match="non-finite"):
            verify_decay(w, BETA, collar=0.2, third_order=False)


def test_verify_decay_peak_memory_is_a_few_fields():
    # the stream holds the path of parents (at most three derivatives at
    # order 3) and the derivative being made, never a whole family
    g = SpatialGrid(3, 2.0, 33)
    w = Field.from_function(g, np.linspace(0.0, 0.2, 20),
                            lambda t, X: np.sin(X[0] + t) * X[1] * X[2] ** 2)
    tracemalloc.start()
    try:
        verify_decay(w, BETA, collar=0.1, third_order=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * w.values.nbytes


def test_verify_decay_reads_each_block_edge_once():
    # a field that changes only between slices B - 1 and B: that pair,
    # which slice B forms from the kept interior derivatives of slice
    # B - 1, is the whole signal of both time quotients
    B = 2
    g = SpatialGrid(2, 2.0, 21)
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.uniform(0.01, 0.1, 3 * B))
    vals = np.repeat(rng.normal(size=(1,) + g.shape), 3 * B, axis=0)
    vals[B:] += rng.normal(size=g.shape)
    w = Field(g, times, vals)
    rep = verify_decay(w, BETA, collar=0.1, third_order=False)
    assert rep.time_lip_grad > 0 and rep.time_lip_hess > 0
    assert dataclasses.astuple(rep) == _verify_decay_first_form(
        w, BETA, 0.1, False)


def test_verify_decay_rejects_a_weighted_sup_past_the_float_range():
    # finite derivatives and quotients of fields that lean on a coordinate
    # whose weight is 1e-300: a sup of 1e30 over that weight, and a time
    # quotient of 2e200 (w = +-x_1 at steps of 1e-200) over its square root
    # 1e-150, overflow, which once came back as inf
    beta = build_weight("table", {"values": [1e-300] * 8 + [1.0]
                                  + [1e-300] * 8}, 8)
    g = SpatialGrid(2, 3.0, 21)
    sup = Field.from_function(g, [0.0, 0.1, 0.2],
                              lambda t, X: 1e30 * np.tanh(X[1]))
    with pytest.raises(NonFiniteError, match="weight 1e-300 is non-finite"):
        verify_decay(sup, beta, third_order=False)
    s = np.array([1.0, -1.0, 1.0])
    lip = Field(g, [0.0, 1e-200, 2e-200], s[:, None, None] * g.meshgrid()[1])
    with pytest.raises(NonFiniteError, match="weight 1e-150 is non-finite"):
        verify_decay(lip, beta, third_order=False)


def test_verify_decay_peak_memory_is_independent_of_the_time_count():
    # the stream holds one time slice of each derivative at once, so four
    # times the time nodes leaves the peak where it was
    g = SpatialGrid(3, 2.0, 33)

    def peak(n_times):
        w = Field.from_function(g, np.linspace(0.0, 0.2, n_times),
                                lambda t, X: np.sin(X[0] + t) * X[1] * X[2] ** 2)
        tracemalloc.start()
        try:
            verify_decay(w, BETA, collar=0.1, third_order=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(80) <= 1.1 * peak(20)


@pytest.mark.parametrize("M", [33, 41])
@pytest.mark.parametrize("n_times", [20, 80])
def test_verify_decay_peak_memory_is_a_few_slices(M, n_times):
    # one slice's path of parents (at most four arrays at order 3) plus the
    # nine kept interior slices of the |alpha| <= 2 derivatives at N = 3
    # (0.55 slices each at collar 0.1; M = 41 streams a crop): about 8.2
    # slices, where blocks of two slices with a time-quotient buffer peaked
    # at 12.8 (M = 33) and 13.3 (M = 41)
    g = SpatialGrid(3, 2.0, M)
    w = Field.from_function(g, np.linspace(0.0, 0.2, n_times),
                            lambda t, X: np.sin(X[0] + t) * X[1] * X[2] ** 2)
    tracemalloc.start()
    try:
        verify_decay(w, BETA, collar=0.1, third_order=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * w.values[0].nbytes
