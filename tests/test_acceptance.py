"""Acceptance suite: one test per headline property, each printing a single
PASS/FAIL line with the measured numbers.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import json

import numpy as np

from nash_horizon.cli import main as cli_main
from nash_horizon.holder import Field, SpatialGrid
from nash_horizon.nash import (
    GameSpec,
    dimension_stability,
    horizon_scan,
    picard_solve,
    uniqueness_probe,
)
from nash_horizon.oracle_lq import decay_lq_game, lq_value, riccati_integrate
from nash_horizon.pde_linear import (
    DiffusionSpec,
    LinearProblem,
    TerminalSpec,
    build_decay_problem,
    fpk_gradient_mass,
    solve_fpk_grid,
    solve_grid,
    solve_mc,
    verify_decay,
)
from nash_horizon.weights import build_weight, certify_csc

BETA32 = build_weight("polynomial", {"a": 3}, 32)


def report(n, label, ok, detail):
    line = f"ACCEPTANCE {n:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def heat_problem(T=0.25, a=0.5):
    return LinearProblem(
        DiffusionSpec.isotropic(2, a), None, None,
        TerminalSpec(lambda X: np.exp(-sum(x ** 2 for x in X) / 2)), 0.0, T)


def gaussian_exact(X, T, a=0.5):
    v = 1.0 + 2 * a * T
    return v ** (-X.shape[0] / 2) * np.exp(-sum(x ** 2 for x in X) / (2 * v))


def test_01_weight_certification():
    poly = certify_csc(build_weight("polynomial", {"a": 3}, 64))
    geo_vals = (0.5 ** np.abs(np.arange(-64, 65))).tolist()
    geo = certify_csc(build_weight("table", {"values": geo_vals}, 64))
    ok = (poly.certified and not poly.edge_contaminated
          and not geo.certified and geo.edge_contaminated)
    report(1, "weight certification", ok,
           f"poly c={poly.c:.3f} certified={poly.certified} "
           f"edge={poly.edge_contaminated}; geometric "
           f"certified={geo.certified} edge={geo.edge_contaminated}")


def test_02_heat_kernel_oracle():
    errs = []
    for M in (101, 201):
        g = SpatialGrid(2, 6.0, M)
        p = heat_problem()
        w = solve_grid(p, g, 0.9 * g.h ** 2 / (2 * 2 * 0.5))
        errs.append(float(np.max(np.abs(
            w.values[0] - gaussian_exact(g.meshgrid(), p.T)))))
    order = float(np.log2(errs[0] / errs[1]))
    ok = errs[1] < 5e-3 and order >= 1.8
    report(2, "heat-kernel oracle", ok,
           f"sup err={errs[1]:.2e} < 5e-3, observed order={order:.2f} >= 1.8")


def test_03_fpk_gradient_mass_law():
    g = SpatialGrid(1, 6.0, 401)
    eps = 4 * g.h
    T = 200 * eps ** 2
    res = solve_fpk_grid(DiffusionSpec.isotropic(1, 1.0), [0.0], eps, g,
                         0.9 * g.h ** 2 / 2, T=T)
    rep = fpk_gradient_mass(res)  # fit window starts at 10 eps^2
    ok = 0.4 <= rep.slope <= 0.6
    report(3, "FPK gradient-mass law", ok,
           f"log-log slope={rep.slope:.3f} in [0.4, 0.6], C={rep.C:.3f}")


def test_04_linear_decay_estimate(covering_step):
    def solve(M, T, c_G):
        g = SpatialGrid(3, 3.0, M)
        p = build_decay_problem(3, BETA32, c_B=0.2, c_F=0.3, c_G=c_G,
                                a=0.5, T=T)
        dt = covering_step(p, g, 0.9 * g.h ** 2 / (2 * 3 * 0.5))
        w = solve_grid(p, g, dt)
        return verify_decay(w, BETA32, collar=0.1)

    coarse = solve(25, 0.2, 0.3)
    fine = solve(49, 0.2, 0.3)
    d1 = abs(fine.K1 - coarse.K1) / coarse.K1
    d2 = abs(fine.K2 - coarse.K2) / coarse.K2
    ks = [solve(25, T, 0.0).K1 for T in (0.4, 0.2, 0.1, 0.05)]
    monotone = all(a > b for a, b in zip(ks, ks[1:]))
    ok = (np.isfinite(fine.K1) and np.isfinite(fine.K2)
          and d1 < 0.10 and d2 < 0.10 and monotone)
    report(4, "linear decay estimate", ok,
           f"K1={fine.K1:.3f} K2={fine.K2:.3f}, refinement deltas "
           f"{d1:.1%}/{d2:.1%} < 10%, K1 over shrinking T "
           f"{['%.4f' % k for k in ks]} monotone={monotone}")


def test_05_lq_oracle_agreement():
    spec = decay_lq_game(2, BETA32, c_Q=0.1, c_G=0.2, sigma=0.25, T=0.2)
    game = GameSpec(spec, BETA32, SpatialGrid(2, 4.0, 101), 0.01)
    sol, rep = picard_solve(game, tol=1e-6, max_iter=12)
    converged = sol is not None and rep.converged
    err = np.inf
    if converged:
        traj = riccati_integrate(spec, spec.T / 400)
        X = game.grid.meshgrid()
        inner = (slice(None),) + game.grid.interior(0.1)
        err = max(
            float(np.max(np.abs(sol[i].values - np.stack(
                [lq_value(traj, i, t, X) for t in game.times]))[inner]))
            for i in range(2))
    ok = (converged and rep.iterations <= 12
          and rep.increments[-1] < 1e-6 and err < 1e-2)
    last = rep.increments[-1] if rep.increments else np.nan
    report(5, "LQ oracle agreement", ok,
           f"interior sup err={err:.2e} < 1e-2, iterations="
           f"{rep.iterations} <= 12, final increment={last:.2e} < 1e-6")


def test_06_contraction_scan():
    def make(T):
        spec = decay_lq_game(2, BETA32, c_Q=0.01, c_G=0.01, sigma=0.25, T=T)
        return GameSpec(spec, BETA32, SpatialGrid(2, 3.0, 31), 0.02)

    scan = horizon_scan(make, [0.05, 0.1, 0.2], n_pairs=3, seed=0,
                        tol=1e-5, max_iter=20)
    small = scan.rows[0]
    ok = all(r < 1.0 for r in small.ratios) and scan.spearman > 0
    report(6, "contraction scan", ok,
           f"ratios at T={small.T} -> "
           f"{['%.3f' % r for r in small.ratios]} all < 1, "
           f"Spearman={scan.spearman:.2f} > 0")


def test_07_uniqueness():
    spec = decay_lq_game(2, BETA32, c_Q=0.1, c_G=0.2, sigma=0.25, T=0.2)
    game = GameSpec(spec, BETA32, SpatialGrid(2, 3.0, 41), 0.02)
    tol = 1e-6
    X = game.grid.meshgrid()
    u0_b = [Field(game.grid, game.times,
                  np.broadcast_to(TerminalSpec(g).eval(X),
                                  (game.times.size,) + game.grid.shape).copy())
            for g in game.terminals]
    d = uniqueness_probe(game, None, u0_b, tol=tol, max_iter=25)
    ok = d <= 10 * tol
    report(7, "uniqueness", ok,
           f"sup difference of fixed points={d:.2e} <= 10*tol={10 * tol:.0e}")


def test_08_dimension_stability():
    def make(N):
        spec = decay_lq_game(N, BETA32, c_Q=0.05, c_G=0.1, sigma=0.25, T=0.1)
        return GameSpec(spec, BETA32, SpatialGrid(N, 2.0, 21), 0.01)

    rep = dimension_stability(make, [2, 3, 4], tol=1e-6, max_iter=20)
    diffs = [r.diff for r in rep.rows]
    decreasing = all(a > b for a, b in zip(diffs, diffs[1:]))
    bounded = all(r.diff <= rep.fitted_C * r.tail * (1 + 1e-12)
                  for r in rep.rows)
    ok = decreasing and bounded and rep.fitted_C > 0
    report(8, "dimension stability", ok,
           f"pairwise diffs {['%.2e' % d for d in diffs]} decreasing, "
           f"fitted C={rep.fitted_C:.2e}, tails "
           f"{['%.3f' % r.tail for r in rep.rows]}")


def test_09_cross_backend():
    p = heat_problem()
    g = SpatialGrid(2, 6.0, 201)
    w = solve_grid(p, g, 0.9 * g.h ** 2 / (2 * 2 * 0.5))
    # query points chosen on grid nodes (h = 0.06)
    pts = [[0.0, 0.0], [0.48, -0.3], [0.9, 0.9], [-0.78, 0.18], [0.3, 0.9]]
    res = solve_mc(p, pts, paths=10_000, dt=0.005, seed=42)
    gaps, bounds = [], []
    for x, (est, ci) in zip(pts, res):
        idx = tuple(int(round((xi + g.L) / g.h)) for xi in x)
        gaps.append(abs(est - float(w.values[(0,) + idx])))
        bounds.append(max(3 * ci, 5e-3))
    ok = all(gp < b for gp, b in zip(gaps, bounds))
    report(9, "cross-backend agreement", ok,
           f"|MC - grid| {['%.1e' % gp for gp in gaps]} within "
           f"max(3 CI, 5e-3) {['%.1e' % b for b in bounds]}")


def test_10_determinism(tmp_path):
    cfg = {
        "weights": {"kind": "polynomial", "params": {"a": 3}, "W": 64},
        "grid": {"L": 3.0, "M": 31},
        "game": {"N": 2, "c_Q": 0.01, "c_G": 0.01, "sigma": 0.25, "T": 0.2},
        "dt": 0.02,
        "seed": 0,
        "T_list": [0.05, 0.1],
        "tolerances": {"picard_tol": 1e-5},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for k in range(2):
        out = tmp_path / f"out{k}"
        code = cli_main(["scan-horizon", "--config", str(path),
                         "--out", str(out)])
        assert code == 0
        blobs.append((out / "scan.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    report(10, "determinism", ok,
           f"scan.csv byte-identical across two runs: {len(blobs[0])} bytes")
