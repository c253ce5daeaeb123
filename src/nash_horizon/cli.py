"""Batch experiment runner.

Every workflow is a subcommand driven by one self-describing JSON config:

    nash-horizon <subcommand> --config FILE [--out DIR] [--seed-override N]

Each run writes summary.json (resolved config, content hash, results, pass
flag) plus CSV tables.  Exit codes: 0 all asserted tolerances pass, 1
numerical or tolerance failure, 2 invalid config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .holder import Field, SpatialGrid, derivative_family, save_field
from .nash import (
    dimension_stability,
    horizon_scan,
    lq_game,
    picard_solve,
    residual,
    uniqueness_probe,
)
from .oracle_lq import (
    decay_lq_game,
    lq_value,
    riccati_integrate,
    trajectory_to_csv,
)
from .pde_linear import (
    DiffusionSpec,
    build_decay_problem,
    fpk_gradient_mass,
    solve_fpk_grid,
    solve_grid,
    stable_step,
    verify_decay,
)
from .weights import build_weight, certify_csc, self_convolve

class ConfigError(ValueError):
    pass


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _need(cfg: dict, key: str, typ) -> object:
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    v = cfg[key]
    if typ is float and isinstance(v, int):
        v = float(v)
    if not isinstance(v, typ):
        raise ConfigError(f"config key {key!r} must be {typ}")
    return v


def _weight_from(cfg: dict):
    blk = _need(cfg, "weights", dict)
    return build_weight(_need(blk, "kind", str), _need(blk, "params", dict),
                        int(_need(blk, "W", int)))


def _grid_from(cfg: dict, N: int) -> SpatialGrid:
    blk = _need(cfg, "grid", dict)
    return SpatialGrid(N, float(_need(blk, "L", (int, float))),
                       int(_need(blk, "M", int)))


def _game_from(cfg: dict, beta, T=None, N=None):
    blk = _need(cfg, "game", dict)
    N = int(_need(blk, "N", int)) if N is None else N
    T = float(_need(blk, "T", (int, float))) if T is None else T
    spec = decay_lq_game(N, beta, float(_need(blk, "c_Q", (int, float))),
                         float(_need(blk, "c_G", (int, float))),
                         float(_need(blk, "sigma", (int, float))), T)
    grid = _grid_from(cfg, N)
    kind = blk.get("hamiltonian", "lq")
    if kind not in ("lq", "saturated"):
        raise ConfigError(f"unknown hamiltonian {kind!r}: use 'lq' or "
                          "'saturated'")
    kappa = None
    if kind == "saturated":
        kappa = float(_need(blk, "kappa", (int, float)))
        if not kappa > 0:
            raise ConfigError("the saturated hamiltonian needs kappa > 0")
    game = lq_game(spec, beta, grid, float(_need(cfg, "dt", (int, float))),
                   kind=kind, kappa=kappa)
    return game, spec


# ---------------------------------------------------------------------------
# subcommand handlers: return (results dict, passed bool, extra csv writers)


def _run_certify_weights(cfg, out, seed):
    beta = _weight_from(cfg)
    cert = certify_csc(beta)
    conv = self_convolve(beta)
    _write_csv(out / "ratios.csv", ("offset", "beta", "selfconv", "ratio"),
               zip(range(beta.W + 1), beta.values[beta.W:],
                   conv[beta.W:], cert.ratios))
    tol = cfg.get("tolerances", {})
    passed = cert.certified == tol.get("certified", True)
    if "max_c" in tol and cert.c > tol["max_c"]:
        passed = False
    doc = {"c": cert.c, "W": cert.W, "certified": cert.certified,
           "edge_contaminated": cert.edge_contaminated,
           "lower_bound": cert.lower_bound}
    return {"certificate": doc}, passed


def _run_solve(cfg, out, seed):
    beta = _weight_from(cfg)
    game, _ = _game_from(cfg, beta)
    tol = cfg.get("tolerances", {})
    sol, rep = picard_solve(game, tol=float(tol.get("picard_tol", 1e-6)),
                            max_iter=int(cfg.get("max_iter", 30)),
                            iterate_norm=True)
    _write_csv(out / "picard.csv", ("iteration", "increment"),
               list(enumerate(rep.increments, start=1)))
    results = {"picard": rep.to_dict()}
    passed = rep.converged
    if sol is not None:
        for i, f in enumerate(sol):
            save_field(f, out / f"u{i}.bin")
        fams = [derivative_family(f, 2) for f in sol]
        res = residual(game, fams)
        results["residual_sup"] = [r[0] for r in res]
        results["decay"] = [verify_decay(fam, game.player_weight(i),
                                         third_order=False).values()
                            for i, fam in enumerate(fams)]
        if "residual_max" in tol:
            passed &= max(r[0] for r in res) <= tol["residual_max"]
    return results, passed


def _run_scan_horizon(cfg, out, seed):
    beta = _weight_from(cfg)
    T_list = [float(t) for t in _need(cfg, "T_list", list)]
    scan = horizon_scan(lambda T: _game_from(cfg, beta, T=T)[0], T_list,
                        n_pairs=int(cfg.get("n_pairs", 3)), seed=seed,
                        tol=float(cfg.get("tolerances", {}).get("picard_tol", 1e-6)),
                        max_iter=int(cfg.get("max_iter", 30)))
    npairs = len(scan.rows[0].ratios)
    _write_csv(out / "scan.csv",
               ("T", "max_ratio", "converged") +
               tuple(f"ratio_{k}" for k in range(npairs)),
               scan.to_csv_rows())
    tol = cfg.get("tolerances", {})
    passed = True
    if tol.get("contract_at_smallest", True):
        passed &= scan.rows[0].max_ratio < 1 and scan.rows[0].converged
    if "spearman_min" in tol:
        passed &= scan.spearman > tol["spearman_min"]
    # a scan whose max ratios all tie has no rank correlation (NaN), which
    # strict JSON cannot hold: it is written as null
    spearman = scan.spearman if np.isfinite(scan.spearman) else None
    results = {"spearman": spearman, "T_star_low": scan.T_star_low,
               "T_fail": scan.T_fail,
               "rows": [{"T": r.T, "max_ratio": r.max_ratio,
                         "converged": r.converged} for r in scan.rows]}
    return results, passed


def _run_verify_decay(cfg, out, seed):
    beta = _weight_from(cfg)
    blk = _need(cfg, "problem", dict)
    N = int(_need(blk, "N", int))
    problem = build_decay_problem(
        N, beta, float(blk.get("c_B", 0.0)), float(blk.get("c_F", 0.0)),
        float(blk.get("c_G", 0.0)), float(_need(blk, "a", (int, float))),
        float(_need(blk, "T", (int, float))))
    grid = _grid_from(cfg, N)
    if problem.drift is not None and not problem.drift.probe_decay(
            N, grid.L, seed=seed):
        raise RuntimeError("drift decay probe failed")
    w = solve_grid(problem, grid, float(_need(cfg, "dt", (int, float))))
    rep = verify_decay(derivative_family(w, 2), beta,
                       collar=float(cfg.get("collar", 0.1)))
    _write_csv(out / "decay.csv", ("constant", "value"),
               sorted(rep.values().items()))
    tol = cfg.get("tolerances", {})
    passed = all(np.isfinite(v) for v in rep.values().values())
    if "K2_max" in tol:
        passed &= rep.K2 <= tol["K2_max"]
    return {"decay": rep.values()}, passed


def _run_fpk_diagnostic(cfg, out, seed):
    blk = _need(cfg, "fpk", dict)
    N = int(blk.get("N", 1))
    grid = _grid_from(cfg, N)
    a = float(_need(blk, "a", (int, float)))
    diff = DiffusionSpec.isotropic(N, a)
    eps = float(blk.get("eps_factor", 4)) * grid.h
    T = float(_need(blk, "T", (int, float)))
    dt = float(cfg["dt"]) if "dt" in cfg else stable_step(
        diff, grid.meshgrid(), grid.h, (0.0, T / 2, T), np.inf, margin=0.9)
    res = solve_fpk_grid(diff, None, blk.get("y", [0.0] * N), eps, grid, dt, T)
    rep = fpk_gradient_mass(res)
    _write_csv(out / "gradient_mass.csv", ("elapsed", "gradient_mass",
                                           "cumulative"), rep.to_csv_rows())
    tol = cfg.get("tolerances", {})
    lo, hi = tol.get("slope_range", [0.4, 0.6])
    passed = lo <= rep.slope <= hi and res.undershoot <= 1e-12
    return {"slope": rep.slope, "C": rep.C, "mass_error":
            float(np.max(np.abs(res.mass - 1.0))),
            "undershoot": res.undershoot}, passed


def _run_oracle_compare(cfg, out, seed):
    beta = _weight_from(cfg)
    game, spec = _game_from(cfg, beta)
    tol = cfg.get("tolerances", {})
    sol, rep = picard_solve(game, tol=float(tol.get("picard_tol", 1e-6)),
                            max_iter=int(cfg.get("max_iter", 30)))
    if sol is None:
        raise RuntimeError("Picard iteration did not converge")
    traj = riccati_integrate(spec, spec.T / 200)
    (out / "riccati.csv").write_text(trajectory_to_csv(traj))
    X = game.grid.meshgrid()
    inner = game.grid.interior(float(cfg.get("collar", 0.1)))
    rows = []
    for i in range(game.N):
        exact = np.stack([lq_value(traj, i, t, X)[0] for t in game.times])
        err = float(np.max(np.abs(sol[i].values - exact)
                           [(slice(None),) + inner]))
        rows.append((i, err))
    _write_csv(out / "oracle_compare.csv", ("player", "max_abs_err"), rows)
    worst = max(e for _, e in rows)
    passed = rep.converged
    if "max_err" in tol:
        passed &= worst <= tol["max_err"]
    if "max_iterations" in tol:
        passed &= rep.iterations <= tol["max_iterations"]
    return {"max_err": worst, "iterations": rep.iterations,
            "final_increment": rep.increments[-1]}, passed


def _run_stability(cfg, out, seed):
    beta = _weight_from(cfg)
    N_list = [int(n) for n in _need(cfg, "N_list", list)]
    tol = cfg.get("tolerances", {})
    rep = dimension_stability(
        lambda N: _game_from(cfg, beta, N=N)[0], N_list,
        tol=float(tol.get("picard_tol", 1e-6)),
        max_iter=int(cfg.get("max_iter", 30)))
    _write_csv(out / "stability.csv", ("N_small", "N_large", "diff", "tail"),
               rep.to_csv_rows())
    diffs = [r.diff for r in rep.rows]
    passed = all(b <= a for a, b in zip(diffs, diffs[1:]))
    if "C_max" in tol:
        passed &= rep.fitted_C <= tol["C_max"]
    return {"fitted_C": rep.fitted_C,
            "rows": [(r.N_small, r.N_large, r.diff, r.tail)
                     for r in rep.rows]}, passed


def _run_uniqueness(cfg, out, seed):
    beta = _weight_from(cfg)
    game, _ = _game_from(cfg, beta)
    tol = cfg.get("tolerances", {})
    ptol = float(tol.get("picard_tol", 1e-6))
    u0_b = [Field(game.grid, game.times,
                  np.broadcast_to(game.terminal_field(i),
                                  (game.times.size,) + game.grid.shape).copy(),
                  player=i) for i in range(game.N)]
    d = uniqueness_probe(game, None, u0_b, tol=ptol,
                         max_iter=int(cfg.get("max_iter", 30)))
    factor = float(tol.get("factor", 10.0))
    passed = d <= factor * ptol
    _write_csv(out / "uniqueness.csv", ("sup_difference", "picard_tol"),
               [(d, ptol)])
    return {"sup_difference": d, "picard_tol": ptol, "factor": factor}, passed


_HANDLERS = {
    "certify-weights": _run_certify_weights,
    "solve": _run_solve,
    "scan-horizon": _run_scan_horizon,
    "verify-decay": _run_verify_decay,
    "fpk-diagnostic": _run_fpk_diagnostic,
    "oracle-compare": _run_oracle_compare,
    "stability": _run_stability,
    "uniqueness": _run_uniqueness,
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nash-horizon",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed-override", type=int, default=None)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        seed = int(cfg.get("seed", 0))
        if args.seed_override is not None:
            seed = args.seed_override
            cfg["seed"] = seed
        out = Path(args.out if args.out is not None
                   else cfg.get("output_dir", "out"))
    except (ConfigError, json.JSONDecodeError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    out.mkdir(parents=True, exist_ok=True)
    resolved = dict(cfg)
    resolved["seed"] = seed
    digest = hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode()).hexdigest()
    try:
        results, passed = _HANDLERS[args.command](cfg, out, seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        diag = {"command": args.command, "config": resolved,
                "config_sha256": digest, "error": f"{type(e).__name__}: {e}",
                "passed": False}
        (out / "summary.json").write_text(json.dumps(diag, indent=2,
                                                     default=str))
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1
    summary = {"command": args.command, "config": resolved,
               "config_sha256": digest, "results": results,
               "passed": bool(passed)}
    (out / "summary.json").write_text(json.dumps(summary, indent=2,
                                                 default=str))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
