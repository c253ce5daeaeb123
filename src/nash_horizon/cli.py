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

from .holder import Field, GridError, SpatialGrid, save_field
from .nash import (
    dimension_stability,
    horizon_scan,
    lq_game,
    picard_solve,
    residual,
    uniqueness_probe,
)
from .oracle_lq import decay_lq_game, lq_value, riccati_integrate
from .pde_linear import (
    MAX_FPK_DIM,
    MAX_GRID_DIM,
    DiffusionSpec,
    TerminalSpec,
    build_decay_problem,
    cfl_step,
    fpk_gradient_mass,
    solve_fpk_grid,
    solve_grid,
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


def _need(cfg: dict, key: str, typ, *default) -> object:
    """cfg[key] of type typ (an int passes as a float, a boolean passes only
    as a bool), else the default."""
    if key not in cfg:
        if default:
            return default[0]
        raise ConfigError(f"missing config key {key!r}")
    v = cfg[key]
    if typ is float and isinstance(v, int) and not isinstance(v, bool):
        v = float(v)
    # bool is a subclass of int: a JSON true is not a number
    if not isinstance(v, typ) or (isinstance(v, bool) and typ is not bool):
        raise ConfigError(f"config key {key!r} must be {typ}")
    return v


def _need_list(cfg: dict, key: str, typ, n=None, *default) -> list:
    """cfg[key]: a list of typ values (see _need), n of them if n is given."""
    items = _need(cfg, key, list, *default)
    if n is not None and len(items) != n:
        raise ConfigError(f"config key {key!r} must list {n} values")
    return [_need({key: v}, key, typ) for v in items]


def _positive(cfg: dict, key: str, typ, *default) -> object:
    """_need(cfg, key, typ, *default), refused unless it is > 0."""
    v = _need(cfg, key, typ, *default)
    if not v > 0:
        raise ConfigError(f"config key {key!r} must be > 0")
    return v


def _bound(tol: dict, key: str, *default) -> float | None:
    """tol[key] as a float (else the default, else None), an upper bound on
    a result that is >= 0: refused if it is negative or NaN, as no result
    could pass it."""
    if key not in tol and not default:
        return None
    v = _need(tol, key, float, *default)
    if not v >= 0:
        raise ConfigError(f"tolerance {key!r} must be >= 0")
    return v


def _dimension(cfg: dict, key: str, limit: int, *default) -> int:
    """_positive(cfg, key, int, *default), refused above limit."""
    N = _positive(cfg, key, int, *default)
    if N > limit:
        raise ConfigError(f"config key {key!r} must be <= {limit}")
    return N


def _tolerances(cfg: dict, *keys) -> dict:
    """cfg's tolerances block (default {}), refused if it names a key other
    than keys, the ones the subcommand reads: a misspelled tolerance would
    otherwise go unchecked."""
    tol = _need(cfg, "tolerances", dict, {})
    unknown = sorted(set(tol) - set(keys))
    if unknown:
        raise ConfigError(f"unknown tolerances {unknown}; this subcommand "
                          f"reads {sorted(keys)}")
    return tol


def _ascending(cfg: dict, key: str, typ) -> list:
    """_need_list(cfg, key, typ), refused unless non-empty, ascending and
    positive (a horizon T > 0, a player count N >= 1)."""
    items = _need_list(cfg, key, typ)
    if not items or any(b <= a for a, b in zip(items, items[1:])):
        raise ConfigError(f"config key {key!r} must list ascending values")
    if not items[0] > 0:
        raise ConfigError(f"config key {key!r} must list values > 0")
    return items


def _weight_from(cfg: dict):
    blk = _need(cfg, "weights", dict)
    try:
        return build_weight(_need(blk, "kind", str),
                            _need(blk, "params", dict), _need(blk, "W", int))
    except (KeyError, TypeError, ValueError) as e:
        # a WeightError, or a missing or non-numeric parameter
        raise ConfigError(f"invalid weights: {e}") from e


def _grid_from(cfg: dict, N: int) -> SpatialGrid:
    blk = _need(cfg, "grid", dict)
    try:
        return SpatialGrid(N, _need(blk, "L", float), _need(blk, "M", int))
    except GridError as e:
        raise ConfigError(f"invalid grid: {e}") from e


def _collar_for(cfg: dict, grid: SpatialGrid) -> float:
    """cfg's collar (default 0.1), refused unless grid.interior takes it."""
    collar = _need(cfg, "collar", float, 0.1)
    try:
        grid.interior(collar)
    except GridError as e:
        raise ConfigError(f"invalid collar: {e}") from e
    return collar


def _game_from(cfg: dict, beta, T=None, N=None):
    blk = _need(cfg, "game", dict)
    N = _dimension(blk, "N", MAX_GRID_DIM) if N is None else N
    T = _positive(blk, "T", float) if T is None else T
    spec = decay_lq_game(N, beta, _need(blk, "c_Q", float),
                         _need(blk, "c_G", float), _positive(blk, "sigma", float),
                         T)
    grid = _grid_from(cfg, N)
    kind = blk.get("hamiltonian", "lq")
    if kind not in ("lq", "saturated"):
        raise ConfigError(f"unknown hamiltonian {kind!r}: use 'lq' or "
                          "'saturated'")
    kappa = None
    if kind == "saturated":
        kappa = _positive(blk, "kappa", float)
    game = lq_game(spec, beta, grid, _positive(cfg, "dt", float), kappa=kappa)
    return game, spec


# ---------------------------------------------------------------------------
# subcommand handlers: return (results dict, passed bool, extra csv writers)


def _run_certify_weights(cfg, out, seed):
    beta = _weight_from(cfg)
    tol = _tolerances(cfg, "certified", "max_c")
    want = _need(tol, "certified", bool, True)
    max_c = _bound(tol, "max_c")
    cert = certify_csc(beta)
    conv = self_convolve(beta)
    _write_csv(out / "ratios.csv", ("offset", "beta", "selfconv", "ratio"),
               zip(range(beta.W + 1), beta.values[beta.W:],
                   conv[beta.W:], cert.ratios))
    passed = cert.certified == want
    if max_c is not None and cert.c > max_c:
        passed = False
    doc = {"c": cert.c, "W": cert.W, "certified": cert.certified,
           "edge_contaminated": cert.edge_contaminated,
           "lower_bound": cert.lower_bound}
    return {"certificate": doc}, passed


def _run_solve(cfg, out, seed):
    beta = _weight_from(cfg)
    game, _ = _game_from(cfg, beta)
    tol = _tolerances(cfg, "picard_tol", "residual_max")
    residual_max = _bound(tol, "residual_max")
    sol, rep = picard_solve(game,
                            tol=_positive(tol, "picard_tol", float, 1e-6),
                            max_iter=_positive(cfg, "max_iter", int, 30),
                            iterate_norm=True)
    _write_csv(out / "picard.csv", ("iteration", "increment"),
               list(enumerate(rep.increments, start=1)))
    results = {"picard": rep.to_dict()}
    passed = rep.converged
    if sol is not None:
        for i, f in enumerate(sol):
            save_field(f, out / f"u{i}.bin")
        res = residual(game, sol)
        results["residual_sup"] = res
        results["decay"] = [verify_decay(f, game.player_weight(i),
                                         third_order=False).values()
                            for i, f in enumerate(sol)]
        if residual_max is not None:
            passed &= max(res) <= residual_max
    return results, passed


def _run_scan_horizon(cfg, out, seed):
    beta = _weight_from(cfg)
    T_list = _ascending(cfg, "T_list", float)
    n_pairs = _positive(cfg, "n_pairs", int, 3)
    tol = _tolerances(cfg, "picard_tol", "contract_at_smallest",
                      "spearman_min")
    contract = _need(tol, "contract_at_smallest", bool, True)
    scan = horizon_scan(lambda T: _game_from(cfg, beta, T=T)[0], T_list,
                        n_pairs=n_pairs, seed=seed,
                        tol=_positive(tol, "picard_tol", float, 1e-6),
                        max_iter=_positive(cfg, "max_iter", int, 30))
    _write_csv(out / "scan.csv",
               ("T", "max_ratio", "converged") +
               tuple(f"ratio_{k}" for k in range(n_pairs)),
               scan.to_csv_rows())
    passed = True
    if contract:
        passed &= scan.rows[0].max_ratio < 1 and scan.rows[0].converged
    if "spearman_min" in tol:
        passed &= scan.spearman > _need(tol, "spearman_min", float)
    # strict JSON holds neither the rank correlation of a scan whose max
    # ratios all tie (NaN) nor a refused probe's ratio (inf): both are null
    def finite(x):
        return x if np.isfinite(x) else None

    results = {"spearman": finite(scan.spearman), "T_star_low": scan.T_star_low,
               "T_fail": scan.T_fail,
               "rows": [{"T": r.T, "max_ratio": finite(r.max_ratio),
                         "converged": r.converged} for r in scan.rows]}
    return results, passed


def _run_verify_decay(cfg, out, seed):
    beta = _weight_from(cfg)
    blk = _need(cfg, "problem", dict)
    N = _dimension(blk, "N", MAX_GRID_DIM)
    problem = build_decay_problem(
        N, beta, _need(blk, "c_B", float, 0.0), _need(blk, "c_F", float, 0.0),
        _need(blk, "c_G", float, 0.0), _positive(blk, "a", float),
        _positive(blk, "T", float))
    grid = _grid_from(cfg, N)
    collar = _collar_for(cfg, grid)
    K2_max = _bound(_tolerances(cfg, "K2_max"), "K2_max")
    w = solve_grid(problem, grid, _positive(cfg, "dt", float))
    rep = verify_decay(w, beta, collar=collar)
    _write_csv(out / "decay.csv", ("constant", "value"),
               sorted(rep.values().items()))
    passed = all(np.isfinite(v) for v in rep.values().values())
    if K2_max is not None:
        passed &= rep.K2 <= K2_max
    return {"decay": rep.values()}, passed


def _run_fpk_diagnostic(cfg, out, seed):
    blk = _need(cfg, "fpk", dict)
    N = _dimension(blk, "N", MAX_FPK_DIM, 1)
    grid = _grid_from(cfg, N)
    diff = DiffusionSpec.isotropic(N, _positive(blk, "a", float))
    # e >= 2 gives fl(e h) >= 2h, so solve_fpk_grid's eps >= 2h test passes
    eps_factor = _need(blk, "eps_factor", float, 4.0)
    if not eps_factor >= 2:
        raise ConfigError("config key 'eps_factor' must be >= 2 (eps >= 2h)")
    eps = eps_factor * grid.h
    T = _positive(blk, "T", float)
    y = _need_list(blk, "y", float, N, [0.0] * N)
    if not all(abs(c) <= grid.L for c in y):
        raise ConfigError("config key 'y' must lie in the grid [-L, L]^N")
    tol = _tolerances(cfg, "slope_range")
    lo, hi = _need_list(tol, "slope_range", float, 2, [0.4, 0.6])
    if not (np.all(np.isfinite([lo, hi])) and lo <= hi):
        raise ConfigError("config key 'slope_range' must be finite [lo, hi] "
                          "with lo <= hi")
    dt = _positive(cfg, "dt", float, 0.9 * cfl_step(diff, grid.h))
    res = solve_fpk_grid(diff, y, eps, grid, dt, T)
    rep = fpk_gradient_mass(res)
    _write_csv(out / "gradient_mass.csv", ("elapsed", "gradient_mass",
                                           "cumulative"), rep.to_csv_rows())
    passed = lo <= rep.slope <= hi and res.undershoot <= 1e-12
    return {"slope": rep.slope, "C": rep.C, "mass_error":
            float(np.max(np.abs(res.mass - 1.0))),
            "undershoot": res.undershoot}, passed


def _run_oracle_compare(cfg, out, seed):
    beta = _weight_from(cfg)
    game, spec = _game_from(cfg, beta)
    collar = _collar_for(cfg, game.grid)
    tol = _tolerances(cfg, "picard_tol", "max_err", "max_iterations")
    max_err = _bound(tol, "max_err")
    # every run takes at least one sweep
    max_its = (_positive(tol, "max_iterations", int)
               if "max_iterations" in tol else None)
    sol, rep = picard_solve(game,
                            tol=_positive(tol, "picard_tol", float, 1e-6),
                            max_iter=_positive(cfg, "max_iter", int, 30))
    if sol is None:
        raise RuntimeError("Picard iteration did not converge")
    traj = riccati_integrate(spec, spec.T / 200)
    N = spec.N
    _write_csv(out / "riccati.csv",
               ["t"] + [f"P{i}_{j}{k}" for i, j, k in np.ndindex(N, N, N)]
               + [f"r{i}" for i in range(N)],
               ([t, *P.ravel(), *r] for t, P, r in
                zip(traj.times, traj.P, traj.r)))
    X = game.grid.meshgrid()
    inner = game.grid.interior(collar)
    rows = []
    for i in range(game.N):
        exact = np.stack([lq_value(traj, i, t, X)[0] for t in game.times])
        err = float(np.max(np.abs(sol[i].values - exact)
                           [(slice(None),) + inner]))
        rows.append((i, err))
    _write_csv(out / "oracle_compare.csv", ("player", "max_abs_err"), rows)
    worst = max(e for _, e in rows)
    passed = rep.converged
    if max_err is not None:
        passed &= worst <= max_err
    if max_its is not None:
        passed &= rep.iterations <= max_its
    return {"max_err": worst, "iterations": rep.iterations,
            "final_increment": rep.increments[-1]}, passed


def _run_stability(cfg, out, seed):
    beta = _weight_from(cfg)
    N_list = _ascending(cfg, "N_list", int)
    if len(N_list) < 2:
        raise ConfigError("config key 'N_list' must list at least two values")
    if N_list[-1] > MAX_GRID_DIM:
        raise ConfigError(f"config key 'N_list' must list values <= "
                          f"{MAX_GRID_DIM}")
    tol = _tolerances(cfg, "picard_tol", "C_max")
    C_max = _bound(tol, "C_max")
    rep = dimension_stability(
        lambda N: _game_from(cfg, beta, N=N)[0], N_list,
        tol=_positive(tol, "picard_tol", float, 1e-6),
        max_iter=_positive(cfg, "max_iter", int, 30))
    _write_csv(out / "stability.csv", ("N_small", "N_large", "diff", "tail"),
               rep.to_csv_rows())
    diffs = [r.diff for r in rep.rows]
    passed = all(b <= a for a, b in zip(diffs, diffs[1:]))
    if C_max is not None:
        passed &= rep.fitted_C <= C_max
    return {"fitted_C": rep.fitted_C,
            "rows": [(r.N_small, r.N_large, r.diff, r.tail)
                     for r in rep.rows]}, passed


def _run_uniqueness(cfg, out, seed):
    beta = _weight_from(cfg)
    game, _ = _game_from(cfg, beta)
    tol = _tolerances(cfg, "picard_tol", "factor")
    ptol = _positive(tol, "picard_tol", float, 1e-6)
    factor = _bound(tol, "factor", 10.0)
    X = game.grid.meshgrid()
    u0_b = [Field(game.grid, game.times,
                  np.broadcast_to(TerminalSpec(g).eval(X),
                                  (game.times.size,) + game.grid.shape).copy(),
                  player=i) for i, g in enumerate(game.terminals)]
    d = uniqueness_probe(game, None, u0_b, tol=ptol,
                         max_iter=_positive(cfg, "max_iter", int, 30))
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
        seed = _need(cfg, "seed", int, 0)
        if args.seed_override is not None:
            seed = args.seed_override
            cfg["seed"] = seed
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
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
