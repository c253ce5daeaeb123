"""Batch experiment runner.

Every workflow is a subcommand driven by one self-describing JSON config:

    nash-horizon <subcommand> --config FILE [--out DIR] [--seed-override N]

Each run writes summary.json (resolved config, content hash, results, pass
flag) plus CSV tables.  Exit codes: 0 all asserted tolerances pass, 1
numerical or tolerance failure, 2 invalid config: a key that the
subcommand's table (_TABLES) does not declare, or a value its check refuses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .holder import Field, GridError, SpatialGrid, save_field, sup_abs
from .nash import (
    GameSpec,
    dimension_stability,
    horizon_scan,
    picard_solve,
    residual,
    uniqueness_probe,
)
from .oracle_lq import decay_lq_game, lq_value, riccati_integrate
from .pde_linear import (
    MAX_FPK_DIM,
    MAX_GRID_DIM,
    DiffusionSpec,
    build_decay_problem,
    cfl_step,
    fpk_gradient_mass,
    solve_fpk_grid,
    solve_grid,
    transport_step,
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


# ---------------------------------------------------------------------------
# the config tables: every key each subcommand reads, block by block.  A key
# is (type, default, check): [t] is a list of t values, a default of None
# reads as "not given", and a check is (what it asks, predicate).  Every
# float read must be finite, so no check meets NaN or infinity.  A dict is a
# block, which may be left out when each of its keys has a default.

_REQUIRED = object()                # the default of a key that has none


def _key(typ, default=_REQUIRED, check=None):
    return typ, default, check


def _ascending(least: int, top):
    return (f"a list of at least {least} ascending values in (0, {top}]",
            lambda v: len(v) >= least and 0 < v[0] and v[-1] <= top
            and all(a < b for a, b in zip(v, v[1:])))


_POSITIVE = ("> 0", lambda v: v > 0)
_NON_NEGATIVE = (">= 0", lambda v: v >= 0)
_GRID_DIM = (f"in 1..{MAX_GRID_DIM}", lambda v: 1 <= v <= MAX_GRID_DIM)
_PICARD_TOL = _key(float, 1e-6, _POSITIVE)
_BOUND = _key(float, None, _NON_NEGATIVE)   # on a result that is >= 0
_COLLAR = _key(float, 0.1)          # boundary fraction of M left out per side
_DT = _key(float, check=_POSITIVE)
_MAIN = {"seed": _key(int, 0, _NON_NEGATIVE), "output_dir": _key(str, "out")}
_WEIGHTS = {"kind": _key(str), "params": _key(dict), "W": _key(int)}
_GRID = {"L": _key(float, check=_POSITIVE), "M": _key(int)}
_GAME = {"N": _key(int, check=_GRID_DIM), "c_Q": _key(float),
         "c_G": _key(float), "sigma": _key(float, check=_POSITIVE),
         "T": _key(float, check=_POSITIVE),
         "hamiltonian": _key(str, "lq", ("'lq' or 'saturated'",
                                         lambda v: v in ("lq", "saturated"))),
         "kappa": _key(float, None, _POSITIVE)}
_LQ = {**_MAIN, "weights": _WEIGHTS, "grid": _GRID, "game": _GAME,
       "dt": _DT, "max_iter": _key(int, 30, _POSITIVE)}

_TABLES = {
    "certify-weights": {**_MAIN, "weights": _WEIGHTS, "tolerances": {
        "certified": _key(bool, True), "max_c": _BOUND}},
    "solve": {**_LQ, "tolerances": {"picard_tol": _PICARD_TOL,
                                    "residual_max": _BOUND}},
    # T_list sets the game's T, and N_list its N: each is optional there
    "scan-horizon": {
        **_LQ, "game": {**_GAME, "T": _key(float, None, _POSITIVE)},
        "T_list": _key([float], check=_ascending(1, np.inf)),
        "n_pairs": _key(int, 3, _POSITIVE),
        "tolerances": {"picard_tol": _PICARD_TOL,
                       "contract_at_smallest": _key(bool, True),
                       "spearman_min": _key(float, None)}},
    "stability": {
        **_LQ, "game": {**_GAME, "N": _key(int, None, _GRID_DIM)},
        "N_list": _key([int], check=_ascending(2, MAX_GRID_DIM)),
        "tolerances": {"picard_tol": _PICARD_TOL, "C_max": _BOUND}},
    # the Riccati oracle solves the LQ kind only
    "oracle-compare": {
        **_LQ, "game": {**_GAME, "hamiltonian": _key(
            str, "lq", ("'lq', the kind the oracle solves",
                        lambda v: v == "lq"))},
        "collar": _COLLAR, "tolerances": {
            "picard_tol": _PICARD_TOL, "max_err": _BOUND,
            "max_iterations": _key(int, None, _POSITIVE)}},  # >= 1 sweep runs
    "uniqueness": {**_LQ, "tolerances": {
        "picard_tol": _PICARD_TOL,
        "factor": _key(float, 10.0, _NON_NEGATIVE)}},
    "verify-decay": {
        **_MAIN, "weights": _WEIGHTS, "grid": _GRID, "collar": _COLLAR,
        "dt": _DT, "tolerances": {"K2_max": _BOUND},
        "problem": {"N": _key(int, check=_GRID_DIM), "c_B": _key(float, 0.0),
                    "c_F": _key(float, 0.0), "c_G": _key(float, 0.0),
                    "a": _key(float, check=_POSITIVE),
                    "T": _key(float, check=_POSITIVE)}},
    "fpk-diagnostic": {
        **_MAIN, "grid": _GRID, "dt": _key(float, None, _POSITIVE),
        # fl(e h) >= 2h at e >= 2: solve_fpk_grid's eps >= 2h test passes
        "fpk": {"N": _key(int, 1, (f"in 1..{MAX_FPK_DIM}",
                                   lambda v: 1 <= v <= MAX_FPK_DIM)),
                "a": _key(float, check=_POSITIVE),
                "T": _key(float, check=_POSITIVE), "y": _key([float], None),
                "eps_factor": _key(float, 4.0, (">= 2", lambda v: v >= 2))},
        "tolerances": {"slope_range": _key(
            [float], [0.4, 0.6], ("[lo, hi] with lo <= hi",
                                  lambda v: len(v) == 2 and v[0] <= v[1]))}},
}


def _typed(name: str, v, typ):
    """v as typ: an int passes as a float, a boolean only as a bool, and a
    float only when it is finite."""
    if isinstance(typ, list):
        if not isinstance(v, list):
            raise ConfigError(f"{name} must be a list")
        return [_typed(name, x, typ[0]) for x in v]
    if typ is float and isinstance(v, int) and not isinstance(v, bool):
        # an int past the float range reads as infinite, as 1e400 does
        v = float(v) if abs(v) <= sys.float_info.max else np.inf
    # bool is a subclass of int: a JSON true is not a number
    if not isinstance(v, typ) or (isinstance(v, bool) and typ is not bool):
        raise ConfigError(f"{name} must be {typ.__name__}")
    # JSON reads 1e400 as infinity, and Python's json module reads NaN
    if typ is float and not np.isfinite(v):
        raise ConfigError(f"{name} must be finite")
    return v


def _read(table: dict, cfg, where: str = "") -> dict:
    """cfg read through table: every declared key, an absent one at its
    default; ConfigError at a key the table does not declare, a missing
    required key, or a value of another type or that its check refuses."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config{where} must be a JSON object")
    unknown = [k for k in cfg if k not in table]
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}{where}; this "
                          f"subcommand reads {sorted(table)}")
    out = {}
    for key, spec in table.items():
        if isinstance(spec, dict):
            out[key] = _read(spec, cfg.get(key, {}), f" in {key!r}")
            continue
        typ, default, check = spec
        name = f"config key {key!r}{where}"
        if key in cfg:
            out[key] = _typed(name, cfg[key], typ)
            if check is not None and not check[1](out[key]):
                raise ConfigError(f"{name} must be {check[0]}")
        elif default is _REQUIRED:
            raise ConfigError(f"missing {name}")
        else:
            out[key] = default
    return out


def _weight_from(c: dict):
    try:
        return build_weight(**c["weights"])
    except (KeyError, TypeError, ValueError) as e:
        # a WeightError, or a missing or non-numeric parameter
        raise ConfigError(f"invalid weights: {e}") from e


def _grid_from(c: dict, N: int) -> SpatialGrid:
    try:
        return SpatialGrid(N, **c["grid"])
    except GridError as e:
        raise ConfigError(f"invalid grid: {e}") from e


def _collar_for(c: dict, grid: SpatialGrid) -> float:
    """c's collar, refused unless grid.interior takes it."""
    try:
        grid.interior(c["collar"])
    except GridError as e:
        raise ConfigError(f"invalid collar: {e}") from e
    return c["collar"]


def _game_from(c: dict, beta, T=None, N=None):
    blk = c["game"]
    if (blk["hamiltonian"] == "saturated") != (blk["kappa"] is not None):
        raise ConfigError("config key 'kappa' in 'game' must be given "
                          "exactly when 'hamiltonian' is 'saturated'")
    N = blk["N"] if N is None else N
    spec = decay_lq_game(N, beta, blk["c_Q"], blk["c_G"], blk["sigma"],
                         blk["T"] if T is None else T)
    return GameSpec(spec, beta, _grid_from(c, N), c["dt"], blk["kappa"])


# ---------------------------------------------------------------------------
# subcommand handlers: return (results dict, passed bool)


def _run_certify_weights(c, out):
    beta = _weight_from(c)
    tol = c["tolerances"]
    cert = certify_csc(beta)
    conv = self_convolve(beta)
    _write_csv(out / "ratios.csv", ("offset", "beta", "selfconv", "ratio"),
               zip(range(beta.W + 1), beta.values[beta.W:],
                   conv[beta.W:], cert.ratios))
    passed = cert.certified == tol["certified"]
    if tol["max_c"] is not None and cert.c > tol["max_c"]:
        passed = False
    doc = {"c": cert.c, "W": cert.W, "certified": cert.certified,
           "edge_contaminated": cert.edge_contaminated,
           "lower_bound": cert.lower_bound}
    return {"certificate": doc}, passed


def _run_solve(c, out):
    game = _game_from(c, _weight_from(c))
    tol = c["tolerances"]
    sol, rep = picard_solve(game, tol=tol["picard_tol"],
                            max_iter=c["max_iter"], iterate_norm=True)
    _write_csv(out / "picard.csv", ("iteration", "increment"),
               list(enumerate(rep.increments, start=1)))
    picard = asdict(rep)
    if rep.refused is None:         # the key only marks a refused run
        del picard["refused"]
    results = {"picard": picard}
    passed = rep.converged
    if sol is not None:
        for i, f in enumerate(sol):
            save_field(f, out / f"u{i}.bin", i)
        res = residual(game, sol)
        results["residual_sup"] = res
        results["decay"] = [asdict(verify_decay(f, game.player_weight(i),
                                                third_order=False))
                            for i, f in enumerate(sol)]
        if tol["residual_max"] is not None:
            passed &= max(res) <= tol["residual_max"]
    return results, passed


def _run_scan_horizon(c, out):
    beta = _weight_from(c)
    n_pairs, tol = c["n_pairs"], c["tolerances"]
    scan = horizon_scan(lambda T: _game_from(c, beta, T=T), c["T_list"],
                        n_pairs=n_pairs, seed=c["seed"],
                        tol=tol["picard_tol"], max_iter=c["max_iter"])
    _write_csv(out / "scan.csv",
               ("T", "max_ratio", "converged") +
               tuple(f"ratio_{k}" for k in range(n_pairs)),
               [(r.T, r.max_ratio, int(r.converged)) + tuple(r.ratios)
                for r in scan.rows])
    passed = True
    if tol["contract_at_smallest"]:
        passed &= scan.rows[0].max_ratio < 1 and scan.rows[0].converged
    if tol["spearman_min"] is not None:
        passed &= scan.spearman > tol["spearman_min"]
    # strict JSON holds neither the rank correlation of a scan whose max
    # ratios all tie (NaN) nor a refused probe's ratio (inf): both are null
    def finite(x):
        return x if np.isfinite(x) else None

    results = {"spearman": finite(scan.spearman), "T_star_low": scan.T_star_low,
               "T_fail": scan.T_fail,
               "rows": [{"T": r.T, "max_ratio": finite(r.max_ratio),
                         "converged": r.converged} for r in scan.rows]}
    return results, passed


def _run_verify_decay(c, out):
    beta = _weight_from(c)
    problem = build_decay_problem(beta=beta, **c["problem"])
    grid = _grid_from(c, c["problem"]["N"])
    collar = _collar_for(c, grid)
    K2_max = c["tolerances"]["K2_max"]
    # the drift does not depend on t: its one evaluation at t0 sizes the
    # step and is the drift of every step; a dt above cfl_step is left for
    # solve_grid to refuse
    dt, supB = c["dt"], 0.0
    if problem.drift is not None:
        B = problem.drift(problem.t0, grid.meshgrid())
        supB = sup_abs(B)
        problem = replace(problem, drift=lambda t, X: B)
    if supB > 0 and dt <= cfl_step(problem.diffusion, grid.h):
        dt = min(dt, transport_step(problem.diffusion, grid.h, supB))
    w = solve_grid(problem, grid, dt)
    rep = verify_decay(w, beta, collar=collar)
    decay = asdict(rep)
    _write_csv(out / "decay.csv", ("constant", "value"), sorted(decay.items()))
    passed = all(np.isfinite(v) for v in decay.values())
    if K2_max is not None:
        passed &= rep.K2 <= K2_max
    return {"decay": decay}, passed


def _run_fpk_diagnostic(c, out):
    blk = c["fpk"]
    N = blk["N"]
    grid = _grid_from(c, N)
    diff = DiffusionSpec(N, blk["a"])
    eps = blk["eps_factor"] * grid.h
    y = [0.0] * N if blk["y"] is None else blk["y"]
    if len(y) != N or not all(abs(v) <= grid.L for v in y):
        raise ConfigError(f"config key 'y' in 'fpk' must list {N} values in "
                          "the grid [-L, L]")
    lo, hi = c["tolerances"]["slope_range"]
    dt = 0.9 * cfl_step(diff, grid.h) if c["dt"] is None else c["dt"]
    res = solve_fpk_grid(diff, y, eps, grid, dt, blk["T"])
    rep = fpk_gradient_mass(res)
    _write_csv(out / "gradient_mass.csv",
               ("elapsed", "gradient_mass", "cumulative"),
               zip(rep.times, rep.gradient_mass, rep.cumulative))
    passed = lo <= rep.slope <= hi and res.undershoot <= 1e-12
    return {"slope": rep.slope, "C": rep.C, "mass_error":
            float(np.max(np.abs(res.mass - 1.0))),
            "undershoot": res.undershoot}, passed


def _run_oracle_compare(c, out):
    game = _game_from(c, _weight_from(c))
    collar = _collar_for(c, game.grid)
    tol = c["tolerances"]
    sol, rep = picard_solve(game, tol=tol["picard_tol"],
                            max_iter=c["max_iter"])
    if sol is None:
        raise RuntimeError("Picard iteration did not converge")
    traj = riccati_integrate(game.spec, game.T / 200)
    N = game.N
    _write_csv(out / "riccati.csv",
               ["t"] + [f"P{i}_{j}{k}" for i, j, k in np.ndindex(N, N, N)]
               + [f"r{i}" for i in range(N)],
               ([t, *P.ravel(), *r] for t, P, r in
                zip(traj.times, traj.P, traj.r)))
    X = game.grid.meshgrid()
    inner = game.grid.interior(collar)
    rows = []
    for i in range(game.N):
        exact = np.stack([lq_value(traj, i, t, X) for t in game.times])
        err = float(np.max(np.abs(sol[i].values - exact)
                           [(slice(None),) + inner]))
        rows.append((i, err))
    _write_csv(out / "oracle_compare.csv", ("player", "max_abs_err"), rows)
    worst = max(e for _, e in rows)
    passed = rep.converged
    if tol["max_err"] is not None:
        passed &= worst <= tol["max_err"]
    if tol["max_iterations"] is not None:
        passed &= rep.iterations <= tol["max_iterations"]
    return {"max_err": worst, "iterations": rep.iterations,
            "final_increment": rep.increments[-1]}, passed


def _run_stability(c, out):
    beta = _weight_from(c)
    tol = c["tolerances"]
    rep = dimension_stability(
        lambda N: _game_from(c, beta, N=N), c["N_list"],
        tol=tol["picard_tol"], max_iter=c["max_iter"])
    rows = [(r.N_small, r.N_large, r.diff, r.tail) for r in rep.rows]
    _write_csv(out / "stability.csv", ("N_small", "N_large", "diff", "tail"),
               rows)
    diffs = [r.diff for r in rep.rows]
    passed = all(b <= a for a, b in zip(diffs, diffs[1:]))
    if tol["C_max"] is not None:
        passed &= rep.fitted_C <= tol["C_max"]
    return {"fitted_C": rep.fitted_C, "rows": rows}, passed


def _run_uniqueness(c, out):
    game = _game_from(c, _weight_from(c))
    ptol, factor = c["tolerances"]["picard_tol"], c["tolerances"]["factor"]
    u0_b = [Field.from_function(game.grid, game.times, lambda t, X, g=g: g(X))
            for g in game.terminals]
    d = uniqueness_probe(game, None, u0_b, tol=ptol, max_iter=c["max_iter"])
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
        if args.seed_override is not None and isinstance(cfg, dict):
            cfg["seed"] = args.seed_override
        c = _read(_TABLES[args.command], cfg)
        out = Path(args.out if args.out is not None else c["output_dir"])
    except (ValueError, OSError) as e:
        # a ConfigError, or a file that is absent, not UTF-8 or not JSON
        print(f"config error: {e}", file=sys.stderr)
        return 2

    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    resolved = {**cfg, "seed": c["seed"]}
    summary = {"command": args.command, "config": resolved,
               "config_sha256": hashlib.sha256(json.dumps(
                   resolved, sort_keys=True).encode()).hexdigest()}
    try:
        results, passed = _HANDLERS[args.command](c, out)
        summary.update(results=results, passed=bool(passed))
    except ConfigError as e:
        # refused before the handler wrote a file: what this run made is empty
        for d in made:
            d.rmdir()
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        summary.update(error=f"{type(e).__name__}: {e}", passed=False)
        print(f"numerical failure: {e}", file=sys.stderr)
    (out / "summary.json").write_text(json.dumps(summary, indent=2,
                                                 default=str))
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
