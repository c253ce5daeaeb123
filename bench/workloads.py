"""Workload definitions: the calls each workload makes and the numbers the
correctness gate checks.

Each workload is a list of calls issued one after another by a single caller
(a closed loop).  A call is either a ``nash-horizon`` subcommand run
in-process through ``nash_horizon.cli.main`` or, where no subcommand exists,
a call into the public library functions.

Importing this module puts the checkout's ``src`` first on ``sys.path`` so
that the program under test is the one next to the benchmark, never an
installed copy.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from nash_horizon import cli, holder, pde_linear  # noqa: E402

if Path(cli.__file__).resolve().parents[1] != SRC:
    raise ImportError(f"nash_horizon loaded from {cli.__file__}, not {SRC}")

WORKLOADS = ("lq-2d", "players-4d", "linear-solvers")

# The reference table holds the seed-dependent numbers (contraction-probe
# ratios, Monte Carlo estimates) for this many workload seeds; any --seed
# maps onto one of them, so the exact-match gate always has a reference.
REFERENCE_SEEDS = 64

W32 = {"kind": "polynomial", "params": {"a": 3}, "W": 32}
W64 = {"kind": "polynomial", "params": {"a": 3}, "W": 64}


def workload_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


@dataclass(frozen=True)
class Call:
    """One closed-loop call.  ``command`` is a CLI subcommand, or None for a
    library call; ``seeded`` marks calls whose headline numbers depend on the
    workload seed."""

    label: str
    command: str | None
    config: dict | None
    seeded: bool = False


def _lq_game(L, M, c_Q, c_G, T, dt, seed, weights=W32, N=2, **extra):
    cfg = {"weights": weights, "grid": {"L": L, "M": M},
           "game": {"N": N, "c_Q": c_Q, "c_G": c_G, "sigma": 0.25, "T": T},
           "dt": dt, "seed": seed, "tolerances": {"picard_tol": 1e-6}}
    cfg.update(extra)
    return cfg


def build(workload: str, seed: int) -> list:
    """The workload's calls for one seed (the same seed gives the same calls)."""
    s = workload_seed(seed)
    if workload == "lq-2d":
        acc5 = _lq_game(4.0, 101, 0.1, 0.2, 0.2, 0.01, s, max_iter=12)
        scan = _lq_game(3.0, 31, 0.01, 0.01, 0.2, 0.02, s, weights=W64,
                        T_list=[0.05, 0.1, 0.2])
        # The README config also asks for spearman > 0, which holds for some
        # probe seeds only (workload seed 3 gives -0.5); the gate holds the
        # spearman value to its reference instead.
        scan["tolerances"] = {"picard_tol": 1e-5}
        uniq = _lq_game(3.0, 41, 0.1, 0.2, 0.2, 0.02, s, max_iter=25)
        return [Call("oracle-compare", "oracle-compare", acc5),
                Call("solve", "solve", acc5),
                Call("scan-horizon", "scan-horizon", scan, seeded=True),
                Call("uniqueness", "uniqueness", uniq)]
    if workload == "players-4d":
        stab = _lq_game(2.0, 11, 0.05, 0.1, 0.1, 0.01, s, N_list=[2, 3, 4],
                        max_iter=20)
        # the stability output holds no oracle error, so one N=3 member of
        # the same game family is also checked against the Riccati oracle
        oracle = _lq_game(2.0, 11, 0.05, 0.1, 0.1, 0.01, s, N=3, max_iter=20)
        return [Call("stability", "stability", stab),
                Call("oracle-compare-n3", "oracle-compare", oracle)]
    if workload == "linear-solvers":
        h3 = 6.0 / 48
        decay = {"weights": W32, "grid": {"L": 3.0, "M": 49},
                 "problem": {"N": 3, "c_B": 0.2, "c_F": 0.3, "c_G": 0.3,
                             "a": 0.5, "T": 0.2},
                 "dt": 0.9 * h3 ** 2 / (2 * 3 * 0.5), "seed": s,
                 "tolerances": {"K2_max": 10.0}}
        eps1 = 4 * 12.0 / 400
        fpk1 = {"grid": {"L": 6.0, "M": 401},
                "fpk": {"N": 1, "a": 1.0, "T": 200 * eps1 ** 2}, "seed": s,
                "tolerances": {"slope_range": [0.4, 0.6]}}
        fpk2 = {"grid": {"L": 6.0, "M": 121},
                "fpk": {"N": 2, "a": 1.0, "T": 3.0}, "seed": s,
                "tolerances": {"slope_range": [0.4, 0.6]}}
        return [Call("certify-weights", "certify-weights",
                     {"weights": W64, "seed": s}),
                Call("verify-decay", "verify-decay", decay),
                Call("fpk-diagnostic-n1", "fpk-diagnostic", fpk1),
                Call("fpk-diagnostic-n2", "fpk-diagnostic", fpk2),
                Call("cross-backend", None, {"seed": s}, seeded=True)]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(calls, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for c in calls:
        if c.command is not None:
            (out / f"{c.label}.json").write_text(json.dumps(c.config))


# ---------------------------------------------------------------------------
# library call: 2-D heat equation, grid solver against Monte Carlo

HEAT_A = 0.5
HEAT_T = 0.25
MC_POINTS = [[0.0, 0.0], [0.48, -0.3], [0.9, 0.9], [-0.78, 0.18], [0.3, 0.9]]


def cross_backend(seed: int) -> tuple:
    """solve_grid at M=201 against the heat kernel, and solve_mc with 10^4
    paths at on-grid nodes against the grid.  Returns (results, passed)."""
    p = pde_linear.LinearProblem(
        pde_linear.DiffusionSpec.isotropic(2, HEAT_A), None, None,
        pde_linear.TerminalSpec(lambda X: np.exp(-sum(x ** 2 for x in X) / 2)),
        0.0, HEAT_T)
    g = holder.SpatialGrid(2, 6.0, 201)
    w = pde_linear.solve_grid(p, g, 0.9 * g.h ** 2 / (2 * 2 * HEAT_A))
    X = g.meshgrid()
    v = 1.0 + 2 * HEAT_A * HEAT_T
    exact = v ** -1 * np.exp(-sum(x ** 2 for x in X) / (2 * v))
    heat_err = float(np.max(np.abs(w.values[0] - exact)))
    mc = pde_linear.solve_mc(p, MC_POINTS, paths=10_000, dt=0.005, seed=seed)
    gaps, ok = [], heat_err < 5e-3
    for x, (est, ci) in zip(MC_POINTS, mc):
        idx = tuple(int(round((xi + g.L) / g.h)) for xi in x)
        gaps.append(abs(est - float(w.values[(0,) + idx])))
        ok &= gaps[-1] < max(3 * ci, 5e-3)
    return {"heat_err": heat_err, "mc": [e for e, _ in mc],
            "mc_gap": max(gaps)}, bool(ok)


def run_call(call: Call, out: Path) -> tuple:
    """Issue one call; returns (exit code, passed, results).  Only the call
    itself runs here, so a caller can time exactly this function."""
    if call.command is None:
        results, passed = cross_backend(call.config["seed"])
        return 0, passed, results
    code = cli.main([call.command, "--config", str(out / f"{call.label}.json"),
                     "--out", str(out / call.label)])
    return code, None, None


def read_summary(call: Call, out: Path) -> tuple:
    """(passed, results) from the call's summary.json; a call that wrote
    none (a config error) did not pass."""
    path = out / call.label / "summary.json"
    if not path.is_file():
        return False, {}
    summary = json.loads(path.read_text())
    return bool(summary.get("passed")), summary.get("results", {})


# ---------------------------------------------------------------------------
# headline numbers: what the gate compares and what feeds oracle_err


def headline(call: Call, results: dict) -> dict:
    """Flat name -> number map of the call's headline outputs."""
    r = results
    cmd = call.command
    if cmd == "oracle-compare":
        return {"max_err": r["max_err"], "iterations": r["iterations"]}
    if cmd == "solve":
        return {"iterations": r["picard"]["iterations"],
                "converged": r["picard"]["converged"]}
    if cmd == "scan-horizon":
        out = {"spearman": r["spearman"]}
        for k, row in enumerate(r["rows"]):
            out[f"max_ratio.{k}"] = row["max_ratio"]
        return out
    if cmd == "uniqueness":
        return {"sup_difference": r["sup_difference"]}
    if cmd == "stability":
        return {"fitted_C": r["fitted_C"]}
    if cmd == "certify-weights":
        return {"c": r["certificate"]["c"]}
    if cmd == "verify-decay":
        return {"K1": r["decay"]["K1"], "K2": r["decay"]["K2"]}
    if cmd == "fpk-diagnostic":
        return {"slope": r["slope"]}
    out = {"heat_err": r["heat_err"]}
    for k, e in enumerate(r["mc"]):
        out[f"mc.{k}"] = e
    return out


def oracle_error(call: Call, results: dict) -> float | None:
    """The call's error against an independent oracle, if it has one: the
    Riccati error of oracle-compare, the heat-kernel error of the library
    call.  The Monte Carlo gap moves with the seed by design, so it is
    gated, not reported as oracle_err."""
    if call.command == "oracle-compare":
        return float(results["max_err"])
    if call.command is None:
        return float(results["heat_err"])
    return None
