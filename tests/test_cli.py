import json
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import nash_horizon
from nash_horizon.cli import main
from nash_horizon.holder import SpatialGrid
from nash_horizon.nash import GameSpec, picard_solve
from nash_horizon.oracle_lq import decay_lq_game
from nash_horizon.pde_linear import (build_decay_problem, cfl_step,
                                     solve_grid, verify_decay)
from nash_horizon.weights import build_weight

WEIGHTS = {"kind": "polynomial", "params": {"a": 3}, "W": 64}


def run(tmp_path, command, cfg, name="cfg.json", out="out", extra=()):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    o = tmp_path / out
    code = main([command, "--config", str(p), "--out", str(o), *extra])
    summary = None
    if (o / "summary.json").exists():
        summary = json.loads((o / "summary.json").read_text())
    return code, summary, o


def read_csv(path):
    """The header and the rows of a CSV the CLI wrote, as lists of cells."""
    head, *lines = path.read_text().splitlines()
    return head.split(","), [line.split(",") for line in lines]


def lq_config(**over):
    cfg = {
        "weights": WEIGHTS,
        "grid": {"L": 3.0, "M": 31},
        "game": {"N": 2, "c_Q": 0.05, "c_G": 0.1, "sigma": 0.25, "T": 0.2},
        "dt": 0.02,
        "seed": 0,
        "tolerances": {"picard_tol": 1e-6},
    }
    cfg.update(over)
    return cfg


def test_certify_weights_pass(tmp_path):
    code, summary, o = run(tmp_path, "certify-weights", {"weights": WEIGHTS})
    assert code == 0
    assert summary["passed"]
    cert = summary["results"]["certificate"]
    assert cert["certified"] and not cert["edge_contaminated"]
    assert (o / "ratios.csv").exists()
    assert "config_sha256" in summary


def test_certify_weights_expected_failure(tmp_path):
    vals = (0.5 ** np.abs(np.arange(-64, 65))).tolist()
    cfg = {"weights": {"kind": "table", "params": {"values": vals}, "W": 64},
           "tolerances": {"certified": False}}
    code, summary, _ = run(tmp_path, "certify-weights", cfg)
    assert code == 0
    assert summary["results"]["certificate"]["edge_contaminated"]


def test_invalid_config_exits_2(tmp_path, monkeypatch):
    p = tmp_path / "bad.json"
    for text in (b"{ not json", b"\xff\xfe{"):
        p.write_bytes(text)
        assert main(["certify-weights", "--config", str(p)]) == 2
    # a non-string output directory once raised TypeError in Path
    monkeypatch.chdir(tmp_path)
    p.write_text(json.dumps({"weights": WEIGHTS, "output_dir": 5}))
    assert main(["certify-weights", "--config", str(p)]) == 2
    assert not (tmp_path / "out").exists()
    code, _, _ = run(tmp_path, "certify-weights", {"nope": 1})
    assert code == 2
    # a parameter of another weight kind once ran silently
    code, _, _ = run(tmp_path, "certify-weights", {"weights": {
        "kind": "polynomial", "params": {"a": 3, "r": 0.5}, "W": 64}})
    assert code == 2
    # JSON reads 1e400 as infinity, which a > 0 or >= 0 check once passed:
    # the diffusion then failed as a numerical error, after summary.json
    p.write_text('{"grid": {"L": 6.0, "M": 61}, '
                 '"fpk": {"N": 1, "a": 1e400, "T": 0.72}}')
    assert main(["fpk-diagnostic", "--config", str(p), "--out", "fpk"]) == 2
    assert not (tmp_path / "fpk").exists()
    code, summary, _ = run(tmp_path, "verify-decay", {
        **DECAY_2D, "tolerances": {"K2_max": float("inf")}})
    assert code == 2 and summary is None
    # missing required game block for solve
    code, _, _ = run(tmp_path, "solve", {"weights": WEIGHTS, "dt": 0.01})
    assert code == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.json")]) == 2


def test_solve_trivial_game(tmp_path):
    cfg = lq_config()
    cfg["game"].update({"c_Q": 0.0, "c_G": 0.0})
    code, summary, o = run(tmp_path, "solve", cfg)
    assert code == 0
    assert summary["results"]["picard"]["iterations"] == 1
    assert (o / "u0.bin").exists() and (o / "u0.bin.json").exists()


def test_solve_writes_each_players_field_and_sidecar(tmp_path, read_field):
    # u{i}.bin holds player i's fixed point and its sidecar names i and the
    # game's time nodes: the index comes from the position in the solution
    cfg = lq_config()
    code, _, o = run(tmp_path, "solve", cfg)
    assert code == 0
    beta = build_weight(**WEIGHTS)
    game = GameSpec(decay_lq_game(beta=beta, **cfg["game"]), beta,
                    SpatialGrid(2, 3.0, 31), cfg["dt"])
    sol, _ = picard_solve(game, tol=1e-6)
    for i in range(2):
        f, player = read_field(o / f"u{i}.bin")
        assert player == i
        assert f.grid == game.grid
        assert np.array_equal(f.times, game.times)
        assert np.array_equal(f.values, sol[i].values)


def test_solve_records_finite_max_norm_as_strict_json(tmp_path):
    from nash_horizon.nash import PicardReport

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    code, _, o = run(tmp_path, "solve", lq_config())
    assert code == 0
    summary = json.loads((o / "summary.json").read_text(),
                         parse_constant=reject)
    max_norm = summary["results"]["picard"]["max_norm"]
    assert isinstance(max_norm, float) and np.isfinite(max_norm)
    # a norm that was not computed is written as null, never as 0 or NaN
    skipped = PicardReport([], [], 0, False, False, 1e-6, None)
    doc = json.loads(json.dumps(asdict(skipped), allow_nan=False))
    assert doc["max_norm"] is None


@pytest.mark.parametrize("game", [{"hamiltonian": "LQ", "kappa": 2},
                                  {"hamiltonian": "user"}])
def test_solve_unknown_hamiltonian_exits_2(tmp_path, game):
    cfg = lq_config()
    cfg["game"].update(game)
    code, summary, _ = run(tmp_path, "solve", cfg)
    assert code == 2
    assert summary is None


@pytest.mark.parametrize("kappa", [None, 0, -1.0, "2"])
def test_solve_saturated_needs_positive_kappa_exits_2(tmp_path, kappa):
    cfg = lq_config()
    cfg["game"]["hamiltonian"] = "saturated"
    if kappa is not None:
        cfg["game"]["kappa"] = kappa
    code, summary, _ = run(tmp_path, "solve", cfg)
    assert code == 2
    assert summary is None


@pytest.mark.parametrize("command, over", [
    ("solve", {"max_iter": "many"}),
    ("solve", {"tolerances": {"picard_tol": "tight"}}),
    ("solve", {"grid": {"L": 3.0, "M": 10}}),
    ("solve", {"seed": "zero"}),
    ("certify-weights", {"weights": {"kind": "bogus", "params": {}, "W": 64}}),
    ("certify-weights", {"weights": {"kind": "polynomial", "params": {},
                                     "W": 64}}),
    ("certify-weights", {"tolerances": {"max_c": "small"}}),
    # the Riccati oracle solves the LQ kind only: this saturated game once
    # exited 0 with max_err 2.2e-3 against it (0.038 at kappa 0.05)
    ("oracle-compare", {"grid": {"L": 3.0, "M": 21}, "game": {
        "N": 2, "c_Q": 0.1, "c_G": 0.2, "sigma": 0.25, "T": 0.2,
        "hamiltonian": "saturated", "kappa": 5.0}}),
])
def test_malformed_config_value_exits_2(tmp_path, command, over):
    # certify-weights reads no game: its config has only the weights
    base = {"weights": WEIGHTS} if command == "certify-weights" else lq_config()
    code, summary, _ = run(tmp_path, command, {**base, **over})
    assert code == 2
    assert summary is None


FPK = {"grid": {"L": 6.0, "M": 61}, "fpk": {"N": 1, "a": 1.0, "T": 0.72}}
# long enough for the slope fit, whose slope is 0.574
FPK_FIT = {"grid": {"L": 6.0, "M": 121}, "fpk": {"N": 1, "a": 1.0, "T": 3.0}}


# verify-decay on the README's weights at N = 2
DECAY_2D = {
    "weights": WEIGHTS,
    "grid": {"L": 3.0, "M": 25},
    "problem": {"N": 2, "c_B": 0.2, "c_F": 0.3, "c_G": 0.3, "a": 0.5,
                "T": 0.1},
    "dt": 0.005,
}


@pytest.mark.parametrize("command, cfg", [
    ("fpk-diagnostic", {**FPK, "tolerances": {"slope_range": ["low", "high"]}}),
    ("fpk-diagnostic", {**FPK, "tolerances": {"slope_range": 0.5}}),
    ("fpk-diagnostic", {**FPK, "tolerances": {"slope_range": [0.6]}}),
    ("fpk-diagnostic", {**FPK, "fpk": {**FPK["fpk"], "y": "origin"}}),
    ("scan-horizon", lq_config(T_list=["soon"])),
    ("scan-horizon", lq_config(T_list=[0.05], tolerances={
        "contract_at_smallest": "no"})),
    ("stability", lq_config(N_list=[2, "three"])),
    ("certify-weights", {"weights": WEIGHTS,
                         "tolerances": {"certified": "yes"}}),
    # an empty or unordered horizon or player list, and no probe pairs
    ("scan-horizon", lq_config(T_list=[])),
    ("scan-horizon", lq_config(T_list=[0.1, 0.05])),
    ("scan-horizon", lq_config(T_list=[0.05, 0.05])),
    ("scan-horizon", lq_config(T_list=[0.05], n_pairs=0)),
    ("stability", lq_config(N_list=[])),
    ("stability", lq_config(N_list=[3, 2])),
    # one player count compares nothing, so it cannot pass a stability check
    ("stability", lq_config(N_list=[2])),
    # a negative collar once measured the grid's far corner, and one that
    # consumes the grid once failed only after the solve
    ("verify-decay", {**DECAY_2D, "collar": -0.2}),
    ("verify-decay", {**DECAY_2D, "collar": 0.6}),
    ("oracle-compare", lq_config(collar=-0.2)),
    ("oracle-compare", lq_config(collar=0.6)),
    # physical parameters out of range once failed as numerical errors, or
    # in einsum, or ran one backward step before failing
    ("fpk-diagnostic", {**FPK, "fpk": {**FPK["fpk"], "a": -1.0}}),
    ("fpk-diagnostic", {**FPK, "fpk": {**FPK["fpk"], "T": -0.5}}),
    ("verify-decay", {**DECAY_2D, "problem": {**DECAY_2D["problem"], "a": 0}}),
    ("verify-decay", {**DECAY_2D, "problem": {**DECAY_2D["problem"], "T": 0}}),
    ("solve", lq_config(game={"N": 2, "c_Q": 0.05, "c_G": 0.1, "sigma": 0,
                              "T": 0.2})),
    ("solve", lq_config(game={"N": 2, "c_Q": 0.05, "c_G": 0.1, "sigma": 0.25,
                              "T": -0.1})),
    ("solve", lq_config(game={"N": 0, "c_Q": 0.05, "c_G": 0.1, "sigma": 0.25,
                              "T": 0.2})),
    # a horizon <= 0 once failed as a numerical error, a player count < 1
    # in einsum
    ("scan-horizon", lq_config(T_list=[-0.1, 0.05])),
    ("stability", lq_config(N_list=[0, 2])),
    # a dimension the solver cannot take, or a negative mollifier width, once
    # failed as a numerical error
    ("verify-decay", {**DECAY_2D, "problem": {**DECAY_2D["problem"], "N": 0}}),
    ("verify-decay", {**DECAY_2D, "problem": {**DECAY_2D["problem"], "N": 5}}),
    ("fpk-diagnostic", {**FPK, "fpk": {**FPK["fpk"], "N": 3}}),
    ("fpk-diagnostic", {**FPK, "fpk": {**FPK["fpk"], "eps_factor": -1}}),
    # a game dimension above the grid solver's limit, and a mollifier under
    # 2h, once failed as numerical errors
    ("solve", lq_config(grid={"L": 3.0, "M": 5}, game={
        "N": 5, "c_Q": 0.05, "c_G": 0.1, "sigma": 0.25, "T": 0.2})),
    ("stability", lq_config(grid={"L": 3.0, "M": 5}, N_list=[2, 5])),
    ("fpk-diagnostic", {**FPK, "fpk": {**FPK["fpk"], "eps_factor": 1.0}}),
    # an inverted or non-finite slope range once ran the whole solve, then
    # failed the slope (or passed it at an infinite bound)
    ("fpk-diagnostic", {**FPK_FIT, "tolerances": {"slope_range": [0.6, 0.4]}}),
    ("fpk-diagnostic", {**FPK_FIT, "tolerances": {
        "slope_range": [0.4, float("inf")]}}),
    ("fpk-diagnostic", {**FPK_FIT, "tolerances": {
        "slope_range": [float("-inf"), 0.6]}}),
    ("fpk-diagnostic", {**FPK_FIT, "tolerances": {
        "slope_range": [float("nan"), 0.6]}}),
    # no sweep allowed, or a tolerance no increment can pass, once ran every
    # solve and then failed as not converged
    ("solve", lq_config(max_iter=0)),
    ("oracle-compare", lq_config(max_iter=-3)),
    ("uniqueness", lq_config(max_iter=0)),
    ("stability", lq_config(N_list=[2, 3], max_iter=-3)),
    ("scan-horizon", lq_config(T_list=[0.05], max_iter=0)),
    ("solve", lq_config(tolerances={"picard_tol": 0})),
    ("uniqueness", lq_config(tolerances={"picard_tol": -1e-6})),
    ("scan-horizon", lq_config(T_list=[0.05], tolerances={"picard_tol": 0})),
    # a negative seed once built the scan's games, then failed in the
    # random generator
    ("scan-horizon", lq_config(T_list=[0.05], seed=-1)),
    # a start outside the grid once passed on a spike at the wall node, or
    # failed on a non-finite density
    ("fpk-diagnostic", {**FPK_FIT, "fpk": {**FPK_FIT["fpk"], "y": [20.0]}}),
    ("fpk-diagnostic", {**FPK_FIT, "fpk": {**FPK_FIT["fpk"], "y": [100.0]}}),
    ("fpk-diagnostic", {**FPK, "fpk": {**FPK["fpk"], "N": 2,
                                       "y": [0.0, -6.5]}}),
    # a negative bound on a result that is >= 0, or no sweep allowed, once
    # ran the whole solve and then failed the tolerance
    ("uniqueness", lq_config(tolerances={"picard_tol": 1e-6, "factor": -1})),
    ("solve", lq_config(tolerances={"residual_max": -1})),
    ("oracle-compare", lq_config(tolerances={"max_err": -1})),
    ("oracle-compare", lq_config(tolerances={"max_iterations": 0})),
    ("certify-weights", {"weights": WEIGHTS, "tolerances": {"max_c": -2}}),
    ("verify-decay", {**DECAY_2D, "tolerances": {"K2_max": -1}}),
    ("stability", lq_config(N_list=[2, 3], tolerances={"C_max": -1})),
])
def test_malformed_list_or_flag_exits_2(tmp_path, command, cfg):
    # read and checked before any solve: no summary is written, and no
    # output directory is left behind
    code, summary, o = run(tmp_path, command, cfg)
    assert code == 2
    assert summary is None
    assert not o.exists()


DECAY = {
    "weights": WEIGHTS,
    "grid": {"L": 3.0, "M": 25},
    "problem": {"N": 3, "c_B": 0.2, "c_F": 0.3, "c_G": 0.3, "a": 0.5,
                "T": 0.2},
    "dt": 0.005,
    "tolerances": {"K2_max": 10.0},
}


@pytest.mark.parametrize("command, cfg", [
    ("solve", lq_config(dt=0.0)),
    ("solve", lq_config(dt=-0.005)),
    # the README's scan-horizon example with a negative step
    ("scan-horizon", lq_config(
        grid={"L": 3.0, "M": 31},
        game={"N": 2, "c_Q": 0.01, "c_G": 0.01, "sigma": 0.25, "T": 0.2},
        dt=-0.02, T_list=[0.05, 0.1, 0.2],
        tolerances={"picard_tol": 1e-5, "spearman_min": 0.0})),
    ("verify-decay", {**DECAY, "dt": -0.005}),
    ("verify-decay", {**DECAY, "dt": 0.0}),
    ("fpk-diagnostic", {**FPK, "dt": -0.005}),
])
def test_non_positive_dt_exits_2(tmp_path, command, cfg):
    # a step <= 0 once ran as one step of the whole span, or failed as a
    # numerical error
    code, summary, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert summary is None


@pytest.mark.parametrize("command, cfg", [
    ("fpk-diagnostic", {**FPK, "fpk": {**FPK["fpk"], "N": True}}),
    ("fpk-diagnostic", {**FPK, "fpk": {**FPK["fpk"], "a": True}}),
    ("solve", lq_config(grid={"L": 3.0, "M": True})),
    ("solve", lq_config(max_iter=False)),
    ("solve", lq_config(dt=True)),
])
def test_boolean_for_a_number_exits_2(tmp_path, command, cfg):
    # bool is a subclass of int, yet a JSON true is not a number
    code, summary, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert summary is None


INF, NAN = float("inf"), float("nan")


def _game_block(**over):
    return {"N": 2, "c_Q": 0.05, "c_G": 0.1, "sigma": 0.25, "T": 0.2, **over}


@pytest.mark.parametrize("command, cfg, key", [
    ("verify-decay", {**DECAY_2D, "grid": {"L": INF, "M": 25}}, "L"),
    ("verify-decay", {**DECAY_2D, "grid": {"L": NAN, "M": 25}}, "L"),
    ("fpk-diagnostic", {**FPK, "grid": {"L": NAN, "M": 61}}, "L"),
    ("solve", lq_config(game=_game_block(c_Q=NAN)), "c_Q"),
    ("solve", lq_config(game=_game_block(c_Q=INF)), "c_Q"),
    ("solve", lq_config(game=_game_block(c_Q=10 ** 400)), "c_Q"),
    ("solve", lq_config(game=_game_block(c_G=NAN)), "c_G"),
    ("verify-decay", {**DECAY_2D, "problem": {**DECAY_2D["problem"],
                                              "c_B": NAN}}, "c_B"),
    ("verify-decay", {**DECAY_2D, "problem": {**DECAY_2D["problem"],
                                              "c_F": INF}}, "c_F"),
    ("scan-horizon", lq_config(T_list=[0.05], tolerances={
        "spearman_min": NAN}), "spearman_min"),
    ("fpk-diagnostic", {**FPK, "fpk": {**FPK["fpk"], "eps_factor": INF}},
     "eps_factor"),
])
def test_non_finite_number_exits_2_naming_its_key(tmp_path, capsys, command,
                                                  cfg, key):
    # JSON reads 1e400 as infinity and Python's json module reads NaN; each
    # such value once ran a solve, or was refused under another key's name
    code, summary, o = run(tmp_path, command, cfg)
    assert code == 2 and summary is None and not o.exists()
    err = capsys.readouterr().err
    assert f"config key '{key}' in " in err and "must be finite" in err


# a small game whose scan and stability runs pass
SMALL = {"grid": {"L": 2.0, "M": 11}, "dt": 0.01, "max_iter": 20}
MISSPELLED = [
    ("certify-weights", {"weights": WEIGHTS, "tolerances": {"Max_c": 1.0}},
     "Max_c"),
    ("solve", lq_config(tolerances={"picard_tol": 1e-6, "residual_Max": 0.0}),
     "residual_Max"),
    ("scan-horizon", lq_config(T_list=[0.05], n_pairs=1,
                               tolerances={"spearmanmin": 2.0}), "spearmanmin"),
    ("verify-decay", {**DECAY, "tolerances": {"K2_Max": 1e-9}}, "K2_Max"),
    ("fpk-diagnostic", {**FPK, "tolerances": {"slope-range": [0.0, 0.1]}},
     "slope-range"),
    ("oracle-compare", lq_config(tolerances={"picard_tol": 1e-6,
                                             "max_error": 1e-12}),
     "max_error"),
    ("stability", lq_config(N_list=[1, 2], tolerances={"C_MAX": 0.0}),
     "C_MAX"),
    ("uniqueness", lq_config(tolerances={"picard_tol": 1e-6, "Factor": 0.0}),
     "Factor"),
    # top level, and a key that another subcommand reads
    ("solve", lq_config(max_itr=1), "max_itr"),
    ("verify-decay", {**DECAY_2D, "colar": -3}, "colar"),
    ("verify-decay", {**DECAY_2D, "max_iter": 5}, "max_iter"),
    ("certify-weights", {"weights": {**WEIGHTS, "Wx": 3}}, "Wx"),
    ("solve", lq_config(grid={"L": 3.0, "M": 31, "m": 11}), "m"),
    ("solve", lq_config(game={"N": 2, "c_Q": 0.05, "c_q": 50, "c_G": 0.1,
                              "sigma": 0.25, "T": 0.2}), "c_q"),
    ("verify-decay", {**DECAY_2D, "problem": {**DECAY_2D["problem"],
                                              "c_b": 0.2}}, "c_b"),
    ("fpk-diagnostic", {**FPK, "fpk": {**FPK["fpk"], "eps": 0.1}}, "eps"),
    # kappa sets the saturation level of the saturated kind only
    ("solve", lq_config(game={"N": 2, "c_Q": 0.05, "c_G": 0.1, "sigma": 0.25,
                              "T": 0.2, "kappa": 0.5}), "kappa"),
    # T_list sets the scan's horizons and N_list the player counts: a game
    # T or N there is read and checked, but not used (None: the run passes)
    ("scan-horizon", lq_config(**SMALL, T_list=[0.05], n_pairs=1), None),
    ("stability", lq_config(**SMALL, N_list=[1, 2]), None),
    ("scan-horizon", lq_config(**SMALL, T_list=[0.05], game={
        "N": 2, "c_Q": 0.05, "c_G": 0.1, "sigma": 0.25, "T": -1}), "T"),
    ("stability", lq_config(**SMALL, N_list=[1, 2], game={
        "N": 0, "c_Q": 0.05, "c_G": 0.1, "sigma": 0.25, "T": 0.2}), "N"),
]


@pytest.mark.parametrize("command, cfg, bad", MISSPELLED, ids=[
    f"{command}-cfg{k}" for k, (command, _, _) in enumerate(MISSPELLED)])
def test_misspelled_tolerance_exits_2(tmp_path, capsys, command, cfg, bad):
    # a key the subcommand does not declare was once ignored, so a misspelled
    # one ran another experiment, or a check the config asked for never ran:
    # refused before any solve, like a value that its check refuses
    code, summary, _ = run(tmp_path, command, cfg)
    if bad is None:
        assert code == 0 and summary["passed"]
        return
    assert code == 2
    assert summary is None
    assert repr(bad) in capsys.readouterr().err


def test_solve_diagnostics_make_only_the_derivatives_they_read(tmp_path,
                                                                monkeypatch):
    # after Picard, residual makes D_j u^i for each pair and D_c D_c u^i (no
    # mixed ones: the diffusion is diagonal) without a derivative family, and
    # verify_decay streams every order-<=2 derivative once per block of time
    # slices: at N = 3 that is 18 _partial calls per residual block and 9 per
    # verify_decay block, so a further pass over the derivatives shows here.
    # An 11^3 slice is 10.6 kB, so each player's field is one block of both
    from nash_horizon import cli, holder
    real = {"derivative_family": holder.derivative_family,
            "_partial": holder._partial, "derivatives": holder.derivatives}
    running, log, n_times = [], [], []

    def span(name, fn):
        def inner(*a, **kw):
            running.append(name)
            try:
                return fn(*a, **kw)
            finally:
                running.pop()
        return inner

    def family(f, m):
        if log:
            log.append((running[-1], "family", m))
        return real["derivative_family"](f, m)

    def partial(values, h, c):
        if log:
            log.append((running[-1], "_partial"))
        return real["_partial"](values, h, c)

    def stream(values, h, m):
        if log:
            log.append((running[-1], "block", values.shape[0]))
        return real["derivatives"](values, h, m)

    def decay(w, *a, **kw):
        n_times.append(w.times.size)
        return real_decay(w, *a, **kw)

    def solve(*a, **kw):
        out = real_solve(*a, **kw)
        log.append("picard")
        return out

    real_solve, real_decay = cli.picard_solve, cli.verify_decay
    monkeypatch.setattr(cli, "picard_solve", solve)
    monkeypatch.setattr(cli, "residual", span("residual", cli.residual))
    monkeypatch.setattr(cli, "verify_decay", span("verify_decay", decay))
    monkeypatch.setattr(holder, "_partial", partial)
    monkeypatch.setattr(holder, "derivatives", stream)
    for name, mod in list(sys.modules.items()):
        if (name.startswith("nash_horizon")
                and getattr(mod, "derivative_family", None)
                is real["derivative_family"]):
            monkeypatch.setattr(mod, "derivative_family", family)
    cfg = lq_config()
    cfg["game"]["N"] = 3
    cfg["grid"]["M"] = 11
    code, summary, _ = run(tmp_path, "solve", cfg)
    assert code == 0 and len(summary["results"]["decay"]) == 3
    assert log[0] == "picard"
    assert not [c for c in log[1:] if c[1] == "family"]
    # per player 3 first and 3 second derivatives in residual; one stream
    # per block in verify_decay, each making 3 first and 6 second
    # derivatives, and the blocks stream every time slice once
    blocks = [c[2] for c in log[1:] if c[:2] == ("verify_decay", "block")]
    assert len(n_times) == 3 and sum(n_times) > 3
    assert blocks == n_times
    assert log.count(("residual", "_partial")) == 18
    assert log.count(("verify_decay", "_partial")) == 9 * len(blocks)
    assert len(log) == 1 + 18 + 10 * len(blocks)


def test_solve_diverged_sweep_exits_1(tmp_path):
    # a terminal cost of 1e308 overflows the first explicit step: the run is
    # reported as diverged, not refused and not as a numerical error, and
    # writes no fields
    cfg = lq_config()
    cfg["game"]["c_G"] = 1e308
    code, summary, o = run(tmp_path, "solve", cfg)
    assert code == 1
    picard = summary["results"]["picard"]
    assert picard["diverged"] is True and not picard["converged"]
    assert "refused" not in picard
    assert "error" not in summary
    assert not list(o.glob("u*.bin"))


def test_solve_refused_sweep_exits_1(tmp_path):
    # huge costs: the transport stability check refuses the first sweep, so
    # the run is reported as refused, not as a numerical error
    cfg = lq_config()
    cfg["game"].update({"c_Q": 50.0, "c_G": 50.0, "T": 1.0})
    cfg["max_iter"] = 8
    code, summary, _ = run(tmp_path, "solve", cfg)
    assert code == 1
    assert not summary["passed"]
    assert summary["results"]["picard"]["refused"]
    assert "error" not in summary


def test_verify_decay_non_finite_exits_1(tmp_path):
    # a terminal cost at the edge of the float range blows the explicit
    # solve up: solve_grid raises SolveError naming the first bad node
    cfg = {"weights": WEIGHTS, "grid": {"L": 3.0, "M": 21}, "dt": 0.01,
           "problem": {"N": 2, "c_G": 1e308, "a": 0.5, "T": 0.05}}
    code, summary, _ = run(tmp_path, "verify-decay", cfg)
    assert code == 1
    assert not summary["passed"]
    assert summary["error"].startswith("SolveError: non-finite value")
    assert "node (0, 0)" in summary["error"]


def test_verify_decay_overflowing_quotient_writes_strict_json(tmp_path):
    # a source near the float range solves to finite values whose adjacent
    # time quotients of D_j w stay below about 4.9e307: the run once wrote
    # "time_lip_grad": Infinity, and then failed with NonFiniteError from
    # np.gradient's non-uniform formula; now its constants are finite
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    cfg = {"weights": {**WEIGHTS, "W": 32}, "grid": {"L": 3.0, "M": 21},
           "dt": 0.01, "problem": {"N": 2, "c_B": 0, "c_F": 5e307, "c_G": 0,
                                   "a": 0.5, "T": 0.2}}
    code, _, o = run(tmp_path, "verify-decay", cfg)
    assert code == 0
    summary = json.loads((o / "summary.json").read_text(),
                         parse_constant=reject)
    assert summary["passed"]
    assert "error" not in summary
    decay = summary["results"]["decay"]
    assert all(np.isfinite(v) for v in decay.values())
    assert decay["time_lip_grad"] > 1e306
    assert (o / "decay.csv").exists()


def test_verify_decay_weighted_overflow_exits_1_without_decay_csv(tmp_path):
    # every weight but beta^0 is 1e-300, so the finite sup of D_1 w (about
    # 1e30) over its weight passes the float range: the run once wrote
    # "K3": Infinity into summary.json and K3,inf into decay.csv
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    cfg = {"weights": {"kind": "table", "W": 8, "params": {
               "values": [1e-300] * 8 + [1.0] + [1e-300] * 8}},
           "grid": {"L": 3.0, "M": 21}, "dt": 0.01,
           "problem": {"N": 2, "c_B": 0, "c_F": 1e30, "c_G": 1e30,
                       "a": 0.5, "T": 0.2}}
    code, _, o = run(tmp_path, "verify-decay", cfg)
    assert code == 1
    summary = json.loads((o / "summary.json").read_text(),
                         parse_constant=reject)
    assert not summary["passed"]
    assert summary["error"].startswith("NonFiniteError: ")
    assert "results" not in summary
    assert not (o / "decay.csv").exists()


@pytest.mark.parametrize("residual_max, code", [(1e-3, 1), (1e-2, 0)])
def test_solve_residual_max(tmp_path, residual_max, code):
    # the fixed point's residual sup is about 2.0e-3 on both players
    cfg = lq_config(tolerances={"picard_tol": 1e-6,
                                "residual_max": residual_max})
    got, summary, _ = run(tmp_path, "solve", cfg)
    assert got == code
    assert summary["results"]["picard"]["converged"]
    assert summary["passed"] is (code == 0)
    assert (max(summary["results"]["residual_sup"]) <= residual_max) is (
        code == 0)


def test_solve_saturated_converges(tmp_path):
    cfg = lq_config()
    cfg["game"].update({"hamiltonian": "saturated", "kappa": 0.5})
    code, summary, o = run(tmp_path, "solve", cfg)
    assert code == 0
    assert summary["results"]["picard"]["converged"]
    assert (o / "u1.bin").exists()


def test_oracle_compare(tmp_path):
    cfg = lq_config()
    cfg["tolerances"].update({"max_err": 2e-2, "max_iterations": 20})
    code, summary, o = run(tmp_path, "oracle-compare", cfg)
    assert code == 0
    assert summary["results"]["max_err"] < 2e-2
    assert (o / "oracle_compare.csv").exists()
    header = (o / "riccati.csv").read_text().splitlines()[0].split(",")
    assert header[:3] == ["t", "P0_00", "P0_01"]
    assert header[-2:] == ["r0", "r1"]
    rows = np.loadtxt(o / "riccati.csv", delimiter=",", skiprows=1)
    # a row per node of the oracle's 200 steps of T/200, ending at Gamma
    assert rows.shape == (201, len(header))
    spec = decay_lq_game(2, build_weight("polynomial", {"a": 3}, 64),
                         0.05, 0.1, 0.25, 0.2)
    assert rows[-1, 0] == spec.T
    np.testing.assert_array_equal(rows[-1, 1:9], spec.Gamma.ravel())
    np.testing.assert_array_equal(rows[-1, 9:], 0.0)


def test_scan_horizon(tmp_path):
    cfg = lq_config()
    cfg["game"].update({"c_Q": 0.01, "c_G": 0.01})
    cfg["T_list"] = [0.05, 0.1, 0.2]
    cfg["tolerances"].update({"spearman_min": 0.0})
    code, summary, o = run(tmp_path, "scan-horizon", cfg)
    assert code == 0
    assert summary["results"]["spearman"] > 0
    # each row is T, max_ratio, converged, then one ratio per probe pair
    head, rows = read_csv(o / "scan.csv")
    assert len(head) == 3 + 3 and all(len(r) == len(head) for r in rows)
    assert [(float(T), float(m), bool(int(c))) for T, m, c, *_ in rows] == [
        (r["T"], r["max_ratio"], r["converged"])
        for r in summary["results"]["rows"]]


def test_scan_horizon_tied_ratios_write_strict_json(tmp_path):
    # zero coupling: every probe ratio is 0, so no rank correlation exists
    cfg = lq_config()
    cfg["game"].update({"c_Q": 0.0, "c_G": 0.0})
    cfg["T_list"] = [0.05, 0.1]
    cfg["n_pairs"] = 1
    cfg["tolerances"].update({"spearman_min": 0.0})
    code, _, o = run(tmp_path, "scan-horizon", cfg)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    summary = json.loads((o / "summary.json").read_text(),
                         parse_constant=reject)
    assert summary["results"]["spearman"] is None
    assert [r["max_ratio"] for r in summary["results"]["rows"]] == [0.0, 0.0]
    # an undefined correlation cannot meet a spearman_min tolerance
    assert code == 1 and not summary["passed"]


def test_scan_horizon_past_the_transport_bound_reports_t_fail(tmp_path):
    # the Picard run at T = 0.8 is refused at the transport stability bound;
    # the scan still writes its rows and reports that horizon as T_fail
    cfg = lq_config(dt=1.0)
    cfg["T_list"] = [0.2, 0.8]
    cfg["n_pairs"] = 1
    code, summary, o = run(tmp_path, "scan-horizon", cfg)
    assert code == 0 and summary["passed"]
    res = summary["results"]
    assert [r["converged"] for r in res["rows"]] == [True, False]
    assert res["T_star_low"] == 0.2 and res["T_fail"] == 0.8
    assert len((o / "scan.csv").read_text().splitlines()) == 3


def test_scan_horizon_refused_probe_writes_strict_json(tmp_path, monkeypatch):
    from nash_horizon import nash

    def refuse(game, u, v):
        raise nash.StepBoundError("refused")

    monkeypatch.setattr(nash, "contraction_probe", refuse)
    cfg = lq_config()
    cfg["T_list"] = [0.05]
    cfg["n_pairs"] = 1
    cfg["tolerances"].update({"contract_at_smallest": False})
    code, _, o = run(tmp_path, "scan-horizon", cfg)

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    summary = json.loads((o / "summary.json").read_text(),
                         parse_constant=reject)
    assert code == 0
    assert summary["results"]["rows"][0]["max_ratio"] is None
    assert summary["results"]["T_fail"] == 0.05


def test_verify_decay(tmp_path):
    code, summary, o = run(tmp_path, "verify-decay", DECAY)
    assert code == 0
    assert np.isfinite(summary["results"]["decay"]["K2"])
    _, rows = read_csv(o / "decay.csv")
    assert {k: float(v) for k, v in rows} == summary["results"]["decay"]


def test_verify_decay_forms_the_covering_step(tmp_path, covering_step):
    # the benchmark's verify-decay call: 0.9 cfl_step is above the transport
    # bound of the t-independent drift, so the CLI solves at the bound, and
    # its constants are those of that solve, bit for bit
    cfg = {**DECAY, "grid": {"L": 3.0, "M": 49}}
    p = build_decay_problem(beta=build_weight(**WEIGHTS), **cfg["problem"])
    g = SpatialGrid(3, 3.0, 49)
    dt = 0.9 * cfl_step(p.diffusion, g.h)
    assert covering_step(p, g, dt) < dt
    code, summary, o = run(tmp_path, "verify-decay", {**cfg, "dt": dt})
    assert code == 0 and summary["passed"]
    rep = verify_decay(solve_grid(p, g, covering_step(p, g, dt)),
                       build_weight(**WEIGHTS))
    rows = [line.split(",") for line in
            (o / "decay.csv").read_text().splitlines()[1:]]
    assert {k: float(v) for k, v in rows} == asdict(rep)
    # a step above cfl_step is refused, not shrunk
    code, summary, _ = run(tmp_path, "verify-decay", {**cfg, "dt": 2 * dt})
    assert code == 1 and summary["error"].startswith("CFLError")


@pytest.mark.parametrize("c_B, evaluations", [(0.2, 1), (0.0, 0)])
def test_verify_decay_evaluates_its_drift_once(tmp_path, monkeypatch, c_B,
                                               evaluations):
    # the decay drift does not depend on t: the one evaluation at t0 that
    # sizes the step is also the drift of every step of the solve, and a
    # run without a drift evaluates none
    from nash_horizon import cli
    real, problems, calls = cli.build_decay_problem, [], []

    def build(*a, **kw):
        p = real(*a, **kw)
        problems.append(p)
        if p.drift is None:
            return p

        def counted(t, X, b=p.drift):
            calls.append(t)
            return b(t, X)
        return replace(p, drift=counted)

    monkeypatch.setattr(cli, "build_decay_problem", build)
    cfg = {**DECAY, "problem": {**DECAY["problem"], "c_B": c_B}}
    code, summary, _ = run(tmp_path, "verify-decay", cfg)
    assert code == 0 and summary["passed"]
    assert len(problems) == 1 and (problems[0].drift is None) == (c_B == 0)
    assert len(calls) == evaluations


@pytest.mark.parametrize("out", ["out", "made/out"])
def test_refused_run_leaves_no_directory_it_made(tmp_path, out):
    # a collar that consumes the grid is refused after the table, once the
    # output directory is made: that directory, and any parent the run
    # made, go again; a directory that was there stays
    cfg = {**DECAY_2D, "collar": 0.7}
    code, summary, o = run(tmp_path, "verify-decay", cfg, out=out)
    assert code == 2 and summary is None
    assert not (tmp_path / out.split("/")[0]).exists()
    o.mkdir(parents=True)
    code, summary, _ = run(tmp_path, "verify-decay", cfg, out=out)
    assert code == 2 and summary is None
    assert o.is_dir()


def test_fpk_diagnostic(tmp_path):
    cfg = {
        "grid": {"L": 6.0, "M": 401},
        "fpk": {"N": 1, "a": 1.0, "T": 0.72},
        "tolerances": {"slope_range": [0.4, 0.6]},
    }
    code, summary, o = run(tmp_path, "fpk-diagnostic", cfg)
    assert code == 0
    assert 0.4 <= summary["results"]["slope"] <= 0.6
    assert summary["results"]["mass_error"] < 1e-10
    head, rows = read_csv(o / "gradient_mass.csv")
    assert rows and all(len(r) == len(head) for r in rows)


def test_stability(tmp_path):
    cfg = lq_config()
    cfg["grid"] = {"L": 2.0, "M": 15}
    cfg["game"].update({"c_Q": 0.02, "c_G": 0.04, "T": 0.1})
    cfg["dt"] = 0.01
    cfg["N_list"] = [2, 3]
    code, summary, o = run(tmp_path, "stability", cfg)
    assert code == 0
    _, rows = read_csv(o / "stability.csv")
    assert [[float(v) for v in r] for r in rows] == summary["results"]["rows"]


@pytest.mark.parametrize("C_max, code", [(1e-4, 1), (1e-3, 0)])
def test_stability_C_max(tmp_path, C_max, code):
    # test_stability's game: its fitted C is about 1.65e-4, and the single
    # diff row cannot fail the monotonicity check
    cfg = lq_config(grid={"L": 2.0, "M": 15}, dt=0.01, N_list=[2, 3],
                    tolerances={"picard_tol": 1e-6, "C_max": C_max})
    cfg["game"].update({"c_Q": 0.02, "c_G": 0.04, "T": 0.1})
    got, summary, _ = run(tmp_path, "stability", cfg)
    assert got == code
    assert summary["passed"] is (code == 0)
    assert (summary["results"]["fitted_C"] <= C_max) is (code == 0)


def test_uniqueness(tmp_path):
    cfg = lq_config()
    code, summary, _ = run(tmp_path, "uniqueness", cfg)
    assert code == 0
    assert summary["results"]["sup_difference"] <= 10 * 1e-6


def test_seed_override_recorded(tmp_path):
    cfg = {"weights": WEIGHTS, "seed": 0}
    code, summary, _ = run(tmp_path, "certify-weights", cfg,
                           extra=("--seed-override", "7"))
    assert code == 0
    assert summary["config"]["seed"] == 7


def test_negative_seed_override_exits_2(tmp_path):
    # it once ran and recorded the negative seed in its summary
    code, summary, _ = run(tmp_path, "uniqueness", lq_config(),
                           extra=("--seed-override", "-5"))
    assert code == 2
    assert summary is None


def test_determinism_two_runs(tmp_path):
    cfg = lq_config()
    cfg["game"].update({"c_Q": 0.01, "c_G": 0.01})
    cfg["T_list"] = [0.05, 0.1]
    outputs = []
    for k in range(2):
        code, _, o = run(tmp_path, "scan-horizon", cfg, name=f"c{k}.json",
                         out=f"out{k}")
        assert code == 0
        outputs.append((o / "scan.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_import_loads_no_scipy():
    src = str(Path(nash_horizon.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import nash_horizon.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", probe, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
