"""Self-tests of the benchmark harness: span arithmetic, the correctness
gate and the computed work counts.

    python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nash_horizon import oracle_lq, pde_linear  # noqa: E402
from nash_horizon.holder import SpatialGrid  # noqa: E402
from nash_horizon.weights import build_weight  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_time_of_synthetic_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5)
    # and [8, 9]; grandchild [2, 3] inside the first child
    spans = [Span(0, None, "a.root", 0.0, 10.0),
             Span(1, 0, "b.x", 1.0, 4.0),
             Span(2, 0, "b.y", 3.0, 6.0),
             Span(3, 0, "c.z", 8.0, 9.0),
             Span(4, 1, "c.z", 2.0, 3.0)]
    st = tracing.self_times(spans)
    assert st == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}
    m = tracing.layer_metrics(spans, wall=10.0)
    assert m["trace.coverage"] == 1.0
    assert m["trace.spans"] == 5


def test_picard_post_time_and_norm_share():
    spans = [Span(0, None, "nash.picard_solve", 0.0, 10.0),
             Span(1, 0, "nash.picard_step", 0.0, 2.0),
             Span(2, 0, "nash.triple_norm", 2.0, 6.0),
             Span(3, 2, "holder.space_norm", 2.5, 5.5),
             Span(4, 0, "pde_linear.verify_decay", 7.0, 9.0),
             Span(5, None, "nash.triple_norm", 11.0, 12.0)]
    m = tracing.layer_metrics(spans, wall=12.0)
    assert m["nash.picard_solve.post_s"] == 4.0
    # only the norm inside the solve counts, over inclusive solve time
    assert m["nash.triple_norm.share"] == 0.4
    assert m["nash.triple_norm.calls"] == 2
    assert m["nash.triple_norm.self_s"] == 2.0
    assert m["layer.holder.self_s"] == 3.0


def test_gate_fires_on_perturbed_reference():
    ref = gate.load_reference()
    want = ref["lq-2d"]["oracle-compare"]
    assert gate.check(0, True, dict(want), want) == []
    perturbed = dict(want, max_err=want["max_err"] * (1 + 1e-10))
    bad = gate.check(0, True, want, perturbed)
    assert len(bad) == 1 and bad[0].startswith("max_err")
    assert gate.check(1, True, want, want) == ["exit code 1"]
    assert gate.check(0, False, want, want) == ["passed is false"]
    assert gate.compare({}, want)


def test_gate_round_off_number_has_absolute_floor():
    assert gate.compare({"sup_difference": 2e-13},
                        {"sup_difference": 1.4e-13}) == []
    assert gate.compare({"sup_difference": 2e-12},
                        {"sup_difference": 1.4e-13})


def test_reference_covers_every_call_and_seed():
    ref = gate.load_reference()
    for wl in workloads.WORKLOADS:
        for call in workloads.build(wl, 0):
            entry = ref[wl][call.label]
            if call.seeded:
                assert len(entry) == workloads.REFERENCE_SEEDS
            else:
                assert isinstance(entry, dict) and entry


def _traced(fn):
    tracer = tracing.Tracer("test")
    patched = tracing.install(tracer)
    try:
        fn()
    finally:
        tracing.uninstall(patched)
    return tracer.spans


def test_computed_node_updates_match_hand_count():
    grid = SpatialGrid(2, 1.0, 5)
    problem = pde_linear.LinearProblem(
        pde_linear.DiffusionSpec.isotropic(2, 0.1), None, None,
        pde_linear.TerminalSpec(lambda X: X[0] ** 2), 0.0, 0.1)
    spans = _traced(lambda: pde_linear.solve_grid(problem, grid, 0.01))
    # 10 backward steps over 5 x 5 nodes
    assert [s.counts for s in spans] == [{"node_updates": 250}]


def test_computed_rk4_and_path_steps_match_hand_count():
    beta = build_weight("polynomial", {"a": 3}, 8)
    spec = oracle_lq.decay_lq_game(2, beta, c_Q=0.1, c_G=0.2, sigma=0.25,
                                   T=0.2)
    problem = pde_linear.LinearProblem(
        pde_linear.DiffusionSpec.isotropic(2, 0.5), None, None,
        pde_linear.TerminalSpec(lambda X: X[0]), 0.0, 0.25)

    def calls():
        oracle_lq.riccati_integrate(spec, 0.004)
        pde_linear.solve_mc(problem, [[0.0, 0.0], [0.5, 0.5]], paths=1000,
                            dt=0.05, seed=0)

    spans = _traced(calls)
    # 50 steps of 0.004 plus 100 in the step-halving pass
    assert spans[0].counts == {"rk4_steps": 150}
    # 5 steps x 1000 paths x 2 query points
    assert spans[1].counts == {"path_steps": 10_000}


def test_uninstall_restores_the_program():
    before = (pde_linear.solve_grid, workloads.cli.main)
    _traced(lambda: None)
    assert (pde_linear.solve_grid, workloads.cli.main) == before


def test_benchmark_spec_names_the_workloads():
    assert run.workload_names() == list(workloads.WORKLOADS)


def test_tail_percentile():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(20))) == (50.0, 9)
    assert run.tail_percentile(list(range(100))) == (90.0, 89)
