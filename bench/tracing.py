"""Spans recorded from outside the program, around calls into each module's
public functions.

``install`` swaps each traced function for a wrapper in every
``nash_horizon`` module that refers to it, so calls between modules (and
within one) are seen; ``uninstall`` puts the originals back.  Nothing under
``src/`` changes.  Spans are kept in memory; the caller writes them out when
the run ends.

Counts labelled "computed" are derived from argument and result array sizes,
not measured.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    run: str = ""
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


class Tracer:
    """Single-threaded span recorder; the parent of a span is the innermost
    span open when it starts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._open[-1] if self._open else None,
                        name, time.perf_counter(), run=self.run_id)
            self.spans.append(span)
            self._open.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# computed counts


def time_steps(span: float, dt: float) -> int:
    """Steps of a uniform time grid covering ``span`` with step <= dt (the
    rounding the solvers use)."""
    return max(1, int(math.ceil(span / dt - 1e-12)))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def field_node_updates(f) -> int:
    """Node updates of an explicit time-stepper that produced field f."""
    return (f.times.size - 1) * math.prod(f.grid.shape)


def rk4_steps(dt: float, traj) -> int:
    """RK4 steps riccati_integrate took: the main pass plus the step-halving
    pass, which runs only when the main pass did not blow up."""
    if traj.blown_up:
        return traj.times.size - 1
    T = traj.spec.T
    return time_steps(T, dt) + time_steps(T, dt / 2)


def _space_norm_bytes(args, kwargs, result):
    derivs = _arg(args, kwargs, 0, "derivs")
    return {"bytes": sum(f.values.nbytes for f in derivs.values())}


def _picard_counts(args, kwargs, result):
    report = result[1]
    return {"sweeps": report.iterations, "converged": int(report.converged)}


def _mc_steps(args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    dt = _arg(args, kwargs, 3, "dt")
    paths = _arg(args, kwargs, 2, "paths")
    steps = time_steps(problem.T - problem.t0, dt)
    return {"path_steps": steps * paths * len(result)}


def _cli_bytes(args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv"))
    out = Path(argv[argv.index("--out") + 1])
    return {"bytes_written": sum(p.stat().st_size for p in out.iterdir())}


# per-layer metrics derived from array sizes rather than measured
COMPUTED = frozenset((
    "holder.space_norm.bytes", "pde_linear.solve_grid.node_updates",
    "pde_linear.solve_grid.node_updates_per_s",
    "pde_linear.solve_fpk_grid.node_updates_per_s",
    "pde_linear.solve_mc.path_steps_per_s",
    "oracle_lq.riccati_integrate.rk4_steps", "cli.bytes_written"))

TARGETS = (
    ("holder", "finite_diff", None),
    ("holder", "derivative_family", lambda a, k, r: {"fields": len(r)}),
    ("holder", "space_norm", _space_norm_bytes),
    ("nash", "picard_step", None),
    ("nash", "picard_solve", _picard_counts),
    ("nash", "triple_norm", None),
    ("nash", "contraction_probe", None),
    ("nash", "residual", None),
    ("nash", "horizon_scan", None),
    ("nash", "dimension_stability", None),
    ("nash", "uniqueness_probe", None),
    ("pde_linear", "solve_grid",
     lambda a, k, r: {"node_updates": field_node_updates(r)}),
    ("pde_linear", "solve_fpk_grid",
     lambda a, k, r: {"node_updates": field_node_updates(r.field)}),
    ("pde_linear", "solve_mc", _mc_steps),
    ("pde_linear", "verify_decay", None),
    ("pde_linear", "fpk_gradient_mass", None),
    ("oracle_lq", "riccati_integrate",
     lambda a, k, r: {"rk4_steps": rk4_steps(_arg(a, k, 1, "dt"), r)}),
    ("oracle_lq", "lq_value", None),
    ("weights", "build_weight", None),
    ("weights", "certify_csc", None),
    ("weights", "self_convolve", None),
    ("weights", "shift", None),
    ("weights", "multi_index_weight", None),
    ("cli", "main", _cli_bytes),
)


def install(tracer: Tracer) -> list:
    """Wrap every target wherever a nash_horizon module refers to it.
    Returns the patch list for ``uninstall``."""
    patched = []
    for modname, fname, count in TARGETS:
        orig = getattr(importlib.import_module(f"nash_horizon.{modname}"), fname)
        wrapped = tracer.wrap(f"{modname}.{fname}", orig, count)
        for name, mod in list(sys.modules.items()):
            if (name.startswith("nash_horizon") and mod is not None
                    and getattr(mod, fname, None) is orig):
                setattr(mod, fname, wrapped)
                patched.append((mod, fname, orig))
    return patched


def uninstall(patched: list) -> None:
    for mod, fname, orig in reversed(patched):
        setattr(mod, fname, orig)


# ---------------------------------------------------------------------------
# span arithmetic


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id] if c.end > s.start and c.start < s.end)
        out[s.id] = (s.end - s.start) - covered
    return out


def _has_ancestor(span, name: str, by_id: dict) -> bool:
    p = span.parent
    while p is not None:
        if by_id[p].name == name:
            return True
        p = by_id[p].parent
    return False


def layer_metrics(spans, wall: float) -> dict:
    """Per-layer numbers of one traced pass that took ``wall`` seconds."""
    st = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    counts = defaultdict(float)
    layer_self = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += st[s.id]
        incl[s.name] += s.end - s.start
        layer_self[s.name.split(".")[0]] += st[s.id]
        for k, v in s.counts.items():
            counts[f"{s.name}.{k}"] += v

    def rate(num, secs):
        return num / secs if secs > 0 else 0.0

    solves = [s for s in spans if s.name == "nash.picard_solve"]
    post = 0.0
    for s in solves:
        sweep_ends = [c.end for c in spans if c.parent == s.id
                      and c.name in ("nash.picard_step", "nash.triple_norm")]
        post += s.end - max(sweep_ends, default=s.end)
    norm_in_solve = sum(s.end - s.start for s in spans
                        if s.name == "nash.triple_norm"
                        and _has_ancestor(s, "nash.picard_solve", by_id))
    picard_incl = incl["nash.picard_solve"]
    roots = sum(s.end - s.start for s in spans if s.parent is None)
    weight_fns = [n for n in calls if n.startswith("weights.")]

    m = {
        "holder.space_norm.self_s": self_s["holder.space_norm"],
        "holder.space_norm.calls": calls["holder.space_norm"],
        "holder.space_norm.bytes": counts["holder.space_norm.bytes"],
        "holder.derivative_family.self_s": self_s["holder.derivative_family"],
        "holder.derivative_family.fields":
            counts["holder.derivative_family.fields"],
        "holder.finite_diff.self_s": self_s["holder.finite_diff"],
        "holder.finite_diff.calls": calls["holder.finite_diff"],
        "nash.triple_norm.self_s": self_s["nash.triple_norm"],
        "nash.triple_norm.calls": calls["nash.triple_norm"],
        "nash.triple_norm.share": rate(norm_in_solve, picard_incl),
        "nash.picard_solve.incl_s": picard_incl,
        "nash.picard_step.self_s": self_s["nash.picard_step"],
        "nash.picard_step.calls": calls["nash.picard_step"],
        "nash.picard_solve.calls": len(solves),
        "nash.picard_solve.sweeps": counts["nash.picard_solve.sweeps"],
        "nash.picard_solve.converged_ratio":
            rate(counts["nash.picard_solve.converged"], len(solves)),
        "nash.picard_solve.post_s": post,
        "nash.contraction_probe.calls": calls["nash.contraction_probe"],
        "nash.contraction_probe.self_s": self_s["nash.contraction_probe"],
        "nash.residual.self_s": self_s["nash.residual"],
        "pde_linear.solve_grid.self_s": self_s["pde_linear.solve_grid"],
        "pde_linear.solve_grid.calls": calls["pde_linear.solve_grid"],
        "pde_linear.solve_grid.node_updates":
            counts["pde_linear.solve_grid.node_updates"],
        "pde_linear.solve_grid.node_updates_per_s":
            rate(counts["pde_linear.solve_grid.node_updates"],
                 self_s["pde_linear.solve_grid"]),
        "pde_linear.solve_fpk_grid.self_s": self_s["pde_linear.solve_fpk_grid"],
        "pde_linear.solve_fpk_grid.node_updates_per_s":
            rate(counts["pde_linear.solve_fpk_grid.node_updates"],
                 self_s["pde_linear.solve_fpk_grid"]),
        "pde_linear.solve_mc.self_s": self_s["pde_linear.solve_mc"],
        "pde_linear.solve_mc.path_steps_per_s":
            rate(counts["pde_linear.solve_mc.path_steps"],
                 self_s["pde_linear.solve_mc"]),
        "pde_linear.verify_decay.self_s": self_s["pde_linear.verify_decay"],
        "oracle_lq.riccati_integrate.self_s":
            self_s["oracle_lq.riccati_integrate"],
        "oracle_lq.riccati_integrate.rk4_steps":
            counts["oracle_lq.riccati_integrate.rk4_steps"],
        "oracle_lq.lq_value.calls": calls["oracle_lq.lq_value"],
        "oracle_lq.lq_value.self_s": self_s["oracle_lq.lq_value"],
        "weights.self_s": sum(self_s[n] for n in weight_fns),
        "weights.calls": sum(calls[n] for n in weight_fns),
        "cli.main.self_s": self_s["cli.main"],
        "cli.bytes_written": counts["cli.main.bytes_written"],
        "trace.spans": len(spans),
        "trace.coverage": rate(roots, wall),
    }
    for layer in ("holder", "nash", "pde_linear", "oracle_lq", "weights", "cli"):
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    return m
