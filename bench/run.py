"""nash-horizon benchmark.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is lq-2d, players-4d, linear-solvers, or ``all`` (each workload in
its own process, one after another).  Each workload is a closed loop with one
caller: passes over the workload's calls repeat while the next pass is
expected to end within S seconds (at least one pass).  Every call goes
through the correctness gate (bench/gate.py).

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (bench/tracing.py).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Results, the
environment and (traced) the spans are also written under .bench_out/.

See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
PROGRAM = ROOT / "src" / "nash_horizon" / "cli.py"
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
# BLAS and OpenMP pools are pinned to one thread: the plain single-threaded
# baseline, and a load that stays within a small box's cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def tail_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def time_setups(workload, seed, out, runs):
    """Wall seconds of ``runs`` fresh set-up processes."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
           str(out / "setup")]
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def import_breakdown(workload, seed, out):
    """Median cumulative import seconds of nash_horizon.cli and of the
    scipy.stats it pulls in, from ``python -X importtime``."""
    cmd = [sys.executable, "-X", "importtime", str(HERE / "setup_probe.py"),
           workload, str(seed), str(out / "setup")]
    cli_s, stats_s = [], []
    for _ in range(IMPORTTIME_RUNS):
        err = subprocess.run(cmd, check=True, timeout=120, text=True,
                             capture_output=True).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
                except ValueError:
                    continue        # the header line
        cli_s.append(cumulative.get("nash_horizon.cli", 0.0)
                     + cumulative.get("nash_horizon", 0.0))
        stats_s.append(cumulative.get("scipy.stats", 0.0))
    return statistics.median(cli_s), statistics.median(stats_s)


def environment(thread_env_before):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "thread_vars_inherited": thread_env_before,
            "thread_vars_used": {k: os.environ[k] for k in THREAD_VARS}}


class Runner:
    """Issues a workload's calls, times them and gates their outputs."""

    def __init__(self, workload, seed, out):
        # imports numpy and the program: only after the thread pin
        import workloads
        self.wl = workloads
        self.workload = workload
        self.wseed = workloads.workload_seed(seed)
        self.calls = workloads.build(workload, seed)
        self.out = out
        self.reference = gate.load_reference()
        workloads.write_configs(self.calls, out)
        self.attempted = 0
        self.failures = []
        self.oracle_err = 0.0
        self.mc_gap = None
        self.call_walls = {c.label: [] for c in self.calls}

    def one_pass(self):
        """Seconds spent inside the calls of one pass over the workload."""
        busy = 0.0
        for call in self.calls:
            shutil.rmtree(self.out / call.label, ignore_errors=True)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                code, passed, results = self.wl.run_call(call, self.out)
            except Exception:
                busy += time.perf_counter() - t0
                self.failures.append((call.label, traceback.format_exc()))
                continue
            took = time.perf_counter() - t0
            self.call_walls[call.label].append(took)
            busy += took
            if results is None:
                passed, results = self.wl.read_summary(call, self.out)
            want = gate.expected(self.reference, self.workload, call,
                                 self.wseed)
            try:
                got = self.wl.headline(call, results)
                err = self.wl.oracle_error(call, results)
            except (KeyError, TypeError, IndexError) as e:
                got, err = {}, None
                self.failures.append((call.label, f"bad results: {e!r}"))
            bad = gate.check(code, passed, got, want)
            if bad:
                self.failures.append((call.label, "; ".join(bad)))
            if err is not None:
                self.oracle_err = max(self.oracle_err, err)
            if call.command is None and "mc_gap" in results:
                self.mc_gap = results["mc_gap"]
        return busy


def measure(runner, seconds, traced):
    """Untraced pass walls and (when traced) per-pass layer metrics."""
    walls, layers, spans = [], [], []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        walls.append(runner.one_pass())
        if traced:
            tracer = tracing.Tracer(f"{runner.workload}-{len(layers)}")
            patched = tracing.install(tracer)
            try:
                wall = runner.one_pass()
            finally:
                tracing.uninstall(patched)
            metrics = tracing.layer_metrics(tracer.spans, wall)
            metrics["trace.wall_s"] = wall
            layers.append(metrics)
            spans.extend(tracer.spans)
        elapsed = time.perf_counter() - t_start
        if elapsed + (time.perf_counter() - t_round) > seconds:
            return walls, layers, spans


def run_workload(args, spec):
    out = ROOT / ".bench_out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    thread_env_before = {k: os.environ.get(k) for k in THREAD_VARS}
    for k in THREAD_VARS:
        os.environ[k] = "1"
    if args.trace:
        setups = []
        import_s, stats_s = import_breakdown(args.workload, args.seed, out)
    else:
        setups = time_setups(args.workload, args.seed, out, SETUP_RUNS)
    runner = Runner(args.workload, args.seed, out)
    walls, layers, spans = measure(runner, args.seconds, bool(args.trace))
    env = environment(thread_env_before)

    if args.trace:
        values = {k: statistics.median(m[k] for m in layers)
                  for k in layers[0]}
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - statistics.median(walls))
        values["setup.import_s"] = import_s
        values["setup.scipy_stats_import_s"] = stats_s
        wanted = spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "oracle_err": runner.oracle_err}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark computes no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "workload_seed": runner.wseed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "pass_walls_s": walls, "setup_samples_s": setups,
              "call_walls_s": runner.call_walls, "mc_gap": runner.mc_gap,
              "failures": runner.failures, "result": result}
    (out / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))
    if spans:
        with open(out / f"spans-seed{args.seed}.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s.to_dict()) + "\n")

    report(args, env, runner, walls, metrics)
    print(json.dumps(result))
    return 0


def report(args, env, runner, walls, metrics):
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {args.workload}  seed {args.seed} (workload seed "
          f"{runner.wseed})  trace {args.trace}")
    print("environment " + json.dumps(env))
    for label, msg in runner.failures:
        print(f"FAILED {label}: {msg.strip()}", file=sys.stderr)
    for name, m in metrics.items():
        note = " (computed)" if name in tracing.COMPUTED else ""
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}{note}")
    tail = tail_percentile(walls)
    print(f"  untraced passes: {len(walls)}, median "
          f"{statistics.median(walls):.4f} s, " +
          (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail else
           "no percentile with ten samples above it"))
    print(f"  fail_rate: {len(runner.failures)}/{runner.attempted} calls = "
          f"{len(runner.failures) / runner.attempted:.4f}")
    if runner.mc_gap is not None:
        print(f"  mc_gap: {runner.mc_gap:.6e} (largest |MC - grid|, gated)")


def run_all(args):
    """Each workload in its own process; prints their reports in turn."""
    results = {}
    for wl in workload_names():
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, text=True, capture_output=True,
                              timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {wl} exited {proc.returncode}")
        results[wl] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}.{k}": v for wl, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


def workload_names():
    return [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=workload_names() + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not PROGRAM.is_file():
        print(f"error: program source {PROGRAM} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, json.loads(SPEC.read_text()))


if __name__ == "__main__":
    sys.exit(main())
