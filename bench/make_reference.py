"""Record the correctness gate's reference numbers into bench/reference.json.

    python3 bench/make_reference.py

The reference holds the baseline commit's headline numbers, and the gate
compares every later commit against them; re-recording it on a commit that
changed the numerics would hide that change.  Seed-dependent calls are
recorded for every workload seed 0..REFERENCE_SEEDS-1; every other call is
recorded once and checked to give the same numbers under a second seed.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

import gate
from run import THREAD_VARS

for var in THREAD_VARS:
    os.environ[var] = "1"

import workloads  # noqa: E402  (loads numpy: after the thread pin)


def numbers(call, out):
    workloads.write_configs([call], out)
    code, passed, results = workloads.run_call(call, out)
    if results is None:
        passed, results = workloads.read_summary(call, out)
    if code != 0 or not passed:
        raise SystemExit(f"{call.label} failed (exit {code}, passed {passed})")
    return workloads.headline(call, results)


def main():
    reference = {}
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        out = Path(tmp)
        for wl in workloads.WORKLOADS:
            reference[wl] = {}
            for k, call in enumerate(workloads.build(wl, 0)):
                if call.seeded:
                    reference[wl][call.label] = [
                        numbers(workloads.build(wl, s)[k], out)
                        for s in range(workloads.REFERENCE_SEEDS)]
                else:
                    got = numbers(call, out)
                    again = numbers(workloads.build(wl, 1)[k], out)
                    if gate.compare(again, got):
                        raise SystemExit(f"{call.label} depends on the seed")
                    reference[wl][call.label] = got
                print(wl, call.label, "recorded", file=sys.stderr)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
