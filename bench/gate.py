"""Correctness gate: every call must exit 0, report ``passed: true`` and
reproduce its headline numbers recorded from the baseline commit.

The numbers must agree to 1e-12 relative.  ``sup_difference`` is the
sup-distance between two fixed points of order one, so it sits at round-off
and is held to 1e-12 absolute instead; a relative bound on a round-off
number would demand bit equality.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
RTOL = 1e-12
ABS_FLOOR = {"sup_difference": 1.0}


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def expected(reference: dict, workload: str, call, wseed: int) -> dict:
    entry = reference[workload][call.label]
    return entry[wseed] if call.seeded else entry


def compare(got: dict, want: dict) -> list:
    """Mismatch messages; empty when every reference number is reproduced."""
    bad = []
    for key, ref in want.items():
        if key not in got:
            bad.append(f"{key}: missing")
            continue
        val = float(got[key])
        tol = RTOL * max(abs(float(ref)), ABS_FLOOR.get(key, 0.0))
        if not abs(val - float(ref)) <= tol:
            bad.append(f"{key}: got {val!r}, reference {ref!r}")
    return bad


def check(code: int, passed: bool, got: dict, want: dict) -> list:
    """All reasons a call failed the gate (empty list: it passed)."""
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    if not passed:
        bad.append("passed is false")
    return bad + compare(got, want)
