#!/usr/bin/env python3
"""Smoke check of the benchmark at reduced size.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` at ``--size smoke``, untraced and
traced, and asserts that each run exits 0, ends with a result line of the
required shape, reports correct outputs, and emits every end-to-end metric
(untraced) or every per-layer metric (traced) named in ``BENCHMARK.json``,
with its unit.  It also asserts that seed-0 ``suite`` is still exactly the
acceptance suite: the matrices of ``tests/helpers.py`` (generator seeds 5000+k
and 6000+k) with oracle seeds 0-119.  Takes well under a minute.
"""

from __future__ import annotations

import importlib.util
import json
import numbers
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_suite_matches_acceptance() -> None:
    """Seed-0 suite must equal the acceptance test's matrices and oracle seeds."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import make_cases

    spec = importlib.util.spec_from_file_location("acceptance_helpers",
                                                  ROOT / "tests" / "helpers.py")
    helpers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(helpers)
    expected = ([helpers.gaussian_matrix(5000 + k) for k in range(100)]
                + [helpers.degenerate_matrix(6000 + k) for k in range(20)])
    cases = make_cases("suite", 0)
    if len(cases) != len(expected):
        raise AssertionError(f"suite has {len(cases)} instances, expected {len(expected)}")
    for k, (case, A) in enumerate(zip(cases, expected)):
        if case.oracle_seed != k or not np.array_equal(case.A, A):
            raise AssertionError(f"seed-0 suite instance {k} ({case.name}) differs "
                                 "from the acceptance suite")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n"
                             f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(result: dict, wanted: list[dict], label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys are {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        raise AssertionError(f"{label}: outputs not correct: {result}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"{label}: attempted is {result['attempted']!r}")
    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise AssertionError(f"{label}: missing {missing}, unexpected {extra}")
    for m in wanted:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            raise AssertionError(f"{label}: {m['name']} unit {got.get('unit')!r}, "
                                 f"expected {m['unit']!r}")
        if not isinstance(got.get("value"), numbers.Real):
            raise AssertionError(f"{label}: {m['name']} value {got.get('value')!r}")


def main() -> int:
    check_suite_matches_acceptance()
    print("suite: seed 0 equals the acceptance suite")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        check(run(workload, 0), spec["end_to_end"], f"{workload} untraced")
        check(run(workload, 1), spec["per_layer"], f"{workload} traced")
        print(f"{workload}: every metric emitted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
