"""Print a digest of every benchmark report, to compare two checkouts.

For each case of ``perfbench/workloads.make_cases`` (workloads ``suite``,
``ladder`` and ``tall``, seeds 0 and 1) this runs the benchmark's pipeline:
``bound_h0``, the audit, and the sampling oracle wherever the workload runs
it.  It prints one line per case: workload, seed, case name, the sha256 of
the canonical JSON report and the audit verdict (or the error raised).
The package is imported from this checkout's ``src``.  Run it in two
checkouts and ``diff`` the outputs:

    python3 tools/report_digests.py > digests.txt
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite", "ladder", "tall")
SEEDS = (0, 1)


def _load_workloads():
    # perfbench/ is read, never written: no bytecode cache is left there
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def main() -> int:
    workloads = _load_workloads()
    sys.path.insert(0, str(ROOT / "src"))
    from hoffbound import (
        HoffboundError,
        ProblemInstance,
        audit_report,
        bound_h0,
        canonical_report_json,
        lower_bound_monte_carlo,
        report_to_dict,
    )
    from hoffbound.cli import SANDWICH_RTOL

    for workload in WORKLOADS:
        for seed in SEEDS:
            for case in workloads.make_cases(workload, seed):
                inst = ProblemInstance.from_matrix(case.A)
                try:
                    report = bound_h0(inst)
                except HoffboundError as exc:
                    print(workload, seed, case.name, f"raised {type(exc).__name__}")
                    continue
                ok = audit_report(inst, report).ok
                verdict = "audit-ok" if ok else "audit-FAILED"
                oracle = None
                if case.oracle_seed is not None:
                    x_hat = None if report.partition is None else report.partition.x_hat
                    oracle = lower_bound_monte_carlo(
                        inst, num_samples=workloads.ORACLE_SAMPLES,
                        seed=case.oracle_seed, x_hat=x_hat,
                    )
                text = canonical_report_json(
                    report_to_dict(report, oracle, sandwich_rtol=SANDWICH_RTOL)
                )
                digest = hashlib.sha256(text.encode()).hexdigest()
                print(workload, seed, case.name, digest, verdict)
    return 0


if __name__ == "__main__":
    sys.exit(main())
