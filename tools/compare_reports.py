"""Check that two checkouts give the same results on the benchmark's reports.

Over every case of ``perfbench/workloads.make_cases`` (workloads ``suite``,
``ladder`` and ``tall``, seeds 0 and 1) this runs the benchmark's pipeline:
``bound_h0``, the audit, and the sampling oracle wherever the workload runs
it.  For each case it records the branch, the tight and slack rows B and N,
the audit verdict, the certified total, the case-B ``sigma`` and the stitch
value (None where the branch has none), the partition's ``lp_iterations``
and margin ``t`` (None without a partition), the oracle's lower bound, and the
sha256 of the canonical JSON report, of each of its fields in ``FIELDS``
and of the audit metrics as sorted JSON (or the error raised).  The package
is imported from this checkout's ``src``.

Dump each checkout with a copy of this script placed in it (the same
version on both sides, so that both dumps carry the same fields), then
compare:

    python3 tools/compare_reports.py --dump > new.jsonl
    python3 tools/compare_reports.py old.jsonl new.jsonl

The comparison prints how many canonical reports and audit metrics are
byte-identical, with the cases that differ, and how many cases differ in
each report field, so a change names the fields it moved from this output;
a change that moves the floats cannot keep them byte-identical, and that
alone is no failure.  It prints every mismatch, how many cases differ in
``lp_iterations``, how many cases each side proved before the partition LP
(``t`` = 0), and the largest relative change of the total, ``sigma``, the
stitch value, ``t`` (over the cases where both sides ran the LP) and the
lower bound, so a change that moves the floats reports by how much, and
exits 1 unless both dumps cover the same cases with the same branches, B/N,
errors and audit verdicts, every audit passes, totals agree within
``TOTAL_RTOL`` and lower bounds within ``LOWER_RTOL``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite", "ladder", "tall")
SEEDS = (0, 1)
TOTAL_RTOL = 1e-9
LOWER_RTOL = 1e-6
# Fields of the canonical payload digested one by one, as dotted paths.
FIELDS = ("partition", "bounds.case_N", "bounds.case_B", "bounds.stitch",
          "oracle", "sandwich", "diagnostics")


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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _field_digests(text: str) -> dict[str, str]:
    """sha256 of each of ``FIELDS`` of a canonical report, as sorted JSON."""
    payload = json.loads(text)
    digests = {}
    for path in FIELDS:
        value = payload
        for key in path.split("."):
            value = value[key]
        digests[path] = _sha256(json.dumps(value, sort_keys=True,
                                           separators=(",", ":")))
    return digests


def iter_reports():
    """Run the pipeline on every case, in order.

    Yields ``(workload, seed, case name, report, audit, oracle, text)``:
    the bound report, its audit, the oracle result (None where the workload
    skips the oracle) and the canonical JSON of the report.  When
    ``bound_h0`` raises, ``report`` is the exception and the rest are None.
    """
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
                    yield workload, seed, case.name, exc, None, None, None
                    continue
                audit = audit_report(inst, report)
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
                yield workload, seed, case.name, report, audit, oracle, text


def dump() -> int:
    for workload, seed, name, report, audit, oracle, text in iter_reports():
        row = {"workload": workload, "seed": seed, "case": name}
        if audit is None:
            row["error"] = type(report).__name__
        else:
            part = report.partition
            row.update(
                branch=report.branch,
                B=None if part is None else list(part.B),
                N=None if part is None else list(part.N),
                audit_ok=audit.ok,
                total=report.total,
                sigma=None if report.case_b is None else report.case_b.sigma,
                stitch_value=None if report.stitch is None else report.stitch.value,
                lp_iterations=None if part is None else part.lp_iterations,
                t=None if part is None else part.t,
                lower=None if oracle is None else oracle.lower_bound,
                report_sha256=_sha256(text),
                field_sha256=_field_digests(text),
                audit_sha256=_sha256(json.dumps(audit.metrics, sort_keys=True)),
            )
        print(json.dumps(row, sort_keys=True))
    return 0


def _load(path: str) -> dict[tuple, dict]:
    with open(path) as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    return {(r["workload"], r["seed"], r["case"]): r for r in rows}


def _rel(a: float | None, b: float | None) -> float:
    if a is None or b is None:
        return 0.0 if a == b else float("inf")
    return abs(a - b) / max(abs(a), abs(b), 1e-300) if a != b else 0.0


def _before_lp(row: dict) -> bool:
    """Whether the case's split was proven before the partition LP ran: every
    LP iterate has t > 0, and such a split reports t = 0."""
    return row.get("t") == 0.0


def compare(old_path: str, new_path: str) -> int:
    old, new = _load(old_path), _load(new_path)
    common = sorted(old.keys() & new.keys())
    problems = []
    if old.keys() != new.keys():
        problems.append(f"case lists differ: {sorted(old.keys() ^ new.keys())}")
    worst = dict.fromkeys(("total", "sigma", "stitch_value", "t", "lower"), (0.0, None))
    for key in common:
        a, b = old[key], new[key]
        for field in ("error", "branch", "B", "N", "audit_ok"):
            if a.get(field) != b.get(field):
                problems.append(f"{key}: {field} {a.get(field)!r} -> {b.get(field)!r}")
        if "error" in b:
            continue
        if not b["audit_ok"]:
            problems.append(f"{key}: audit fails")
        # sigma, the stitch value and t are reported, not gated
        for field, tol in (("total", TOTAL_RTOL), ("sigma", math.inf),
                           ("stitch_value", math.inf), ("t", math.inf),
                           ("lower", LOWER_RTOL)):
            if field == "t" and (_before_lp(a) or _before_lp(b)):
                continue
            rel = _rel(a.get(field), b.get(field))
            if rel > worst[field][0]:
                worst[field] = (rel, key)
            if rel > tol:
                problems.append(f"{key}: {field} {a.get(field)!r} -> {b.get(field)!r}"
                                f" (relative {rel:.3e} > {tol:.0e})")
    print(f"{len(new)} cases compared")
    for field, label in (("report_sha256", "canonical reports"),
                         ("audit_sha256", "audit metrics")):
        differ = [key for key in common if old[key].get(field) != new[key].get(field)]
        print(f"{len(common) - len(differ)} of {len(common)} {label} byte-identical")
        for key in differ:
            print("DIFFERS", field, key)
    for field in FIELDS:
        differ = sum(1 for key in common
                     if old[key].get("field_sha256", {}).get(field)
                     != new[key].get("field_sha256", {}).get(field))
        print(f"{differ} of {len(common)} cases differ in {field}")
    differ = sum(1 for key in common
                 if old[key].get("lp_iterations") != new[key].get("lp_iterations"))
    print(f"{differ} of {len(common)} cases differ in lp_iterations")
    before = [sum(1 for key in common if _before_lp(side[key])) for side in (old, new)]
    print(f"{before[0]} (old) and {before[1]} (new) of {len(common)} cases "
          "proven before the partition LP")
    for field, (rel, key) in worst.items():
        where = f" at {key}" if key else ""
        print(f"largest relative change in {field}: {rel:.3e}{where}")
    for line in problems:
        print("MISMATCH", line)
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    if argv == ["--dump"]:
        return dump()
    if len(argv) == 2:
        return compare(*argv)
    print(__doc__.strip().splitlines()[0], file=sys.stderr)
    print("usage: compare_reports.py --dump | compare_reports.py OLD NEW",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
