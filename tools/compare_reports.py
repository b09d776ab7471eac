"""Check that two checkouts give the same results on the benchmark's reports.

Canonical reports cannot stay byte-identical when a change moves the floats,
so this compares what the results are made of instead.  Over every case of
``perfbench/workloads.make_cases`` (workloads ``suite``, ``ladder`` and
``tall``, seeds 0 and 1; see ``report_digests.iter_reports``) it records the
branch, the tight and slack rows B and N, the audit verdict, the certified
total and the oracle's lower bound.

Dump each checkout with its own copy of this script, then compare:

    python3 tools/compare_reports.py --dump > new.jsonl
    python3 tools/compare_reports.py old.jsonl new.jsonl

The comparison prints every mismatch and the largest relative differences,
and exits 1 unless both dumps cover the same cases with the same branches,
B/N, errors and audit verdicts, every audit passes, totals agree within
``TOTAL_RTOL`` and lower bounds within ``LOWER_RTOL``.
"""

from __future__ import annotations

import json
import sys

from report_digests import iter_reports

TOTAL_RTOL = 1e-9
LOWER_RTOL = 1e-6


def dump() -> int:
    for workload, seed, name, report, audit, oracle, _ in iter_reports():
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
                lower=None if oracle is None else oracle.lower_bound,
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


def compare(old_path: str, new_path: str) -> int:
    old, new = _load(old_path), _load(new_path)
    problems = []
    if old.keys() != new.keys():
        problems.append(f"case lists differ: {sorted(old.keys() ^ new.keys())}")
    worst = {"total": (0.0, None), "lower": (0.0, None)}
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key], new[key]
        for field in ("error", "branch", "B", "N", "audit_ok"):
            if a.get(field) != b.get(field):
                problems.append(f"{key}: {field} {a.get(field)!r} -> {b.get(field)!r}")
        if "error" in b:
            continue
        if not b["audit_ok"]:
            problems.append(f"{key}: audit fails")
        for field, tol in (("total", TOTAL_RTOL), ("lower", LOWER_RTOL)):
            rel = _rel(a.get(field), b.get(field))
            if rel > worst[field][0]:
                worst[field] = (rel, key)
            if rel > tol:
                problems.append(f"{key}: {field} {a.get(field)!r} -> {b.get(field)!r}"
                                f" (relative {rel:.3e} > {tol:.0e})")
    print(f"{len(new)} cases compared")
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
