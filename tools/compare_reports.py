"""Check that two checkouts give the same results on the benchmark's reports.

Over every case of ``perfbench/workloads.make_cases`` (workloads ``suite``,
``ladder`` and ``tall``, seeds 0 and 1) ``--dump`` runs the command line's
pipeline (``hoffbound.cli.pipeline``: ``bound_h0``, the audit, and the
sampling oracle wherever the workload runs it).  It writes one JSON line per
case with the canonical report text, the audit verdict and the audit
metrics, or the type of the error the pipeline raised.  The package is
imported from this checkout's ``src``.

Dump each checkout with a copy of this script placed in it, then compare:

    python3 tools/compare_reports.py --dump > new.jsonl
    python3 tools/compare_reports.py old.jsonl new.jsonl

The comparison prints how many canonical reports and audit metrics are
byte-identical.  It then walks both reports and both metric dicts leaf by
leaf and prints one row per field path that moved, with list indices folded
(``partition.x_hat``, ``audit.slack_margin``): in how many cases it differs,
in how many of those it rose and in how many it fell, its largest relative
change and the case where that occurs.  A case counts as ``mixed`` when a
folded path rose at one index and fell at another; the split is printed only
for fields with a numeric change.  A non-numeric leaf that changed counts as
a relative change of inf.  A leaf present on one side only prints as
``removed`` or ``added``, with the number of cases and the first of them.
Moved fields are reported, not gated.  Last come the ``MISMATCH`` lines;
the exit code is 1 unless both dumps cover the same cases with the same
branches, B/N, errors and audit verdicts, every audit and every sandwich
check (``sandwich.ok``) of the new dump passes, totals agree within
``TOTAL_RTOL`` and lower bounds within ``LOWER_RTOL``.
"""

from __future__ import annotations

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
_MISSING = object()


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


def dump() -> int:
    workloads = _load_workloads()
    sys.path.insert(0, str(ROOT / "src"))
    from hoffbound import HoffboundError, ProblemInstance, canonical_report_json
    from hoffbound.cli import pipeline

    for workload in WORKLOADS:
        for seed in SEEDS:
            for case in workloads.make_cases(workload, seed):
                row = {"workload": workload, "seed": seed, "case": case.name}
                samples = 0 if case.oracle_seed is None else workloads.ORACLE_SAMPLES
                try:
                    _, audit, _, payload = pipeline(
                        ProblemInstance.from_matrix(case.A), samples, case.oracle_seed)
                except HoffboundError as exc:
                    row["error"] = type(exc).__name__
                else:
                    row.update(report=canonical_report_json(payload),
                               audit_ok=audit.ok, audit=audit.metrics)
                print(json.dumps(row, sort_keys=True))
    return 0


def _load(path: str) -> dict[tuple, dict]:
    """Dump rows keyed by (workload, seed, case), each with its ``tree`` of
    compared leaves (the parsed report and the audit metrics, or the error)
    and the gated values read from the report."""
    cases = {}
    with open(path) as handle:
        for line in filter(str.strip, handle):
            row = json.loads(line)
            if "error" in row:
                row["tree"] = {"error": row["error"]}
            else:
                tree = {**json.loads(row["report"]), "audit": row["audit"]}
                part = tree["partition"]
                row.update(tree=tree, branch=tree["branch"], B=part["B"],
                           N=part["N"], total=tree["bounds"]["total"],
                           lower=(tree["oracle"] or {}).get("lower_bound"),
                           sandwich_ok=(tree.get("sandwich") or {}).get("ok", True))
            cases[row["workload"], row["seed"], row["case"]] = row
    return cases


def _leaves(node, path: tuple = ()) -> dict[tuple, object]:
    """Each leaf of a JSON tree (an empty list or dict is one) by its path."""
    if not isinstance(node, (dict, list)) or not node:
        return {path: node}
    leaves = {}
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        leaves.update(_leaves(child, path + (key,)))
    return leaves


def _rel(a, b) -> float:
    """Relative change from a to b: 0 if equal, inf unless both are numbers."""
    if a == b:
        return 0.0
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def compare(old_path: str, new_path: str) -> int:
    old, new = _load(old_path), _load(new_path)
    common = sorted(old.keys() & new.keys())
    problems = []
    if old.keys() != new.keys():
        problems.append(f"case lists differ: {sorted(old.keys() ^ new.keys())}")
    # (field path, "changed" | "removed" | "added") -> (cases, largest
    # relative change, the case where it occurs or the first case)
    moved: dict[tuple[str, str], tuple[int, float, tuple]] = {}
    # field path -> cases where its numeric leaves only rose, only fell, both
    trend: dict[str, list[int]] = {}
    for key in common:
        a, b = old[key], new[key]
        for field in ("error", "branch", "B", "N", "audit_ok"):
            if a.get(field) != b.get(field):
                problems.append(f"{key}: {field} {a.get(field)!r} -> {b.get(field)!r}")
        if "error" not in b:
            if not b["audit_ok"]:
                problems.append(f"{key}: audit fails")
            if not b["sandwich_ok"]:
                problems.append(f"{key}: sandwich fails")
            for field, tol in (("total", TOTAL_RTOL), ("lower", LOWER_RTOL)):
                rel = _rel(a.get(field), b.get(field))
                if rel > tol:
                    problems.append(f"{key}: {field} {a.get(field)!r} -> "
                                    f"{b.get(field)!r} (relative {rel:.3e} > {tol:.0e})")
        leaves_a, leaves_b = _leaves(a["tree"]), _leaves(b["tree"])
        worst: dict[tuple[str, str], float] = {}
        signs: dict[str, set[bool]] = {}
        for path in leaves_a.keys() | leaves_b.keys():
            leaf_a, leaf_b = leaves_a.get(path, _MISSING), leaves_b.get(path, _MISSING)
            rel = _rel(leaf_a, leaf_b)
            if rel > 0.0:
                kind = ("added" if leaf_a is _MISSING else "removed" if leaf_b is _MISSING
                        else "changed")
                name = (".".join(k for k in path if isinstance(k, str)), kind)
                worst[name] = max(worst.get(name, 0.0), rel)
                if rel < math.inf:
                    signs.setdefault(name[0], set()).add(leaf_b > leaf_a)
        for name, rel in worst.items():
            count, top, where = moved.get(name, (0, 0.0, key))
            moved[name] = (count + 1, *((rel, key) if rel > top else (top, where)))
        for name, rose in signs.items():
            split = trend.setdefault(name, [0, 0, 0])
            split[2 if len(rose) == 2 else 0 if True in rose else 1] += 1
    print(f"{len(new)} cases compared")
    for field, label in (("report", "canonical reports"), ("audit", "audit metrics")):
        same = sum(1 for key in common if json.dumps(old[key].get(field), sort_keys=True)
                   == json.dumps(new[key].get(field), sort_keys=True))
        print(f"{same} of {len(common)} {label} byte-identical")
    for (name, kind), (count, rel, where) in sorted(moved.items()):
        if kind == "changed":
            split = ""
            if name in trend:
                up, down, mixed = trend[name]
                split = f" ({up} up, {down} down{f', {mixed} mixed' if mixed else ''})"
            print(f"{name}: {count} of {len(common)} cases differ{split}, "
                  f"largest relative change {rel:.3e} at {where}")
        else:
            print(f"{name}: {kind} in {count} of {len(common)} cases, first at {where}")
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
