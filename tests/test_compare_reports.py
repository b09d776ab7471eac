"""``tools/compare_reports.py`` on small hand-written dumps.

Each row stands for one case of a ``--dump``: the canonical report text, the
audit verdict and the audit metrics.  The comparison gates B/N, totals and
lower bounds, and names every other leaf that moved.
"""

import json

import pytest

from helpers import ROOT, load_file_module


@pytest.fixture
def compare(tmp_path, capsys):
    tool = load_file_module("compare_reports", ROOT / "tools" / "compare_reports.py")

    def run(old_rows, new_rows):
        """Exit code and printed lines of comparing the two dumps."""
        paths = []
        for name, rows in (("old", old_rows), ("new", new_rows)):
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
            paths.append(str(path))
        code = tool.compare(*paths)
        return code, capsys.readouterr().out.splitlines()

    return run


def _row(case, N=(0, 1), total=2.0, x_hat=(0.6, 0.8), audit=None, **extra):
    report = {
        "branch": "case_N",
        "partition": {"B": [], "N": list(N), "x_hat": list(x_hat)},
        "bounds": {"total": total},
        "oracle": {"lower_bound": 1.0},
        **extra,
    }
    return {"workload": "suite", "seed": 0, "case": case, "audit_ok": True,
            "report": json.dumps(report, sort_keys=True, separators=(",", ":")),
            "audit": {"slack_margin": 0.5} if audit is None else audit}


def test_identical_dumps_pass_without_field_rows(compare):
    rows = [_row("c0"), _row("c1")]
    code, lines = compare(rows, rows)
    assert code == 0
    assert lines == ["2 cases compared",
                     "2 of 2 canonical reports byte-identical",
                     "2 of 2 audit metrics byte-identical"]


def test_a_moved_float_leaf_is_named_with_its_relative_change(compare):
    old = [_row("c0"), _row("c1")]
    new = [_row("c0"), _row("c1", x_hat=(0.6, 1.0), audit={"slack_margin": 0.25})]
    code, lines = compare(old, new)
    assert code == 0
    assert lines[1:] == [
        "1 of 2 canonical reports byte-identical",
        "1 of 2 audit metrics byte-identical",
        "audit.slack_margin: 1 of 2 cases differ (0 up, 1 down), largest "
        "relative change 5.000e-01 at ('suite', 0, 'c1')",
        "partition.x_hat: 1 of 2 cases differ (1 up, 0 down), largest relative "
        "change 2.000e-01 at ('suite', 0, 'c1')",
    ]


def test_a_leaf_on_one_side_only_differs(compare):
    # and is told apart from a non-numeric leaf that changed
    old = [_row("c0"), _row("c1", sandwich={"ok": True, "upper": 2.0})]
    new = [_row("c0", x_hat=(0.6, 0.8, 0.0)),
           _row("c1", audit={"slack_margin": 0.5, "weight_margin": 1.0},
                sandwich={"ok": False})]
    code, lines = compare(old, new)
    assert code == 0
    assert lines[3:] == [
        "audit.weight_margin: added in 1 of 2 cases, first at ('suite', 0, 'c1')",
        "partition.x_hat: added in 1 of 2 cases, first at ('suite', 0, 'c0')",
        "sandwich.ok: 1 of 2 cases differ, largest relative change inf at ('suite', 0, 'c1')",
        "sandwich.upper: removed in 1 of 2 cases, first at ('suite', 0, 'c1')",
    ]


def test_a_total_within_its_tolerance_is_reported_not_gated(compare):
    code, lines = compare([_row("c0")], [_row("c0", total=2.0 * (1.0 + 5e-10))])
    assert code == 0
    assert lines[-1].startswith("bounds.total: 1 of 1 cases differ (1 up, 0 down), "
                                "largest relative change 5.000e-10")


def test_a_moved_leaf_counts_the_cases_it_rose_and_fell_in(compare):
    # a folded path that rose at one index and fell at another is mixed
    old = [_row(f"c{i}", oracle={"lower_bound": 1.0}) for i in range(4)]
    new = [_row("c0", oracle={"lower_bound": 1.5}),
           _row("c1", oracle={"lower_bound": 0.5}),
           _row("c2", oracle={"lower_bound": 0.75}, x_hat=(0.8, 0.6)),
           _row("c3", oracle={"lower_bound": 1.0})]
    code, lines = compare(old, new)
    assert code == 1
    assert lines[3:5] == [
        "oracle.lower_bound: 3 of 4 cases differ (1 up, 2 down), largest relative "
        "change 5.000e-01 at ('suite', 0, 'c1')",
        "partition.x_hat: 1 of 4 cases differ (0 up, 0 down, 1 mixed), largest "
        "relative change 2.500e-01 at ('suite', 0, 'c2')",
    ]


@pytest.mark.parametrize("change, mismatch", [
    ({"N": (0,)}, "MISMATCH ('suite', 0, 'c0'): N [0, 1] -> [0]"),
    ({"total": 2.0 * (1.0 + 2e-9)},
     "MISMATCH ('suite', 0, 'c0'): total 2.0 -> 2.000000004 (relative 2.000e-09 > 1e-09)"),
], ids=["N", "total"])
def test_a_gated_change_fails_with_a_mismatch_line(compare, change, mismatch):
    code, lines = compare([_row("c0"), _row("c1")], [_row("c0", **change), _row("c1")])
    assert code == 1
    assert [line for line in lines if line.startswith("MISMATCH")] == [mismatch]
