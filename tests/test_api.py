"""The package's top-level surface: entry points and error classes only."""

import re
from pathlib import Path

import hoffbound

README = Path(__file__).resolve().parent.parent / "README.md"

SURFACE = {
    "ProblemInstance", "SolverConfig",
    "bound_h0", "BoundReport", "audit_report", "AuditResult",
    "lower_bound_monte_carlo", "OracleResult",
    "load_matrix", "save_matrix_csv", "report_to_dict", "canonical_report_json",
    "HoffboundError", "ScaleOutOfRange", "AmbiguousIndex", "NumericalFailure",
    "DegenerateRow", "SolverStall", "InfeasibleQP", "NoInteriorPoint",
    "ParseError", "DimensionError", "UnsupportedFormat",
}


def test_top_level_exports_exactly_the_entry_points():
    assert len(hoffbound.__all__) == len(set(hoffbound.__all__))
    assert set(hoffbound.__all__) == SURFACE | {"__version__"}
    for name in hoffbound.__all__:
        assert hasattr(hoffbound, name), name
    for name in SURFACE - {"SolverConfig", "ProblemInstance"}:
        obj = getattr(hoffbound, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            assert issubclass(obj, hoffbound.HoffboundError), name


def test_readme_python_api_lists_every_export():
    text = README.read_text()
    section = text.split("## Python API", 1)[1].split("\n## ", 1)[0]
    for name in SURFACE:
        assert re.search(rf"`{name}[`(.]", section), name
