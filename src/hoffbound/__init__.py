"""Certified bounds on the homogeneous error constant of A x <= 0.

The package computes a certified upper bound on

    H0(A) = sup_{u : (A u)^+ != 0} dist_2(u, {x : A x <= 0}) / ||(A u)^+||_inf

together with the intermediate certificates (row partition, per-block
witnesses, restriction factor, decomposition witness), an independent audit
of those certificates, and a Monte Carlo lower-bound oracle for sandwich
validation.

Only the entry points and the error classes are exported here.  Every other
name is imported from the module that defines it, e.g.
``hoffbound.partition.compute_partition``.
"""

from .audit import AuditResult, audit_report
from .bounds import BoundReport, bound_h0
from .core import HoffboundError, ProblemInstance, ScaleOutOfRange
from .io import (
    DimensionError,
    ParseError,
    UnsupportedFormat,
    canonical_report_json,
    load_matrix,
    report_to_dict,
    save_matrix_csv,
)
from .numerics import NumericalFailure
from .oracle import OracleResult, lower_bound_monte_carlo
from .partition import AmbiguousIndex
from .solvers.programs import (
    InfeasibleQP,
    NoInteriorPoint,
    SolverConfig,
    SolverStall,
)

__version__ = "0.1.0"

__all__ = [
    "ProblemInstance", "SolverConfig",
    # pipeline
    "bound_h0", "BoundReport", "audit_report", "AuditResult",
    "lower_bound_monte_carlo", "OracleResult",
    # files and reports
    "load_matrix", "save_matrix_csv", "report_to_dict", "canonical_report_json",
    # errors
    "HoffboundError", "ScaleOutOfRange", "AmbiguousIndex", "NumericalFailure",
    "SolverStall", "InfeasibleQP", "NoInteriorPoint",
    "ParseError", "DimensionError", "UnsupportedFormat",
    "__version__",
]
