"""Certified bounds on the homogeneous error constant of A x <= 0.

The package computes a certified upper bound on

    H0(A) = sup_{u : (A u)^+ != 0} dist_2(u, {x : A x <= 0}) / ||(A u)^+||_inf

together with the intermediate certificates (row partition, per-block
witnesses, restriction factor), an independent audit of those certificates,
and a Monte Carlo lower-bound oracle for sandwich validation.
"""

from .audit import AuditResult, audit_report, verify_partition
from .bounds import (
    BoundReport,
    CaseBBound,
    CaseNBound,
    StitchBound,
    bound_case_b,
    bound_case_n,
    bound_h0,
    bound_stitch,
)
from .core import (
    HoffboundError,
    ProblemInstance,
    ScaleOutOfRange,
    euclidean_norm,
    pos_part_inf_norm,
)
from .io import (
    DimensionError,
    ParseError,
    UnsupportedFormat,
    canonical_report_json,
    load_matrix,
    report_to_dict,
    save_matrix_csv,
)
from .numerics import (
    DEFAULT_RANK_TOL,
    DegenerateRow,
    NumericalFailure,
    orthonormal_null_basis,
    row_normalize,
    smallest_positive_singular_value,
)
from .oracle import (
    OracleResult,
    directed_candidates,
    lower_bound_monte_carlo,
    ratio_at,
)
from .partition import (
    AmbiguousIndex,
    PartitionCertificate,
    compute_partition,
)
from .solvers.programs import (
    AnalyticCenterSolution,
    InfeasibleQP,
    MinNormSolution,
    NoInteriorPoint,
    PartitionLPSolution,
    ProjectionResult,
    SolverConfig,
    SolverStall,
    project_onto_cone,
    solve_analytic_center,
    solve_min_norm_qp,
    solve_partition_lp,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousIndex",
    "AnalyticCenterSolution",
    "AuditResult",
    "BoundReport",
    "CaseBBound",
    "CaseNBound",
    "DEFAULT_RANK_TOL",
    "DegenerateRow",
    "DimensionError",
    "HoffboundError",
    "InfeasibleQP",
    "MinNormSolution",
    "NoInteriorPoint",
    "NumericalFailure",
    "OracleResult",
    "ParseError",
    "PartitionCertificate",
    "PartitionLPSolution",
    "ProblemInstance",
    "ProjectionResult",
    "ScaleOutOfRange",
    "SolverConfig",
    "SolverStall",
    "StitchBound",
    "UnsupportedFormat",
    "audit_report",
    "bound_case_b",
    "bound_case_n",
    "bound_h0",
    "bound_stitch",
    "canonical_report_json",
    "compute_partition",
    "directed_candidates",
    "euclidean_norm",
    "load_matrix",
    "lower_bound_monte_carlo",
    "orthonormal_null_basis",
    "pos_part_inf_norm",
    "project_onto_cone",
    "ratio_at",
    "report_to_dict",
    "row_normalize",
    "save_matrix_csv",
    "smallest_positive_singular_value",
    "solve_analytic_center",
    "solve_min_norm_qp",
    "solve_partition_lp",
    "verify_partition",
    "__version__",
]
