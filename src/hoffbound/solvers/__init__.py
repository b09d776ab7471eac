"""Optimization layer: the pipeline's programs, their engines and error types."""

from .config import (
    InfeasibleQP,
    NoInteriorPoint,
    SolverConfig,
    SolverStall,
)
from .programs import (
    AnalyticCenterSolution,
    MinNormSolution,
    PartitionLPSolution,
    ProjectionResult,
    project_onto_cone,
    solve_analytic_center,
    solve_min_norm_qp,
    solve_partition_lp,
)

__all__ = [
    "AnalyticCenterSolution",
    "InfeasibleQP",
    "MinNormSolution",
    "NoInteriorPoint",
    "PartitionLPSolution",
    "ProjectionResult",
    "SolverConfig",
    "SolverStall",
    "project_onto_cone",
    "solve_analytic_center",
    "solve_min_norm_qp",
    "solve_partition_lp",
]
