"""Solver accuracy settings and the error types raised by the programs."""

from __future__ import annotations

from dataclasses import dataclass

from ..core import HoffboundError

__all__ = [
    "InfeasibleQP",
    "NoInteriorPoint",
    "SolverConfig",
    "SolverStall",
]


class SolverStall(HoffboundError):
    """Iteration cap reached before the requested certificates were met."""


class InfeasibleQP(HoffboundError):
    """``{z : G z >= 1}`` is infeasible, or its minimum-norm point is beyond
    double precision; on a slack block this signals an upstream partition
    error."""


class NoInteriorPoint(HoffboundError):
    """No strictly positive feasible point was located."""


@dataclass(frozen=True)
class SolverConfig:
    """Shared accuracy knobs for every solve in the pipeline."""

    feas_tol: float = 1e-9
    opt_tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self) -> None:
        for name in ("feas_tol", "opt_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")

    def tightened(self, factor: float = 100.0) -> "SolverConfig":
        """Copy with feasibility/optimality tolerances tightened by ``factor``."""
        return SolverConfig(
            feas_tol=self.feas_tol / factor,
            opt_tol=self.opt_tol / factor,
            max_iters=self.max_iters,
        )
