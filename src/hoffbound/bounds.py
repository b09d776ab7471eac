"""Certified upper bound on the homogeneous error constant of A x <= 0.

The target quantity is

    H0(A) = sup over u outside P of dist_2(u, P) / max_i (A u)_i^+

with P = {x : A x <= 0}, the Euclidean norm on inputs, and the max norm on
row violations.  The bound is assembled from three certified components
attached to the tight/slack row partition (B, N):

* slack rows: any x_bar with A_N x_bar >= 1 gives H0(A_N) <= ||x_bar||_2
  (the sign of x_bar is immaterial; flipping it turns the deep-slack
  certificate into a deep-violation one with the same norm);
* tight rows: any y_bar > 0 with sum 1 and A_B' y_bar = 0 gives
  H0(A_B) <= 2 / sigma, sigma the smallest singular value of
  A_B' diag(y_bar) on the row space of A_B (``TightBlock.weighted_sigma``);
* stitching: with D the inverse row norms of A_N, any w_bar in null(A_B)
  with D A_N w_bar >= 1 bounds the restriction factor by 1 + 2 ||w_bar||_2.

The total is the restriction factor times the larger of the two row-block
bounds, degenerating to the single available component when one side of the
partition is empty.  A zero matrix needs no convention: its rows are all
tight, their block has rank 0, and the tight-block bound is 0.  A_B is
factored once, by the partition (``PartitionCertificate.block``): the center
and sigma use its row space and the stitch its null basis Q, the complement
of the row space of the split.
A one-sided split proven by the least-distance fit or the analytic center
hands that solve on (``PartitionCertificate.solution``), so it is not solved
twice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import ProblemInstance
from .numerics import (
    TightBlock,
    orthonormal_null_basis,  # unused here; the benchmark's tracer hooks it
    row_normalize,
    smallest_positive_singular_value,  # the same
)
from .partition import PartitionCertificate, compute_partition
from .solvers.programs import (
    OPT_TOL,
    AnalyticCenterSolution,
    MinNormSolution,
    SolverConfig,
    solve_analytic_center,
    solve_min_norm_qp,
)

__all__ = [
    "BoundReport",
    "CaseBBound",
    "CaseNBound",
    "StitchBound",
    "bound_case_b",
    "bound_case_n",
    "bound_h0",
    "bound_stitch",
]


@dataclass(frozen=True)
class CaseNBound:
    """Bound on the slack-row block: value = ||x_bar|| with A_N x_bar >= 1."""

    value: float
    x_bar: np.ndarray
    min_margin: float

    def __post_init__(self) -> None:
        self.x_bar.setflags(write=False)


@dataclass(frozen=True)
class CaseBBound:
    """Bound on the tight-row block: value = 2 / sigma at the analytic center.

    ``sigma`` is ``TightBlock.weighted_sigma(y_bar)``; it is None only for an
    identically zero tight block, where the bound is 0: zero rows hold at
    every point and add no error.
    """

    value: float
    y_bar: np.ndarray
    sigma: float | None

    def __post_init__(self) -> None:
        self.y_bar.setflags(write=False)


@dataclass(frozen=True)
class StitchBound:
    """Restriction factor: value = 1 + 2 ||w_bar|| with w_bar in null(A_B)
    and D A_N w_bar >= 1, D the inverse row norms of A_N.

    ``w_bar`` is in the instance's coordinates; ``value`` comes from the fit
    in the null basis, whose point has the norm of w_bar up to rounding.
    """

    value: float
    w_bar: np.ndarray
    min_margin: float

    def __post_init__(self) -> None:
        self.w_bar.setflags(write=False)


@dataclass(frozen=True)
class BoundReport:
    """Full output of one bounding run.

    ``branch`` records which arm of the combination produced ``total``:
    "case_N" (no tight rows), "case_B" (no slack rows; a zero matrix is all
    tight, of rank 0, with total 0), or "general" (total = stitch * max of
    the block bounds, evaluated in exactly that floating-point order).
    """

    total: float
    branch: str
    partition: PartitionCertificate
    case_n: CaseNBound | None
    case_b: CaseBBound | None
    stitch: StitchBound | None
    diagnostics: dict = field(default_factory=dict)


def bound_case_n(A_N: np.ndarray, fit: MinNormSolution | None = None) -> CaseNBound:
    """Certified bound for the slack-row block via a minimum-norm point.

    Any x_bar with A_N x_bar >= 1 componentwise certifies that every unit of
    max-norm violation can be repaired by moving at most ||x_bar|| in
    Euclidean distance, so the minimum-norm such point gives the tightest
    bound of this family.  ``fit`` is ``solve_min_norm_qp(A_N)`` when
    the caller has it already: the partition's least-distance fit, when
    that fit proved every row slack.
    """
    A_N = np.asarray(A_N, dtype=float)
    sol = fit if fit is not None else solve_min_norm_qp(A_N)
    return CaseNBound(value=sol.norm, x_bar=sol.z.copy(), min_margin=sol.min_margin)


def bound_case_b(
    block: TightBlock, center: AnalyticCenterSolution | None = None
) -> CaseBBound:
    """Certified bound for the tight rows of ``block`` via the analytic center.

    The center y_bar maximizes the product of the dual weights on the slice
    {y > 0 : A_B' y = 0, sum(y) = 1}.  ``sigma = block.weighted_sigma(y_bar)``
    has ``||diag(y_bar) A_B w|| >= sigma ||w||`` on the row space of A_B,
    which gives the bound 2 / sigma.  The center is computed from the block
    alone, by Newton on its unconstrained dual (``solve_analytic_center``),
    which needs no starting point on the slice; ``center`` is that solve
    when the caller has it already: the partition's center, when the center
    proved every row tight.  An identically zero block returns 0 with
    uniform weights.
    """
    p = block.A_B.shape[0]
    if p == 0:
        raise ValueError("the tight set must be nonempty")
    if block.rank == 0:  # A_B is identically zero
        return CaseBBound(value=0.0, y_bar=np.full(p, 1.0 / p), sigma=None)

    ac = center if center is not None else solve_analytic_center(block)
    sigma = block.weighted_sigma(ac.y)
    return CaseBBound(value=2.0 / sigma, y_bar=ac.y.copy(), sigma=sigma)


def bound_stitch(block: TightBlock, A_N: np.ndarray) -> StitchBound:
    """Certified restriction factor tying the block bounds together.

    Within L = null(A_B), spanned by the null basis Q of ``block``, the
    slack rows are normalized to unit length and the minimum-norm z with
    D A_N Q z >= 1 is computed; w_bar = Q z in L has D A_N w_bar >= 1, and
    1 + 2 ||w_bar|| (taken as 1 + 2 ||z||) bounds how much distances can grow
    when passing from the subspace to the cone cut out of it.
    """
    A_N = np.asarray(A_N, dtype=float)
    if A_N.shape[0] == 0:
        raise ValueError("the slack set must be nonempty")

    sol = solve_min_norm_qp(row_normalize(A_N) @ block.Q)
    return StitchBound(
        value=1.0 + 2.0 * sol.norm,
        w_bar=block.Q @ sol.z,
        min_margin=sol.min_margin,
    )


def _timed(timings: dict[str, float], key: str, fn, *args, **kwargs):
    """Call ``fn`` and record its wall time under ``timings[key]``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    timings[key] = time.perf_counter() - t0
    return out


def bound_h0(instance: ProblemInstance, cfg: SolverConfig | None = None) -> BoundReport:
    """Certified upper bound on H0(A) with all intermediate certificates.

    The tight/slack partition decides the branch: a one-sided partition
    returns its single block bound, and the general case multiplies the
    restriction factor by the larger block bound.  Every certificate the
    branch used is kept on the report so an independent audit can recheck
    the claim with matrix-vector products.

    ``cfg`` is ignored: no stage has a setting.  It is accepted only because
    the benchmark's ``perfbench/run.py`` passes a ``SolverConfig()``.

    Raises
    ------
    HoffboundError
        The typed errors of the components, such as ``AmbiguousIndex``,
        ``SolverStall``, or ``NumericalFailure`` when an SVD does not
        converge.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    diagnostics = {
        "opt_tol": OPT_TOL,
        "m": instance.m,
        "n": instance.n,
        "frobenius_scale": instance.frobenius_scale,
        "timings": timings,
    }

    case_n = case_b = stitch = None
    cert = _timed(timings, "partition_s", compute_partition, instance)
    A_N = cert.A_N
    # A partition proven by its least-distance fit is all slack, and one
    # proven by the analytic center all tight: its solution is that side's
    # solve.
    if cert.N:
        case_n = _timed(timings, "case_n_s", bound_case_n, A_N, cert.solution)
    if cert.B:
        case_b = _timed(timings, "case_b_s", bound_case_b, cert.block, cert.solution)
    if cert.N and cert.B:
        stitch = _timed(timings, "stitch_s", bound_stitch, cert.block, A_N)
        total, branch = stitch.value * max(case_n.value, case_b.value), "general"
    elif cert.N:
        total, branch = case_n.value, "case_N"
    else:
        total, branch = case_b.value, "case_B"

    timings["total_s"] = time.perf_counter() - t0
    return BoundReport(
        total=total,
        branch=branch,
        partition=cert,
        case_n=case_n,
        case_b=case_b,
        stitch=stitch,
        diagnostics=diagnostics,
    )
