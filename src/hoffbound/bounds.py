"""Certified upper bound on the homogeneous error constant of A x <= 0.

The target quantity is

    H0(A) = sup over u outside P of dist_2(u, P) / max_i (A u)_i^+

with P = {x : A x <= 0}, the Euclidean norm on inputs, and the max norm on
row violations.  The bound is assembled from three certified components
attached to the tight/slack row partition (B, N):

* slack rows: any x_bar with A_N x_bar >= 1 gives H0(A_N) <= ||x_bar||_2
  (the sign of x_bar is immaterial; flipping it turns the deep-slack
  certificate into a deep-violation one with the same norm);
* tight rows: any y_bar > 0 with sum 1 and A_B' y_bar = 0 gives the
  paper's H0(A_B) <= 2 / sigma, sigma the smallest singular value of
  A_B' diag(y_bar) on the row space of A_B.  The same SVD,
  diag(y_bar) W V = P S R' (W = 2^-e A_B, V its row-space basis), also
  gives a box: per singular direction k, nonnegative weights
  lam = +-diag(y_bar) P_k / S_k + t y_bar bound |R_k'c| by
  b_k + rho_k ||c|| on {W V c <= 1}, b_k the larger 1'lam (at most
  2 / S_k) and rho_k the residual ||W'V lam -+ R_k||, which folds in the
  slice residual t V'W'y_bar.  So H0(A_B) <= 2^-e ||b|| / (1 - delta - ||rho||),
  delta = ||R'R - I||_F, and the tight-block bound is the smaller of the
  two (``TightBlock.weighted_bounds``);
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

from .core import ProblemInstance, row_norms
from .numerics import (
    TightBlock,
    orthonormal_null_basis,  # unused here; the benchmark's tracer hooks it
    smallest_positive_singular_value,  # the same
)
from .partition import PartitionCertificate, compute_partition
from .solvers.programs import (
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

    def __post_init__(self) -> None:
        self.x_bar.setflags(write=False)


@dataclass(frozen=True)
class CaseBBound:
    """Bound on the tight-row block at the analytic center:
    value = min(2 / sigma, box).

    ``sigma``, the box and ``b`` (one entry per row-space direction, in A's
    units) are ``TightBlock.weighted_bounds(y_bar)``; 2 / sigma is the
    paper's bound, kept as its reproduction.  ``sigma`` and ``b`` are None
    only for an identically zero tight block, where the bound is 0: zero
    rows hold at every point and add no error.
    """

    value: float
    y_bar: np.ndarray
    sigma: float | None
    b: np.ndarray | None

    def __post_init__(self) -> None:
        self.y_bar.setflags(write=False)
        if self.b is not None:
            self.b.setflags(write=False)


@dataclass(frozen=True)
class StitchBound:
    """Restriction factor: value = 1 + 2 ||w_bar|| with w_bar in null(A_B)
    and D A_N w_bar >= 1, D the inverse row norms of A_N.

    ``w_bar`` is in the instance's coordinates; ``value`` comes from the fit
    in the null basis, whose point has the norm of w_bar up to rounding.
    """

    value: float
    w_bar: np.ndarray

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


def bound_case_n(
    A_N: np.ndarray,
    fit: MinNormSolution | None = None,
    x_hat: np.ndarray | None = None,
) -> CaseNBound:
    """Certified bound for the slack-row block via a minimum-norm point.

    Any x_bar with A_N x_bar >= 1 componentwise certifies that every unit of
    max-norm violation can be repaired by moving at most ||x_bar|| in
    Euclidean distance, so the minimum-norm such point gives the tightest
    bound of this family.  ``fit`` is ``solve_min_norm_qp(A_N)`` when
    the caller has it already: the partition's least-distance fit, when
    that fit proved every row slack.  ``x_hat`` is the partition's interior
    witness, with ``A_N x_hat < 0``; the fit takes ``-x_hat`` as the seed
    of its working set (``solve_min_norm_qp``'s ``z0``), which orders the
    work, not the answer.
    """
    A_N = np.asarray(A_N, dtype=float)
    sol = fit
    if sol is None:
        sol = solve_min_norm_qp(A_N, None if x_hat is None else -x_hat)
    return CaseNBound(value=sol.norm, x_bar=sol.z.copy())


def bound_case_b(
    block: TightBlock, center: AnalyticCenterSolution | None = None
) -> CaseBBound:
    """Certified bound for the tight rows of ``block`` via the analytic center.

    The center y_bar maximizes the product of the dual weights on the slice
    {y > 0 : A_B' y = 0, sum(y) = 1}.  One SVD ``diag(y_bar) M = P S R'``
    of ``M = W V`` (``block.weighted_bounds``) gives two bounds.  Its
    ``sigma`` has ``||diag(y_bar) A_B w|| >= sigma ||w||`` on the row space
    of A_B, which gives the paper's 2 / sigma.  Its singular directions give
    the box: the nonnegative weights ``lam = +-diag(y_bar) P_k / S_k + t y_bar``
    bound ``|R_k'c| <= b_k + rho_k ||c||`` on ``{M c <= 1}``, with the
    residual ``rho_k = ||M'lam -+ R_k||`` (the slice residual ``t M'y_bar``
    folded in) and ``delta = ||R'R - I||_F`` taken by products, so
    ``H0(A_B) <= 2^-e ||b|| / (1 - delta - ||rho||)``.  Each ``b_k`` is at
    most 2 / S_k, but ``||b||`` is not always below 2 / S_r, so the value
    is ``min(2 / sigma, box)``.  The center is computed from the block
    alone, by Newton on its unconstrained dual (``solve_analytic_center``),
    which needs no starting point on the slice; ``center`` is that solve
    when the caller has it already: the partition's center, when the center
    proved every row tight.  An identically zero block returns 0 with
    uniform weights, and no sigma or b.
    """
    p = block.A_B.shape[0]
    if p == 0:
        raise ValueError("the tight set must be nonempty")
    if block.rank == 0:  # A_B is identically zero
        return CaseBBound(value=0.0, y_bar=np.full(p, 1.0 / p), sigma=None, b=None)

    ac = center if center is not None else solve_analytic_center(block)
    sigma, b, box = block.weighted_bounds(ac.y)
    return CaseBBound(value=min(2.0 / sigma, box), y_bar=ac.y.copy(), sigma=sigma, b=b)


def bound_stitch(
    block: TightBlock, A_N: np.ndarray, x_hat: np.ndarray | None = None
) -> StitchBound:
    """Certified restriction factor tying the block bounds together.

    Within L = null(A_B), spanned by the null basis Q of ``block``, the
    slack rows are normalized to unit length and the minimum-norm z with
    D A_N Q z >= 1 is computed; w_bar = Q z in L has D A_N w_bar >= 1, and
    1 + 2 ||w_bar|| (taken as 1 + 2 ||z||) bounds how much distances can grow
    when passing from the subspace to the cone cut out of it.  An empty
    ``A_N``, or one with a zero row, raises ``ValueError``: a slack row
    proven by ``slack_margin`` is never zero.  ``x_hat`` is the partition's
    interior witness, which lies in L up to the residual ``slack_margin``
    allows, with ``A_N x_hat < 0``; the fit takes ``-Q'x_hat`` as the seed
    of its working set (``solve_min_norm_qp``'s ``z0``).
    """
    A_N = np.asarray(A_N, dtype=float)
    norms = row_norms(A_N)
    if A_N.shape[0] == 0 or not norms.min() > 0.0:
        raise ValueError("the slack set must be nonempty, with no zero row")

    Q = block.Q
    sol = solve_min_norm_qp(
        A_N * (1.0 / norms)[:, None] @ Q, None if x_hat is None else -(x_hat @ Q)
    )
    return StitchBound(value=1.0 + 2.0 * sol.norm, w_bar=Q @ sol.z)


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
        case_n = _timed(
            timings, "case_n_s", bound_case_n, A_N, cert.solution, cert.x_hat
        )
    if cert.B:
        case_b = _timed(timings, "case_b_s", bound_case_b, cert.block, cert.solution)
    if cert.N and cert.B:
        stitch = _timed(timings, "stitch_s", bound_stitch, cert.block, A_N, cert.x_hat)
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
