"""Certified upper bound on the homogeneous error constant of A x <= 0.

The target quantity is

    H0(A) = sup over u outside P of dist_2(u, P) / max_i (A u)_i^+

with P = {x : A x <= 0}, the Euclidean norm on inputs, and the max norm on
row violations.  By convention H0 of a zero matrix is 0.  The bound is
assembled from three certified components attached to the tight/slack row
partition (B, N):

* slack rows: any x_bar with A_N x_bar >= 1 gives H0(A_N) <= ||x_bar||_2
  (the sign of x_bar is immaterial; flipping it turns the deep-slack
  certificate into a deep-violation one with the same norm);
* tight rows: any y_bar > 0 with sum 1 and A_B' y_bar = 0 gives
  H0(A_B) <= 2 / sigma, where sigma is the smallest positive singular value
  of A_B' diag(y_bar);
* stitching: with Q an orthonormal basis of null(A_B) and D the inverse row
  norms of A_N, any z_bar with D A_N Q z_bar >= 1 bounds the restriction
  factor by 1 + 2 ||z_bar||_2.

The total is the restriction factor times the larger of the two row-block
bounds, degenerating to the single available component when one side of the
partition is empty.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import ProblemInstance, euclidean_norm
from .numerics import (
    DEFAULT_RANK_TOL,
    NumericalFailure,
    orthonormal_null_basis,
    row_normalize,
    smallest_positive_singular_value,
)
from .partition import PartitionCertificate, compute_partition
from .solvers.programs import (
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

    ``sigma`` is the smallest positive singular value of A_B' diag(y_bar);
    it is None only for an identically zero tight block, where the bound is
    0 by the zero-matrix convention.
    """

    value: float
    y_bar: np.ndarray
    sigma: float | None

    def __post_init__(self) -> None:
        self.y_bar.setflags(write=False)


@dataclass(frozen=True)
class StitchBound:
    """Restriction factor: value = 1 + 2 ||z_bar|| with D A_N Q z_bar >= 1.

    ``Q`` is the orthonormal null-space basis of A_B the certificate lives
    in; auditors recompute D from the rows of A_N and check the margin of
    Q z_bar directly.  ``Q`` is not serialized into the JSON report.
    """

    value: float
    z_bar: np.ndarray
    Q: np.ndarray = field(metadata={"json": False})
    min_margin: float

    def __post_init__(self) -> None:
        self.z_bar.setflags(write=False)
        self.Q.setflags(write=False)


@dataclass(frozen=True)
class BoundReport:
    """Full output of one bounding run.

    ``branch`` records which arm of the combination produced ``total``:
    "zero" (zero matrix, total 0), "case_N" (no tight rows), "case_B" (no
    slack rows), or "general" (total = stitch * max of the block bounds,
    evaluated in exactly that floating-point order).
    """

    total: float
    branch: str
    partition: PartitionCertificate | None
    case_n: CaseNBound | None
    case_b: CaseBBound | None
    stitch: StitchBound | None
    diagnostics: dict = field(default_factory=dict)


def bound_case_n(A_N: np.ndarray, cfg: SolverConfig | None = None) -> CaseNBound:
    """Certified bound for the slack-row block via a minimum-norm point.

    Any x_bar with A_N x_bar >= 1 componentwise certifies that every unit of
    max-norm violation can be repaired by moving at most ||x_bar|| in
    Euclidean distance, so the minimum-norm such point gives the tightest
    bound of this family.
    """
    cfg = cfg or SolverConfig()
    A_N = np.asarray(A_N, dtype=float)
    sol = solve_min_norm_qp(A_N, cfg)
    return CaseNBound(value=sol.norm, x_bar=sol.z.copy(), min_margin=sol.min_margin)


def bound_case_b(A_B: np.ndarray, cfg: SolverConfig | None = None) -> CaseBBound:
    """Certified bound for the tight-row block via the analytic center.

    The center y_bar maximizes the product of the dual weights on the slice
    {y > 0 : A_B' y = 0, sum(y) = 1}; weighting the rows of A_B by it and
    reading off the smallest positive singular value yields the bound
    2 / sigma.  The center is computed from A_B alone, by Newton on its
    unconstrained dual (``solve_analytic_center``), which needs no starting
    point on the slice.  An identically zero block returns 0 by convention.
    """
    cfg = cfg or SolverConfig()
    A_B = np.asarray(A_B, dtype=float)
    p = A_B.shape[0]
    if p == 0:
        raise ValueError("the tight set must be nonempty")
    if float(np.abs(A_B).max(initial=0.0)) == 0.0:
        return CaseBBound(value=0.0, y_bar=np.full(p, 1.0 / p), sigma=None)

    ac = solve_analytic_center(A_B, cfg)
    weighted = A_B.T * ac.y[None, :]
    sigma = smallest_positive_singular_value(weighted)
    if sigma is None:
        raise NumericalFailure(
            "weighted tight block A_B' diag(y_bar) is numerically zero; "
            "sigma cannot be certified"
        )
    return CaseBBound(value=2.0 / sigma, y_bar=ac.y.copy(), sigma=sigma)


def bound_stitch(
    A_B: np.ndarray,
    A_N: np.ndarray,
    cfg: SolverConfig | None = None,
) -> StitchBound:
    """Certified restriction factor tying the block bounds together.

    Within L = null(A_B) the slack rows are normalized to unit length and a
    deep point z_bar with D A_N Q z_bar >= 1 is computed; 1 + 2 ||z_bar||
    bounds how much distances can grow when passing from the subspace to the
    cone cut out of it.  The factor is invariant to the choice of
    orthonormal basis Q.
    """
    cfg = cfg or SolverConfig()
    A_B = np.asarray(A_B, dtype=float)
    A_N = np.asarray(A_N, dtype=float)
    if A_N.shape[0] == 0:
        raise ValueError("the slack set must be nonempty")

    Q = orthonormal_null_basis(A_B)
    sol = solve_min_norm_qp(row_normalize(A_N) @ Q, cfg)
    return StitchBound(
        value=1.0 + 2.0 * sol.norm,
        z_bar=sol.z.copy(),
        Q=np.array(Q),
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

    The tight/slack partition decides the branch: a zero matrix is 0 by
    convention, a one-sided partition returns its single block bound, and
    the general case multiplies the restriction factor by the larger block
    bound.  Every certificate the branch used is kept on the report so an
    independent audit can recheck the claim with matrix-vector products.

    Raises
    ------
    NumericalFailure
        Among the typed errors of the components: when a numerical rank
        falls in the ambiguous band of ``numerics.numerical_rank``.
    """
    cfg = cfg or SolverConfig()
    timings: dict[str, float] = {}
    t0 = time.perf_counter()

    diagnostics = {
        "feas_tol": cfg.feas_tol,
        "opt_tol": cfg.opt_tol,
        "rank_tol": DEFAULT_RANK_TOL,
        "m": instance.m,
        "n": instance.n,
        "frobenius_scale": instance.frobenius_scale,
        "timings": timings,
    }

    cert = case_n = case_b = stitch = None
    if instance.is_zero:
        total, branch = 0.0, "zero"
    else:
        cert = _timed(timings, "partition_s", compute_partition, instance, cfg)
        A_B = instance.A[list(cert.B)]
        A_N = instance.A[list(cert.N)]
        if cert.N:
            case_n = _timed(timings, "case_n_s", bound_case_n, A_N, cfg)
        if cert.B:
            case_b = _timed(timings, "case_b_s", bound_case_b, A_B, cfg)
        if cert.N and cert.B:
            stitch = _timed(timings, "stitch_s", bound_stitch, A_B, A_N, cfg)
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
