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
  with D A_N w_bar >= 1 bounds the restriction factor by 1 + 2 ||w_bar||_2;
* decomposition: split each violation into its parts in the row space W of
  A_B and in L = null(A_B).  The W part is at most h_B, the tight-block
  bound, and any w in L with a_i'w >= c_i on each slack row, c_i = 1 plus a
  bound on what the W part can take off a_i'p, gives
  H0(A) <= sqrt(h_B^2 + ||w||^2) (``bound_decomposition``).

The paper's total is the restriction factor times the larger of the two
row-block bounds; on the general branch the total is the smaller of that
product and the decomposition bound.  It degenerates to the single
available component when one side of the partition is empty.  A zero
matrix needs no convention: its rows are all tight, their block has rank 0,
and the tight-block bound is 0.  A_B is
factored once, by the partition (``PartitionCertificate.block``): the center
and sigma use its row space, and the stitch and the decomposition its null
basis Q, the complement of the row space of the split.
A one-sided split proven by the least-distance fit or the analytic center
hands that solve on (``PartitionCertificate.solution``), so it is not solved
twice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import ProblemInstance, euclidean_norm, row_norms
from .numerics import (
    TightBlock,
    WeightedBounds,
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
    "DecompositionBound",
    "StitchBound",
    "bound_case_b",
    "bound_case_n",
    "bound_decomposition",
    "bound_h0",
    "bound_stitch",
    "decomposition_scales",
    "decomposition_value",
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
    rows hold at every point and add no error.  ``weighted`` is the whole
    ``weighted_bounds(y_bar)``, kept for the decomposition and not
    serialized: the audit recomputes it.
    """

    value: float
    y_bar: np.ndarray
    sigma: float | None
    b: np.ndarray | None
    weighted: WeightedBounds | None = field(
        default=None, repr=False, metadata={"json": False})

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
class DecompositionBound:
    """Decomposition bound: value = sqrt(h_B^2 + r^2), h_B the tight-block
    value and r = ||w|| / min(1, min_i a_i'w / c_i) over the slack rows,
    with w in null(A_B) (``bound_decomposition``)."""

    value: float
    w: np.ndarray

    def __post_init__(self) -> None:
        self.w.setflags(write=False)


@dataclass(frozen=True)
class BoundReport:
    """Full output of one bounding run.

    ``branch`` records which arm of the combination produced ``total``:
    "case_N" (no tight rows), "case_B" (no slack rows; a zero matrix is all
    tight, of rank 0, with total 0), or "general" (total =
    min(stitch * max of the block bounds, decomposition), evaluated in
    exactly that floating-point order).
    """

    total: float
    branch: str
    partition: PartitionCertificate
    case_n: CaseNBound | None
    case_b: CaseBBound | None
    stitch: StitchBound | None
    decomposition: DecompositionBound | None
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
    if block.rank == 0:  # A_B is identically zero; weighted_bounds takes no SVD
        y = np.full(p, 1.0 / p)
        return CaseBBound(value=0.0, y_bar=y, sigma=None, b=None,
                          weighted=block.weighted_bounds(y))

    ac = center if center is not None else solve_analytic_center(block)
    wb = block.weighted_bounds(ac.y)
    return CaseBBound(value=min(2.0 / wb.sigma, wb.box), y_bar=ac.y.copy(), sigma=wb.sigma,
                      b=wb.b, weighted=wb)


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


def decomposition_scales(
    block: TightBlock, weighted: WeightedBounds, A_N: np.ndarray, h_B: float
) -> np.ndarray:
    """``c_i = 1 + tau_i`` for each slack row a_i, with ``g_i = V'a_i`` and
    ``tau_i = min(||g_i|| h_B, sum_k |R_k'g_i| (b_k + rho_k h_B)
    + ||g_i|| delta h_B)``, the ball and the box form of
    ``bound_decomposition``.  ``weighted`` is ``block.weighted_bounds(y)``;
    without a box (inf) the ball form stands alone."""
    g = A_N @ block.V
    ball = row_norms(g) * h_B
    if not math.isfinite(weighted.box):
        return 1.0 + ball
    box = (np.abs(g @ weighted.R) @ (weighted.b + weighted.rho * h_B)
           + row_norms(g) * (weighted.delta * h_B))
    return 1.0 + np.minimum(ball, box)


def decomposition_value(h_B: float, w: np.ndarray, Gw: np.ndarray) -> float:
    """``sqrt(h_B^2 + r^2)`` with ``r = ||w|| / min(1, min(Gw))``, the bound
    that w proves with ``Gw = (A_N w) / c`` (``bound_decomposition``)."""
    r = euclidean_norm(w) / min(1.0, float(Gw.min()))
    return math.sqrt(h_B * h_B + r * r)


def bound_decomposition(
    block: TightBlock, case_b: CaseBBound, A_N: np.ndarray, x_hat: np.ndarray | None = None
) -> DecompositionBound:
    """Certified bound on H0(A) from a violation's parts in the row space
    W = range(V) and the null space L = null(A_B) = range(Q) of the tight
    rows ``block``, with ``h_B = case_b.value``; ``case_b`` is
    ``bound_case_b``'s, which carries its weighted SVD.

    Claim.  Let ``tau_i >= max{-a_i'q : q in W, A_B q <= 1}`` for each slack
    row, ``c_i = 1 + tau_i``, and z any point with ``(A_N Q z)_i >= c_i``.
    Then ``H0(A) <= sqrt(h_B^2 + ||z||^2)``.

    Proof.  H0 is positively homogeneous, so take u outside P with
    ``max_i (a_i'u)_+ = 1``, x its projection onto P and ``p = u - x``.

    1. By the projection's optimality conditions ``p = A_J'mu`` with
       ``mu >= 0``, J the rows active at x (``a_j'x = 0``).  Every tight row
       is zero on all of P, so ``B ⊆ J``; let ``S = J ∩ N`` and
       ``beta = mu_S >= 0``.
    2. On J, ``a_j'p = a_j'u - a_j'x = a_j'u <= 1``.
    3. ``p = w0 + A_S'beta`` with ``w0 = A_B'mu_B`` in W.
    4. Split ``p = p_W + p_L`` orthogonally.  ``A_B p_W = A_B p <= 1`` by 2,
       so ``||p_W|| <= h_B``.  For h_B bounds H0(A_B), and the cone of A_B
       is L (the partition's ``y_hat > 0`` with ``A_B'y_hat = 0`` makes
       every tight row an equation), so a q in W with ``A_B q <= 1`` lies
       at distance ``||q||`` from it with violation at most 1.
    5. For i in S, ``a_i'p_L = a_i'p - a_i'p_W <= 1 + tau_i = c_i`` by 2 and 4.
    6. With ``q = Q'p = Q'A_S'beta`` (``Q'w0 = 0``), so that ``p_L = Q q``:
       ``||q||^2 = p_L'p = p_L'A_S'beta = sum_S beta_i a_i'p_L
       <= sum_S beta_i c_i <= sum_S beta_i a_i'Q z = q'z <= ||q|| ||z||``,
       by ``p_L ⊥ w0``, 5, ``beta >= 0`` and the rows of z.
    7. So ``||p_L|| <= ||z||``, and ``||p||^2 = ||p_W||^2 + ||p_L||^2
       <= h_B^2 + ||z||^2``.  ∎

    The two forms of tau_i (``decomposition_scales``; the smaller is taken)
    write q in W as ``V c``, with ``||c|| = ||q|| <= h_B`` and
    ``-a_i'q = -g_i'c``, ``g_i = V'a_i``:

    * ball: ``-g_i'c <= ||g_i|| ||c|| <= ||g_i|| h_B``;
    * box: with R, b, rho and delta of ``case_b.weighted``
      (``TightBlock.weighted_bounds``), ``g_i = R R'g_i + (I - R R')g_i``.
      On the polytope ``|R_k'c| <= b_k + rho_k ||c||``, and R is square, so
      ``||I - R R'||_2 = ||I - R'R||_2 <= delta``.  Hence
      ``-g_i'c <= sum_k |R_k'g_i| (b_k + rho_k h_B) + ||g_i|| delta h_B``.
      The box's b and rho bound only when its lam are nonnegative, so
      without a box (inf) the ball stands alone.

    The smallest such z solves the least-distance program of the rows
    ``(A_N Q)_i / c_i`` (``solve_min_norm_qp``), seeded by ``-Q'x_hat`` as
    the stitch is.  The report keeps ``w = Q z`` in A's coordinates and the
    value that w proves, ``decomposition_value`` of its margin
    ``(A_N w) / c``.  A rank-0 block has h_B = 0, c = 1 and Q = I, so the
    fit is case N's own and the value case N's, bit for bit.
    """
    h_B = case_b.value
    c = decomposition_scales(block, case_b.weighted, A_N, h_B)
    Q = block.Q
    sol = solve_min_norm_qp((A_N @ Q) / c[:, None], None if x_hat is None else -(x_hat @ Q))
    w = Q @ sol.z
    return DecompositionBound(value=decomposition_value(h_B, w, (A_N @ w) / c), w=w)


def _timed(timings: dict[str, float], key: str, fn, *args, **kwargs):
    """Call ``fn`` and record its wall time under ``timings[key]``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    timings[key] = time.perf_counter() - t0
    return out


def bound_h0(instance: ProblemInstance, cfg: SolverConfig | None = None) -> BoundReport:
    """Certified upper bound on H0(A) with all intermediate certificates.

    The tight/slack partition decides the branch: a one-sided partition
    returns its single block bound.  The general case takes the smaller of
    the paper's product, the restriction factor times the larger block
    bound, and the decomposition bound; both are kept on the report.  Every certificate the
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

    case_n = case_b = stitch = decomposition = None
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
        decomposition = _timed(timings, "decomposition_s", bound_decomposition,
                               cert.block, case_b, A_N, cert.x_hat)
        paper = stitch.value * max(case_n.value, case_b.value)
        total, branch = min(paper, decomposition.value), "general"
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
        decomposition=decomposition,
        diagnostics=diagnostics,
    )
