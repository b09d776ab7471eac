"""Splitting the rows of A into the tight set B and the slack set N.

For the cone P = {x : A x <= 0} every row index lands in exactly one of two
camps: the tight rows B, satisfied with equality by every point of P, and
the slack rows N, which admit a point of P with strictly negative value.
Most inputs are one-sided, and least-squares witnesses prove most of them
before any LP runs: the solution of ``A x = -1`` in least squares shows
every row slack when it is interior, and its residual, which lies in
``null(A')``, shows every row tight when it is positive.  The rest of the
one-sided inputs are proven by the witnesses the block bounds compute
anyway: the least-distance point of ``A z >= 1`` (every row slack), or the
analytic center of the weight slice once the Farkas weights of an
infeasible least-distance fit show that the tight rows span the row space
of A (every row tight).  Otherwise the split is read off the iterates of
one self-dual LP, whose supports separate the camps at the optimum (slack
rows get s_i >= t through the primal half, tight rows y_i >= t through the
dual half).  The LP stops at the first iterate whose split the margin rule
proves: ``y_i > s_i``, or all slack where the iterate's x is interior.
Every split is proven by ``slack_margin`` and ``weight_margin``, which the
audit applies too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import HoffboundError, ProblemInstance, euclidean_norm, gamma, row_norms
from .numerics import NumericalFailure, TightBlock
from .solvers.programs import (
    AnalyticCenterSolution,
    InfeasibleQP,
    MinNormSolution,
    solve_analytic_center,
    solve_min_norm_qp,
    solve_partition_lp,
)

__all__ = [
    "AmbiguousIndex",
    "PartitionCertificate",
    "compute_partition",
    "slack_margin",
    "weight_margin",
]

# Rows whose Farkas weight is at most this fraction of the largest are not
# counted as proven tight.
_SUPPORT_CUT = 1e-4


class AmbiguousIndex(HoffboundError):
    """Rows could not be classified reliably as tight or slack."""


@dataclass(frozen=True)
class PartitionCertificate:
    """Partition of row indices with the witnesses that certify it.

    Attributes
    ----------
    B, N : tuple of int
        Sorted zero-based tight and slack row indices; disjoint, covering.
    x_hat : ndarray of shape (n,) or None
        Unit-norm interior witness: A_N x_hat < 0 and A_B x_hat = 0 up to a
        residual that ``slack_margin`` shows to be harmless.  None when N
        is empty.
    y_hat : ndarray of shape (len(B),)
        Positive dual witness with sum 1 and A_B' y_hat = 0, up to the same
        kind of residual (``weight_margin``).  Empty when B is empty.
    lp : dict or None
        The partition LP's iterate whose split was certified: its support
        margin ``t`` (that iterate need not be feasible, so t can exceed the
        LP's optimal margin), the interior-point steps taken before it
        (``iterations``, at least 1: the start ``x = 0``, ``y = s`` proves
        no split) and its raw LP ``residuals``.  None when the split was proven
        before the LP ran, by least-squares witnesses, the least-distance
        fit or the analytic center.
    block : TightBlock or None
        A_B factored as the split was proven on it, for the bounds to reuse.
        Not serialized; None on a certificate built by hand.
    A_N : ndarray of shape (len(N), n) or None
        The slack rows of A, gathered once for the bounds to reuse.  Not
        serialized; None on a certificate built by hand.
    solution : MinNormSolution or AnalyticCenterSolution or None
        The least-distance fit of all of A that proved every row slack, or
        the analytic center of ``block`` that proved every row tight, for
        ``bound_case_n`` or ``bound_case_b`` to reuse.  Not serialized; None
        when another witness proved the split.
    """

    B: tuple[int, ...]
    N: tuple[int, ...]
    x_hat: np.ndarray | None
    y_hat: np.ndarray
    lp: dict | None = None
    block: TightBlock | None = field(default=None, repr=False, metadata={"json": False})
    A_N: np.ndarray | None = field(default=None, repr=False, metadata={"json": False})
    solution: MinNormSolution | AnalyticCenterSolution | None = field(
        default=None, repr=False, metadata={"json": False})

    def __post_init__(self) -> None:
        if set(self.B) & set(self.N):
            raise ValueError("B and N must be disjoint")
        if self.x_hat is not None:
            self.x_hat.setflags(write=False)
        self.y_hat.setflags(write=False)


def slack_margin(block: TightBlock, A_N: np.ndarray, x_hat: np.ndarray) -> float:
    """Margin by which ``x_hat`` proves every row of ``A_N`` slack on P.

    The rows of A_N are slack when the margin is positive: then an exact
    ``x*`` with ``A_B x* = 0`` and ``A_N x* < 0`` exists, and x* lies in P.
    With ``W``, ``sigma`` and ``fro`` of ``block = TightBlock(A_B)``, the
    point ``x* = x_hat - W^+ W x_hat`` lies in ``null(W) = null(A_B)``, and
    ``||x_hat - x*|| <= ||W x_hat|| / sigma =: d``.  So
    ``a_i'x* <= a_i'x_hat + ||a_i|| d`` is negative for each row with
    ``-a_i'x_hat / ||a_i|| > d``; the margin is
    ``min_i -a_i'x_hat / ||a_i|| - d``, -inf when a row is zero.

    Rounding: a computed inner product of length n is within
    ``g ||u|| ||v||``, ``g = gamma(n + 2)``, of the exact one, so
    ``||W x_hat||`` may exceed its computed value by ``g fro ||x_hat||`` and
    each ``a_i'x_hat / ||a_i||`` be off by ``g ||x_hat||``.  The margin adds
    both terms and inflates d by ``1 + g`` for the norm and the quotient.
    ``sigma`` and the rank are taken as the SVD computes them.
    """
    g = gamma(x_hat.size + 2)
    nx = euclidean_norm(x_hat)
    norms = row_norms(A_N)
    if not norms.min() > 0.0:
        return -np.inf
    d = (euclidean_norm(block.W @ x_hat) + g * block.fro * nx) * (1.0 + g)
    d = d / block.sigma + g * nx
    return float((-(A_N @ x_hat) / norms).min()) * (1.0 - g) - d


def weight_margin(block: TightBlock, y_hat: np.ndarray) -> float:
    """Margin by which ``y_hat`` proves every row of ``A_B`` tight on P.

    The rows of A_B are tight when the margin is positive: then an exact
    ``y* > 0`` with ``A_B'y* = 0`` exists, and for every x in P,
    ``0 = y*'A_B x = sum_i y*_i a_i'x`` is a sum of nonpositive terms with
    positive weights, so each ``a_i'x = 0``.  With ``W`` and ``V`` of
    ``block = TightBlock(A_B)``, ``E = [V'W'; 1']`` has full row rank when
    its smallest singular value sigma_E is positive, so
    ``y* = y_hat - E^+ (E y_hat - e)``, with e the last unit vector, solves
    ``E y* = e``: ``1'y* = 1`` and ``V'W'y* = 0``, and since ``W'y*`` lies in
    the row space of W, which V spans, ``A_B'y* = 0``.  As V is
    orthonormal, ``||E y_hat - e|| = ||(W'y_hat, 1'y_hat - 1)||``, so
    ``||y_hat - y*|| <= ||(W'y_hat, 1'y_hat - 1)|| / sigma_E =: d`` and the
    margin is ``min y_hat - d`` (-inf when sigma_E is 0).

    Rounding: with ``g = gamma(|B| + 2)``, the computed residual norm may
    fall short of the exact one by ``g (fro ||y_hat|| + ||y_hat||_1)``; the
    margin adds that and inflates d by ``1 + g``.
    ``sigma_E`` and the basis V are taken as the SVD computes them, and an
    SVD that does not converge raises ``NumericalFailure``.
    """
    sigma_E = block.slice_factors[1]
    if not sigma_E > 0.0:
        return -np.inf
    g = gamma(y_hat.size + 2)
    res = euclidean_norm(np.concatenate([y_hat @ block.W, [y_hat.sum() - 1.0]]))
    res += g * (block.fro * euclidean_norm(y_hat) + float(np.abs(y_hat).sum()))
    return float(y_hat.min()) - res * (1.0 + g) / sigma_E


def compute_partition(instance: ProblemInstance) -> PartitionCertificate:
    """Compute the tight/slack row partition with its witnesses.

    A split is tried as a mask with candidate witnesses: x projected onto
    ``null(A_B)`` and scaled to unit norm, and ``y_B`` put on the slice
    ``{A_B'y = 0, 1'y = 1}`` (``TightBlock.project_to_slice``).  It is
    proven when its ``slack_margin`` and ``weight_margin`` are positive (an
    empty side needs none).

    First the two one-sided splits are tried on least-squares witnesses,
    read off ``full = TightBlock(A)`` with ``W = U S V'``: ``x_ls = -V c``
    with ``c = (WV)^+ 1`` solves ``W x = -1`` in least squares, and its
    residual ``r = 1 + W x_ls = (I - UU')1`` lies in ``null(W')``.  If
    ``W x_ls < 0``, x_ls is tried for the all-slack split; else if
    ``r > 0``, r is tried as the weights of the all-tight split.

    Then least-distance fits (``solve_min_norm_qp``) are tried.  The first
    is on the ``rank(A) + 1`` rows with the largest ``(W x_ls)_i / ||w_i||``,
    enough for a minimal Farkas certificate (Caratheodory), and is skipped
    when A has no more rows; if it finds a point, the second is on all of
    A, and its point ``z`` gives ``x = -z`` for the all-slack split.  If
    either fit is infeasible, its weights ``u >= 0`` prove the rows with
    ``u_i > 1e-4 max u`` tight; when those rows have the rank of A, every
    row lies in their span and is tight, and the analytic center of
    ``full`` is tried as the weights of the all-tight split.  The fit or
    center that proves the split is the certificate's ``solution``.  A
    split proven before the LP has ``lp = None``.

    Otherwise each iterate of the partition LP is tried as it comes, with
    the split ``B = {i : y_i > s_i}``, or the all-slack split when
    ``A x < 0``.  The LP stops at the first iterate whose split is proven,
    which the certificate's ``lp`` records.  The LP runs when the
    witnesses above fail: on a mixed split, and whenever a fit or the
    center raises or its witness fails the margin rule.  ``A`` is factored
    once, as ``full``, which is also the certificate's block when every row
    is tight; the SVDs of any other split are redone only when B changes.

    Raises
    ------
    AmbiguousIndex
        If the LP converges without an iterate whose split is proven.
    SolverStall
        If the LP stalls, diverges, meets a singular Newton system or
        reaches its iteration cap first.
    NumericalFailure
        If an SVD of A or of the tight rows does not converge.
    """
    A = instance.A
    full = TightBlock(A)
    all_slack = np.zeros(A.shape[0], bool)
    cache: list = [None, None, None]  # the latest B mask, its TightBlock, A_N

    def certify(b_mask, x, y):
        key = b_mask.tobytes()
        if key != cache[0]:
            if b_mask.all():
                block = full
            else:
                try:
                    block = TightBlock(A[b_mask])
                except NumericalFailure:
                    block = None
            cache[:] = key, block, A[~b_mask]
        _, block, A_N = cache
        if block is None:
            return None
        x_hat = None
        if A_N.shape[0]:
            x = x - block.V @ (block.V.T @ x)
            peak = float(np.abs(x).max())
            if not peak > 0.0:
                return None
            # Scaling by a power of two is exact and keeps ||x|| from overflowing.
            x = np.ldexp(x, -np.frexp(peak)[1])
            x_hat = x / euclidean_norm(x)
            if not slack_margin(block, A_N, x_hat) > 0.0:
                return None
        y_hat = np.zeros(0)
        if block.W.shape[0]:
            y_hat = block.project_to_slice(y[b_mask])
            if not weight_margin(block, y_hat) > 0.0:
                return None
        return b_mask, block, A_N, x_hat, y_hat

    def accept(x, y, s, t):
        # An interior x proves every row slack, whatever y > s says.
        return certify(all_slack if (A @ x < 0.0).all() else y > s, x, y)

    # x_ls = -V c solves W x = -1 in least squares, with c = (WV)^+ 1: the
    # columns of WV = U S are orthogonal, so c_k = (WV)'1 / s_k^2.  Its
    # residual 1 + W x_ls lies in null(W').
    WV = full.WV
    c = WV.sum(axis=0) / np.square(WV).sum(axis=0)
    Wx = -(WV @ c)
    found = solution = None
    if (Wx < 0.0).all():
        found = certify(all_slack, -(full.V @ c), None)
    elif (1.0 + Wx > 0.0).all():
        found = certify(~all_slack, None, 1.0 + Wx)
    if found is None:
        found, solution = _least_distance(A, full, Wx, certify)
    lp = None
    if found is None:
        found, lp = solve_partition_lp(full, accept)
        if found is None:
            raise AmbiguousIndex(
                f"the partition LP converged after {lp['iterations']} iterations "
                "without an iterate whose split passes the margin rule"
            )
    b_mask, block, A_N, x_hat, y_hat = found
    return PartitionCertificate(
        B=tuple(b_mask.nonzero()[0].tolist()),
        N=tuple((~b_mask).nonzero()[0].tolist()),
        x_hat=x_hat,
        y_hat=y_hat,
        lp=lp,
        block=block,
        A_N=A_N,
        solution=solution,
    )


def _least_distance(A, full, Wx, certify):
    """The least-distance stage of ``compute_partition``: what ``certify``
    returned for a one-sided split and the fit or center it was tried on,
    or ``(None, None)`` to leave the split to the LP."""
    m, r = A.shape[0], full.rank
    fits = [np.arange(m)]
    if m > r + 1:
        # This fit dismisses a tall mixed split without a fit of all of A.
        # On all-tight inputs it rarely holds a Farkas support, so all rows
        # are fit a second time; it stays because a mixed split is the
        # costly case: at 400x40 it takes 0.2 ms and the fit of all rows
        # 4.4 ms (2-CPU host, one BLAS thread).  The rows x_ls leaves least
        # negative, zero rows first.
        norms = row_norms(full.W)
        score = np.full(m, np.inf)
        np.divide(Wx, norms, out=score, where=norms > 0.0)
        fits.insert(0, np.sort(np.argsort(score)[-(r + 1):]))
    try:
        for rows in fits:
            try:
                fit = solve_min_norm_qp(A[rows])
            except InfeasibleQP as exc:
                # The rows its weights carry are tight; if they span the row
                # space of A, so is every row.
                u = exc.weights
                if u is None or TightBlock(A[rows[u > _SUPPORT_CUT * u.max()]]).rank != r:
                    return None, None
                center = solve_analytic_center(full)
                found = certify(np.ones(m, bool), None, center.y)
                return (found, center) if found is not None else (None, None)
    except HoffboundError:
        return None, None
    found = certify(np.zeros(m, bool), -fit.z, None)
    return (found, fit) if found is not None else (None, None)
