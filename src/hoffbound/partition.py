"""Splitting the rows of A into the tight set B and the slack set N.

For the cone P = {x : A x <= 0} every row index lands in exactly one of two
camps: the tight rows B, satisfied with equality by every point of P that
matters (a_i' x = 0 on the span of P), and the slack rows N, which admit a
point of P with strictly negative value.  The split is recovered from one
self-dual LP whose optimal margin t separates the supports: slack rows get
s_i >= t through the primal half, tight rows get y_i >= t through the dual
half, and strict complementarity keeps the two supports disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ZERO_NORM_FLOOR,
    HoffboundError,
    ProblemInstance,
    euclidean_norm,
    row_norms,
)
from .solvers.programs import SolverConfig, solve_partition_lp

__all__ = [
    "AmbiguousIndex",
    "PartitionCertificate",
    "compute_partition",
]

T_MIN = 1e-9


class AmbiguousIndex(HoffboundError):
    """Rows could not be classified reliably as tight or slack."""

    def __init__(self, message: str, indices: tuple[int, ...] = ()):
        super().__init__(message)
        self.indices = indices


@dataclass(frozen=True)
class PartitionCertificate:
    """Partition of row indices with the witnesses that certify it.

    Attributes
    ----------
    B, N : tuple of int
        Sorted zero-based tight and slack row indices; disjoint, covering.
    x_hat : ndarray of shape (n,)
        Unit-norm interior witness: A_N x_hat < 0 and A_B x_hat = 0.  The
        zero vector when N is empty.
    y_hat : ndarray of shape (len(B),)
        Strictly positive dual witness with sum 1 and A_B' y_hat = 0.  Empty
        when B is empty.
    t : float
        Optimal support margin of the partition LP.
    min_slack_N : float or None
        min over N of -a_i' x_hat; None when N is empty.
    min_y_hat : float or None
        Smallest component of y_hat; None when B is empty.
    residuals : dict
        Witness residuals plus the raw LP residuals, for auditing.
    lp_iterations : int
        Interior-point steps of the partition LP.
    """

    B: tuple[int, ...]
    N: tuple[int, ...]
    x_hat: np.ndarray
    y_hat: np.ndarray
    t: float
    min_slack_N: float | None
    min_y_hat: float | None
    residuals: dict = field(default_factory=dict)
    lp_iterations: int = 0

    def __post_init__(self) -> None:
        if set(self.B) & set(self.N):
            raise ValueError("B and N must be disjoint")
        self.x_hat.setflags(write=False)
        self.y_hat.setflags(write=False)


def compute_partition(
    instance: ProblemInstance, cfg: SolverConfig | None = None
) -> PartitionCertificate:
    """Compute the tight/slack row partition with its witnesses.

    Any exactly feasible point of the partition LP has support(y) inside the
    tight set and support(s) inside the slack set, and at the optimum both
    supports are filled to margin at least t.  Thresholding at t/2 therefore
    classifies every row, with a wide safety band between the camps; an
    interior-point solution is well inside the band once the duality gap is
    below t/2.  The LP is solved once, and a classification that fails is
    an error.  The witnesses x_hat and y_hat are the LP's x and y_B, each put
    back on its subspace of the tight block by one least-squares correction
    and then normalized.

    Raises
    ------
    AmbiguousIndex
        If some row sits on both sides (or neither side) of the threshold,
        or the optimal margin is too small to trust.
    """
    sol = solve_partition_lp(instance, cfg or SolverConfig())
    if sol.t < T_MIN:
        raise AmbiguousIndex(
            f"optimal margin t={sol.t:.3e} is below {T_MIN:.0e}; "
            "the partition cannot be certified"
        )
    b_mask = sol.y >= 0.5 * sol.t
    n_mask = sol.s >= 0.5 * sol.t
    bad = np.flatnonzero(b_mask == n_mask)
    if bad.size:
        raise AmbiguousIndex(
            f"rows {bad.tolist()} could not be classified as tight or slack",
            indices=tuple(int(i) for i in bad),
        )

    B = tuple(int(i) for i in np.flatnonzero(b_mask))
    N = tuple(int(i) for i in np.flatnonzero(n_mask))
    A_B = instance.A[list(B)]
    A_N = instance.A[list(N)]

    # The LP leaves small slack s_B on the tight rows and small mass y_N on
    # the slack rows, which the witnesses on the tight block alone would
    # inherit as residuals of A_B x and A_B' y.  One least-squares
    # correction each, in units of the largest tight row, puts x back in
    # null(A_B) and y_B back on the slice {A_B' y = 0, 1'y = 1}.
    scale = float(row_norms(A_B).max(initial=0.0))
    W = A_B / scale if scale > ZERO_NORM_FLOOR else A_B
    if N:
        x = sol.x - np.linalg.lstsq(W, W @ sol.x, rcond=None)[0]
        # Scaling by a power of two is exact and keeps ||x|| from overflowing.
        x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
        x_hat = x / euclidean_norm(x)
    else:
        x_hat = np.zeros(instance.n)
    if B:
        yB = sol.y[list(B)]
        E = np.vstack([W.T, np.ones(len(B))])
        residual = np.append(W.T @ yB, yB.sum() - 1.0)
        yB = yB - np.linalg.lstsq(E, residual, rcond=None)[0]
        y_hat = yB / yB.sum()
    else:
        y_hat = np.zeros(0)

    min_slack = float((-(A_N @ x_hat)).min()) if N else None
    min_y = float(y_hat.min()) if B else None

    residuals = {
        "t": sol.t,
        "tight_rows_inf": float(np.abs(A_B @ x_hat).max(initial=0.0)),
        "center_eq_inf": float(np.abs(A_B.T @ y_hat).max(initial=0.0)) if B else 0.0,
        "lp": dict(sol.residuals),
    }
    return PartitionCertificate(
        B=B,
        N=N,
        x_hat=x_hat,
        y_hat=y_hat,
        t=sol.t,
        min_slack_N=min_slack,
        min_y_hat=min_y,
        residuals=residuals,
        lp_iterations=sol.iterations,
    )
