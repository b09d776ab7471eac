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

from .core import HoffboundError, ProblemInstance, euclidean_norm, relative_scale
from .solvers import SolverConfig, solve_partition_lp

__all__ = [
    "AmbiguousIndex",
    "PartitionCertificate",
    "PartitionCheck",
    "compute_partition",
    "verify_partition",
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
    """

    B: tuple[int, ...]
    N: tuple[int, ...]
    x_hat: np.ndarray
    y_hat: np.ndarray
    t: float
    min_slack_N: float | None
    min_y_hat: float | None
    residuals: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if set(self.B) & set(self.N):
            raise ValueError("B and N must be disjoint")
        self.x_hat.setflags(write=False)
        self.y_hat.setflags(write=False)

    @property
    def m(self) -> int:
        return len(self.B) + len(self.N)


def _classify(
    y: np.ndarray, s: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold split at t/2; returns (tight mask, slack mask, bad indices)."""
    thr = 0.5 * t
    b_mask = y >= thr
    n_mask = s >= thr
    bad = np.flatnonzero(b_mask == n_mask)
    return b_mask, n_mask, bad


def compute_partition(
    instance: ProblemInstance, cfg: SolverConfig | None = None
) -> PartitionCertificate:
    """Compute the tight/slack row partition with its witnesses.

    Any exactly feasible point of the partition LP has support(y) inside the
    tight set and support(s) inside the slack set, and at the optimum both
    supports are filled to margin at least t.  Thresholding at t/2 therefore
    classifies every row, with a wide safety band between the camps; an
    interior-point solution is well inside the band once the duality gap is
    below t/2.  A failed classification is retried once at 100x tighter
    tolerances before giving up.

    Raises
    ------
    AmbiguousIndex
        If some row sits on both sides (or neither side) of the threshold
        after the retry, or the optimal margin is too small to trust.
    """
    cfg = cfg or SolverConfig()
    sol = solve_partition_lp(instance, cfg)
    b_mask, n_mask, bad = _classify(sol.y, sol.s, sol.t)

    if sol.t < T_MIN or bad.size:
        tight = cfg.tightened(100.0)
        sol = solve_partition_lp(instance, tight)
        b_mask, n_mask, bad = _classify(sol.y, sol.s, sol.t)
        if sol.t < T_MIN:
            raise AmbiguousIndex(
                f"optimal margin t={sol.t:.3e} is below {T_MIN:.0e}; "
                "the partition cannot be certified"
            )
        if bad.size:
            raise AmbiguousIndex(
                f"rows {bad.tolist()} could not be classified"
                " as tight or slack",
                indices=tuple(int(i) for i in bad),
            )

    B = tuple(int(i) for i in np.flatnonzero(b_mask))
    N = tuple(int(i) for i in np.flatnonzero(n_mask))
    A = instance.A

    if N:
        x_hat = sol.x / euclidean_norm(sol.x)
    else:
        x_hat = np.zeros(instance.n)
    if B:
        yB = sol.y[list(B)]
        y_hat = yB / yB.sum()
    else:
        y_hat = np.zeros(0)

    A_B = A[list(B)]
    A_N = A[list(N)]
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
    )


@dataclass(frozen=True)
class PartitionCheck:
    """Outcome of an independent recheck of a partition certificate."""

    ok: bool
    failures: tuple[str, ...]
    metrics: dict


def verify_partition(
    instance: ProblemInstance,
    cert: PartitionCertificate,
    tol: float = 1e-8,
) -> PartitionCheck:
    """Recheck a partition certificate using only matrix-vector products.

    No solver is invoked: the checks are index bookkeeping, norms, and sign
    conditions on the stored witnesses, so they share nothing with the LP
    that produced the certificate.
    """
    A = instance.A
    m = instance.m
    failures: list[str] = []
    metrics: dict = {}
    scale = relative_scale(instance.frobenius_scale)

    union = sorted(cert.B + cert.N)
    if union != list(range(m)):
        failures.append("B and N do not partition the row indices")
    if list(cert.B) != sorted(cert.B) or list(cert.N) != sorted(cert.N):
        failures.append("index tuples are not sorted")

    A_B = A[list(cert.B)]
    A_N = A[list(cert.N)]

    if cert.N:
        nrm = euclidean_norm(cert.x_hat)
        metrics["x_hat_norm"] = nrm
        if abs(nrm - 1.0) > 1e-10:
            failures.append(f"x_hat norm {nrm!r} is not 1")
        slack = -(A_N @ cert.x_hat)
        metrics["min_slack_N"] = float(slack.min())
        if slack.min() <= 0.0:
            failures.append("x_hat is not strictly slack on every row of N")
        tight = float(np.abs(A_B @ cert.x_hat).max(initial=0.0))
        metrics["tight_rows_inf"] = tight
        if tight > tol * scale:
            failures.append(f"A_B x_hat residual {tight:.3e} exceeds budget")
    else:
        if euclidean_norm(cert.x_hat) != 0.0:
            failures.append("x_hat must be zero when N is empty")

    if cert.B:
        if cert.y_hat.shape != (len(cert.B),):
            failures.append("y_hat length does not match B")
        else:
            metrics["min_y_hat"] = float(cert.y_hat.min())
            if cert.y_hat.min() <= 0.0:
                failures.append("y_hat is not strictly positive")
            ssum = float(cert.y_hat.sum())
            metrics["y_hat_sum_err"] = abs(ssum - 1.0)
            if abs(ssum - 1.0) > 1e-10:
                failures.append(f"y_hat sums to {ssum!r}, not 1")
            ceq = float(np.abs(A_B.T @ cert.y_hat).max(initial=0.0))
            metrics["center_eq_inf"] = ceq
            if ceq > tol * scale:
                failures.append(f"A_B' y_hat residual {ceq:.3e} exceeds budget")
    elif cert.y_hat.size:
        failures.append("y_hat must be empty when B is empty")

    return PartitionCheck(ok=not failures, failures=tuple(failures), metrics=metrics)
