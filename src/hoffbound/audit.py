"""Independent recheck of a bound report's certificates.

Everything here is deliberately primitive: index bookkeeping, matrix-vector
products, norms, one singular value decomposition, and sign tests on the
stored witnesses.  No solver is called, so a report is validated by
arithmetic that shares nothing with the code that built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport
from .core import ProblemInstance, euclidean_norm
from .numerics import NumericalFailure, numerical_rank, row_norms
from .partition import PartitionCertificate

__all__ = ["AuditResult", "audit_report", "verify_partition"]

MARGIN_TOL = 1e-9
RESIDUAL_TOL = 1e-8
BASIS_TOL = 1e-10
SIGMA_RTOL = 1e-12


@dataclass(frozen=True)
class AuditResult:
    """Verdict of the recheck with per-check failure messages."""

    ok: bool
    failures: tuple[str, ...]
    metrics: dict


def _sigma_and_rank_gap(M: np.ndarray) -> tuple[float | None, float]:
    """Smallest singular value of M that the rank rule counts, and the gap.

    Rank rule and SVD call are those of the bound computation, so an honest
    report reproduces its sigma bit for bit.  The gap is ``s_r / s_{r+1}`` at
    numerical rank r (infinite at full rank or r = 0); sigma is None when
    r = 0.  Raises ``NumericalFailure`` when the rank is ambiguous.
    """
    s = np.linalg.svd(M, full_matrices=False)[1]
    r = numerical_rank(s, float(np.linalg.norm(M)))
    if r == 0:
        return None, math.inf
    gap = float(s[r - 1] / s[r]) if r < s.size and s[r] > 0.0 else math.inf
    return float(s[r - 1]), gap


def verify_partition(
    instance: ProblemInstance, cert: PartitionCertificate
) -> AuditResult:
    """Recheck a partition certificate using only matrix-vector products.

    No solver is invoked: the checks are index bookkeeping, norms, and sign
    conditions on the stored witnesses (exact cover of the row indices,
    ``A_N x_hat < 0`` with ``A_B x_hat = 0``, and ``y_hat > 0`` summing to 1
    with ``A_B' y_hat = 0``), so they share nothing with the LP that
    produced the certificate.  Residuals may reach ``RESIDUAL_TOL`` times
    ``max(1, ||A||_F)``.
    """
    A = instance.A
    failures: list[str] = []
    metrics: dict = {}
    budget = RESIDUAL_TOL * instance.scale

    union = sorted(cert.B + cert.N)
    if union != list(range(instance.m)):
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
        if tight > budget:
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
            if ceq > budget:
                failures.append(f"A_B' y_hat residual {ceq:.3e} exceeds budget")
    elif cert.y_hat.size:
        failures.append("y_hat must be empty when B is empty")

    return AuditResult(ok=not failures, failures=tuple(failures), metrics=metrics)


def audit_report(instance: ProblemInstance, report: BoundReport) -> AuditResult:
    """Recheck every certificate a bound report relies on.

    Checks, per branch: the partition certificate passes
    ``verify_partition``; the slack-block witness satisfies A_N x_bar >= 1
    and its norm equals the reported value; the tight-block witness is
    strictly positive, sums to 1, and annihilates A_B' to within
    ``RESIDUAL_TOL`` times the block scale; ``sigma`` exceeds the smallest
    singular value of A_B' diag(y_bar) that the rank rule counts by at most
    ``SIGMA_RTOL`` relative; the stitching witness has unit margin through
    the recomputed row scaling and an orthonormal basis; and the total
    equals the branch arithmetic bit for bit.  A rank that falls in
    the rule's ambiguous band is recorded as a failure, not raised.
    """
    A = instance.A
    failures: list[str] = []
    metrics: dict = {}

    if report.branch == "zero":
        if float(np.abs(A).max(initial=0.0)) != 0.0:
            failures.append("branch is 'zero' but the matrix has a nonzero entry")
        if report.total != 0.0:
            failures.append(f"zero branch must report total 0, got {report.total!r}")
        return AuditResult(ok=not failures, failures=tuple(failures), metrics=metrics)

    cert = report.partition
    if cert is None:
        return AuditResult(
            ok=False,
            failures=("non-zero branch is missing its partition certificate",),
            metrics=metrics,
        )
    check = verify_partition(instance, cert)
    failures.extend(check.failures)
    metrics.update(check.metrics)

    A_B = A[list(cert.B)]
    A_N = A[list(cert.N)]

    if report.case_n is not None:
        cn = report.case_n
        margin = float((A_N @ cn.x_bar).min()) if cert.N else np.inf
        metrics["case_n_margin"] = margin
        if margin < 1.0 - MARGIN_TOL:
            failures.append(f"slack-block witness margin {margin!r} is below 1")
        nrm = euclidean_norm(cn.x_bar)
        metrics["case_n_norm"] = nrm
        if not np.isclose(nrm, cn.value, rtol=1e-13, atol=0.0):
            failures.append(
                f"slack-block value {cn.value!r} does not equal ||x_bar|| {nrm!r}"
            )

    if report.case_b is not None:
        cb = report.case_b
        y = cb.y_bar
        if y.shape != (len(cert.B),):
            failures.append("tight-block witness length does not match B")
        elif cb.sigma is None:
            if float(np.abs(A_B).max(initial=0.0)) != 0.0:
                failures.append("sigma is missing for a nonzero tight block")
            if cb.value != 0.0:
                failures.append("zero tight block must report value 0")
        else:
            metrics["case_b_min_y"] = float(y.min())
            if y.min() <= 0.0:
                failures.append("tight-block witness is not strictly positive")
            sum_err = abs(float(y.sum()) - 1.0)
            metrics["case_b_sum_err"] = sum_err
            if sum_err > 1e-12:
                failures.append(f"tight-block witness sums to 1 within {sum_err!r}")
            scale = max(1.0, float(np.sqrt(np.sum(A_B * A_B))))
            ceq = float(np.abs(A_B.T @ y).max(initial=0.0))
            metrics["case_b_eq_inf"] = ceq
            if ceq > RESIDUAL_TOL * scale:
                failures.append(
                    f"A_B' y_bar residual {ceq:.3e} exceeds {RESIDUAL_TOL:.0e} x scale"
                )
            try:
                sigma, gap = _sigma_and_rank_gap(A_B.T * y[None, :])
            except NumericalFailure as exc:
                failures.append(f"rank of A_B' diag(y_bar): {exc}")
            else:
                metrics["case_b_sigma"] = sigma
                metrics["case_b_rank_gap"] = gap
                if sigma is None or cb.sigma > sigma * (1.0 + SIGMA_RTOL):
                    failures.append(
                        f"sigma {cb.sigma!r} exceeds the recomputed value {sigma!r}"
                    )
            if cb.sigma <= 0.0:
                failures.append("sigma must be positive")
            elif not np.isclose(cb.value, 2.0 / cb.sigma, rtol=1e-13, atol=0.0):
                failures.append("tight-block value does not equal 2 / sigma")

    if report.stitch is not None:
        st = report.stitch
        Q = st.Q
        gram_err = float(np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(initial=0.0))
        metrics["stitch_gram_err"] = gram_err
        if gram_err > BASIS_TOL:
            failures.append(f"stitch basis is not orthonormal ({gram_err:.3e})")
        try:
            metrics["stitch_rank_gap"] = _sigma_and_rank_gap(A_B)[1]
        except NumericalFailure as exc:
            failures.append(f"rank of A_B: {exc}")
        lift = Q @ st.z_bar
        null_res = float(np.abs(A_B @ lift).max(initial=0.0))
        metrics["stitch_null_res"] = null_res
        scale_b = max(1.0, float(np.sqrt(np.sum(A_B * A_B))))
        if null_res > RESIDUAL_TOL * scale_b * max(1.0, euclidean_norm(lift)):
            failures.append(
                f"stitch witness leaves the null space of A_B ({null_res:.3e})"
            )
        norms = row_norms(A_N)
        if np.any(norms <= 0.0):
            failures.append("a slack row is identically zero")
        else:
            margin = float(((A_N @ lift) / norms).min())
            metrics["stitch_margin"] = margin
            if margin < 1.0 - MARGIN_TOL:
                failures.append(f"stitch witness margin {margin!r} is below 1")
        expect = 1.0 + 2.0 * euclidean_norm(st.z_bar)
        if not np.isclose(st.value, expect, rtol=1e-13, atol=0.0):
            failures.append("stitch value does not equal 1 + 2 ||z_bar||")

    total = report.total
    if report.branch == "case_N":
        exact = report.case_n is not None and total == report.case_n.value
        present = report.case_b is None and report.stitch is None
        if not (exact and present):
            failures.append("case_N branch arithmetic mismatch")
    elif report.branch == "case_B":
        exact = report.case_b is not None and total == report.case_b.value
        present = report.case_n is None and report.stitch is None
        if not (exact and present):
            failures.append("case_B branch arithmetic mismatch")
    elif report.branch == "general":
        if report.case_n is None or report.case_b is None or report.stitch is None:
            failures.append("general branch is missing a component")
        elif total != report.stitch.value * max(
            report.case_n.value, report.case_b.value
        ):
            failures.append("general branch arithmetic mismatch")
    else:
        failures.append(f"unknown branch {report.branch!r}")

    return AuditResult(ok=not failures, failures=tuple(failures), metrics=metrics)
