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
from .core import ProblemInstance, euclidean_norm, relative_scale
from .numerics import DEFAULT_RANK_TOL, row_norms
from .partition import verify_partition

__all__ = ["AuditResult", "audit_report"]

MARGIN_TOL = 1e-9
CENTER_TOL = 1e-8
BASIS_TOL = 1e-10
SIGMA_RTOL = 1e-12


@dataclass(frozen=True)
class AuditResult:
    """Verdict of the recheck with per-check failure messages."""

    ok: bool
    failures: tuple[str, ...]
    metrics: dict


def _sigma_and_rank_gap(
    M: np.ndarray, rank: int | None = None
) -> tuple[float | None, float]:
    """Smallest singular value of M above the rank threshold, and the rank gap.

    Threshold and SVD call are those of the bound computation, so an honest
    report reproduces its sigma bit for bit.  The gap is ``s_r / s_{r+1}`` at
    numerical rank r (infinite at full rank or r = 0), with r decided by the
    threshold unless ``rank`` fixes it; sigma is None for a zero M.
    """
    s = np.linalg.svd(M, full_matrices=False)[1]
    sigma_max = float(s[0]) if s.size else 0.0
    if sigma_max <= DEFAULT_RANK_TOL * relative_scale(float(np.linalg.norm(M))):
        return None, math.inf
    r = int(np.count_nonzero(s > DEFAULT_RANK_TOL * sigma_max)) if rank is None else rank
    gap = float(s[r - 1] / s[r]) if 0 < r < s.size and s[r] > 0.0 else math.inf
    return float(s[r - 1]), gap


def audit_report(instance: ProblemInstance, report: BoundReport) -> AuditResult:
    """Recheck every certificate a bound report relies on.

    Checks, per branch: the partition certificate passes
    ``verify_partition`` (exact cover of the row indices, and the witnesses
    x_hat and y_hat); the slack-block witness satisfies A_N x_bar >= 1 and
    its norm equals the reported value; the tight-block witness is strictly
    positive, sums to 1, and annihilates A_B' to within ``CENTER_TOL`` times
    the block scale; ``sigma`` exceeds the smallest singular value of
    A_B' diag(y_bar) above the default rank threshold by at most
    ``SIGMA_RTOL`` relative (a looser ``rank_tol`` that drops a singular value
    fails here); the stitching witness has unit margin through the recomputed
    row scaling and an orthonormal basis; and the total equals the branch
    arithmetic bit for bit.
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
            if ceq > CENTER_TOL * scale:
                failures.append(
                    f"A_B' y_bar residual {ceq:.3e} exceeds {CENTER_TOL:.0e} x scale"
                )
            sigma, gap = _sigma_and_rank_gap(A_B.T * y[None, :])
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
        # the stitch basis was cut at rank n - dim(Q); no threshold yet
        metrics["stitch_rank_gap"] = _sigma_and_rank_gap(A_B, instance.n - Q.shape[1])[1]
        if gram_err > BASIS_TOL:
            failures.append(f"stitch basis is not orthonormal ({gram_err:.3e})")
        lift = Q @ st.z_bar
        null_res = float(np.abs(A_B @ lift).max(initial=0.0))
        metrics["stitch_null_res"] = null_res
        scale_b = max(1.0, float(np.sqrt(np.sum(A_B * A_B))))
        if null_res > CENTER_TOL * scale_b * max(1.0, euclidean_norm(lift)):
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
