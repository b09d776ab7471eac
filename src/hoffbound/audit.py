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
SUM_TOL = 1e-12
BASIS_TOL = 1e-10
SIGMA_RTOL = 1e-12

# The components each branch combines: the total is the stitch factor (1
# without a stitch) times the larger block bound present (0 without one).
_BRANCH_COMPONENTS = {
    "zero": (),
    "case_N": ("case_n",),
    "case_B": ("case_b",),
    "general": ("case_n", "case_b", "stitch"),
}


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
    r = 0.  Raises ``NumericalFailure`` when the rank is ambiguous and
    ``LinAlgError`` when the SVD does not converge (as on a NaN entry).
    """
    s = np.linalg.svd(M, full_matrices=False)[1]
    r = numerical_rank(s)
    if r == 0:
        return None, math.inf
    gap = float(s[r - 1] / s[r]) if r < s.size and s[r] > 0.0 else math.inf
    return float(s[r - 1]), gap


def _check_weights(y: np.ndarray, A_B: np.ndarray, name: str,
                   keys: tuple[str, str, str], metrics: dict) -> list[str]:
    """Failures of the weights ``y`` on the rows of ``A_B``: each is positive,
    they sum to 1 within ``SUM_TOL``, and ``||A_B' y||_inf`` is at most
    ``RESIDUAL_TOL ||A_B||_F``.  ``keys`` name the three recorded metrics."""
    if y.size == 0:
        return [f"{name} is empty"]
    min_key, sum_key, eq_key = keys
    failures = []
    # Each test is written so that a NaN fails it.
    metrics[min_key] = float(y.min())
    if not y.min() > 0.0:
        failures.append(f"{name} is not strictly positive")
    metrics[sum_key] = sum_err = abs(float(y.sum()) - 1.0)
    if not sum_err <= SUM_TOL:
        failures.append(f"{name} sums to 1 only within {sum_err!r}")
    metrics[eq_key] = ceq = float(np.abs(A_B.T @ y).max(initial=0.0))
    if not ceq <= RESIDUAL_TOL * np.linalg.norm(A_B):
        failures.append(f"A_B' {name} residual {ceq:.3e} exceeds budget")
    return failures


def _check_unit_margin(Gz: np.ndarray, name: str, key: str, metrics: dict) -> list[str]:
    """Failure unless the product ``G z`` of a deep-point witness has
    ``min(G z) >= 1 - MARGIN_TOL`` (infinite with no rows), recorded as ``key``."""
    metrics[key] = margin = float(Gz.min()) if Gz.size else math.inf
    return [] if margin >= 1.0 - MARGIN_TOL else [f"{name} margin {margin!r} is below 1"]


def _check_branch(report: BoundReport) -> list[str]:
    """Failure unless the report carries exactly its branch's components,
    ``total`` and their values are finite, and ``total`` equals their product
    formula bit for bit."""
    parts = _BRANCH_COMPONENTS.get(report.branch)
    if parts is None:
        return [f"unknown branch {report.branch!r}"]
    present = tuple(k for k in ("case_n", "case_b", "stitch") if getattr(report, k))
    if present != parts:
        return [f"{report.branch} branch carries {present}, not {parts}"]
    values = {"total": report.total, **{k: getattr(report, k).value for k in present}}
    bad = [f"{k} {v!r}" for k, v in values.items() if not math.isfinite(v)]
    if bad:
        return [f"non-finite bound: {', '.join(bad)}"]
    blocks = [c.value for c in (report.case_n, report.case_b) if c is not None]
    factor = 1.0 if report.stitch is None else report.stitch.value
    if report.total != factor * max(blocks, default=0.0):
        return [f"{report.branch} branch arithmetic mismatch"]
    return []


def _rows_in_range(instance: ProblemInstance, cert: PartitionCertificate) -> bool:
    return all(0 <= i < instance.m for i in cert.B + cert.N)


def verify_partition(
    instance: ProblemInstance, cert: PartitionCertificate
) -> AuditResult:
    """Recheck a partition certificate using only matrix-vector products.

    No solver is invoked: the checks are index bookkeeping, norms, and sign
    conditions on the stored witnesses (exact cover of the row indices,
    ``A_N x_hat < 0`` with ``A_B x_hat = 0`` for a unit ``x_hat``, and the
    weights check on ``y_hat``: positive, summing to 1 within ``SUM_TOL``,
    with ``A_B' y_hat = 0``), so they share nothing with the LP that produced
    the certificate.  Both residuals may reach ``RESIDUAL_TOL ||A_B||_F``.
    A row index out of range is recorded and stops the recheck.
    """
    A = instance.A
    failures: list[str] = []
    metrics: dict = {}
    if not _rows_in_range(instance, cert):
        return AuditResult(ok=False, failures=("a row index is out of range",),
                           metrics=metrics)

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
        if not abs(nrm - 1.0) <= 1e-10:
            failures.append(f"x_hat norm {nrm!r} is not 1")
        slack = -(A_N @ cert.x_hat)
        metrics["min_slack_N"] = float(slack.min())
        if not slack.min() > 0.0:
            failures.append("x_hat is not strictly slack on every row of N")
        tight = float(np.abs(A_B @ cert.x_hat).max(initial=0.0))
        metrics["tight_rows_inf"] = tight
        if not tight <= RESIDUAL_TOL * np.linalg.norm(A_B):
            failures.append(f"A_B x_hat residual {tight:.3e} exceeds budget")
    elif euclidean_norm(cert.x_hat) != 0.0:
        failures.append("x_hat must be zero when N is empty")

    if cert.B:
        if cert.y_hat.shape != (len(cert.B),):
            failures.append("y_hat length does not match B")
        else:
            keys = ("min_y_hat", "y_hat_sum_err", "center_eq_inf")
            failures += _check_weights(cert.y_hat, A_B, "y_hat", keys, metrics)
    elif cert.y_hat.size:
        failures.append("y_hat must be empty when B is empty")

    return AuditResult(ok=not failures, failures=tuple(failures), metrics=metrics)


def audit_report(instance: ProblemInstance, report: BoundReport) -> AuditResult:
    """Recheck every certificate a bound report relies on.

    A zero branch needs a zero matrix.  Otherwise: the partition certificate
    passes ``verify_partition``; the slack-block witness has unit margin on
    A_N and its norm is the reported value; the tight-block witness passes
    the weights check of ``y_hat``, and ``sigma`` exceeds the smallest
    singular value of A_B' diag(y_bar) that the rank rule counts by at most
    ``SIGMA_RTOL`` relative; the stitching witness lies in null(A_B) within
    ``RESIDUAL_TOL ||A_B||_F ||Q z_bar||``, on an orthonormal basis, with unit
    margin through the recomputed row scaling.  Finally the report carries
    exactly its branch's components, and their product formula gives the
    total bit for bit, and every value is finite.  Every budget is relative
    to the matrix it checks.  A rank in the rule's ambiguous band, an SVD
    that does not converge, a row index out of range and an empty weight
    vector are recorded as failures, not raised.
    """
    A = instance.A
    failures: list[str] = []
    metrics: dict = {}
    if report.branch == "zero":
        if np.any(A):
            failures.append("branch is 'zero' but the matrix has a nonzero entry")
        failures += _check_branch(report)
        return AuditResult(ok=not failures, failures=tuple(failures), metrics=metrics)
    cert = report.partition
    if cert is None:
        return AuditResult(
            ok=False,
            failures=("non-zero branch is missing its partition certificate",),
            metrics=metrics,
        )
    check = verify_partition(instance, cert)
    if not _rows_in_range(instance, cert):
        return check
    failures.extend(check.failures)
    metrics.update(check.metrics)
    A_B = A[list(cert.B)]
    A_N = A[list(cert.N)]

    if report.case_n is not None:
        cn = report.case_n
        failures += _check_unit_margin(
            A_N @ cn.x_bar, "slack-block witness", "case_n_margin", metrics)
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
            if np.any(A_B):
                failures.append("sigma is missing for a nonzero tight block")
            if cb.value != 0.0:
                failures.append("zero tight block must report value 0")
        else:
            keys = ("case_b_min_y", "case_b_sum_err", "case_b_eq_inf")
            failures += _check_weights(y, A_B, "y_bar", keys, metrics)
            try:
                sigma, gap = _sigma_and_rank_gap(A_B.T * y[None, :])
            except (NumericalFailure, np.linalg.LinAlgError) as exc:
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
        except (NumericalFailure, np.linalg.LinAlgError) as exc:
            failures.append(f"rank of A_B: {exc}")
        lift = Q @ st.z_bar
        null_res = float(np.abs(A_B @ lift).max(initial=0.0))
        metrics["stitch_null_res"] = null_res
        if null_res > RESIDUAL_TOL * np.linalg.norm(A_B) * euclidean_norm(lift):
            failures.append(
                f"stitch witness leaves the null space of A_B ({null_res:.3e})"
            )
        norms = row_norms(A_N)
        if np.any(norms <= 0.0):
            failures.append("a slack row is identically zero")
        else:
            failures += _check_unit_margin(
                (A_N @ lift) / norms, "stitch witness", "stitch_margin", metrics)
        expect = 1.0 + 2.0 * euclidean_norm(st.z_bar)
        if not np.isclose(st.value, expect, rtol=1e-13, atol=0.0):
            failures.append("stitch value does not equal 1 + 2 ||z_bar||")

    failures += _check_branch(report)
    return AuditResult(ok=not failures, failures=tuple(failures), metrics=metrics)
