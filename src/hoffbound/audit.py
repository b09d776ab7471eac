"""Independent recheck of a bound report's certificates.

Everything here is deliberately primitive: index bookkeeping, matrix-vector
products, norms, singular value decompositions, and sign tests on the
stored witnesses.  No solver is called, so a report is validated by
arithmetic that shares nothing with the optimization code that built it.
The one shared piece is the partition's margin rule
(``partition.slack_margin`` and ``weight_margin``): ``compute_partition``
proves every split with it, whichever witnesses it tried (the least-squares
point and residual, the least-distance fit, the analytic center or a
partition LP iterate), and the audit applies it again to the stored
witnesses, on its own ``numerics.TightBlock`` of the instance's rows A_B
(never the report's), which also gives the case-B check its sigma and box
and the stitch check the rank gap of A_B.  No rank is decided outside that
block.  The decomposition's row scales c and its value are the formulas of
``bounds.decomposition_scales`` and ``decomposition_value``, evaluated on
the audit's own block and weighted SVD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, CaseBBound, decomposition_scales, decomposition_value
from .core import ProblemInstance, ScaleOutOfRange, euclidean_norm, row_norms
from .numerics import NumericalFailure, TightBlock, WeightedBounds
from .partition import PartitionCertificate, slack_margin, weight_margin

__all__ = ["AuditResult", "audit_report", "verify_partition"]

MARGIN_TOL = 1e-9
UNIT_RTOL = 1e-13
RESIDUAL_TOL = 1e-8
SUM_TOL = 1e-12
SIGMA_RTOL = 1e-12

# The components each branch combines: the total is the stitch factor (1
# without a stitch) times the larger block bound present, or the
# decomposition bound where that is smaller.
_COMPONENTS = ("case_n", "case_b", "stitch", "decomposition")
_BRANCH_COMPONENTS = {
    "case_N": ("case_n",),
    "case_B": ("case_b",),
    "general": _COMPONENTS,
}


@dataclass(frozen=True)
class AuditResult:
    """Verdict of the recheck with per-check failure messages."""

    ok: bool
    failures: tuple[str, ...]
    metrics: dict


def _check_weights(y: np.ndarray, A_B: np.ndarray, fro_B: float, metrics: dict) -> list[str]:
    """Failures of the tight-block weights ``y_bar`` on the rows of ``A_B``:
    each is positive, they sum to 1 within ``SUM_TOL``, and
    ``||A_B' y||_inf`` is at most ``RESIDUAL_TOL fro_B``, ``fro_B = ||A_B||_F``."""
    if y.size == 0:
        return ["y_bar is empty"]
    failures = []
    # Each test is written so that a NaN fails it.
    metrics["case_b_min_y"] = float(y.min())
    if not y.min() > 0.0:
        failures.append("y_bar is not strictly positive")
    metrics["case_b_sum_err"] = sum_err = abs(float(y.sum()) - 1.0)
    if not sum_err <= SUM_TOL:
        failures.append(f"y_bar sums to 1 only within {sum_err!r}")
    metrics["case_b_eq_inf"] = ceq = float(np.abs(A_B.T @ y).max(initial=0.0))
    if not ceq <= RESIDUAL_TOL * fro_B:
        failures.append(f"A_B' y_bar residual {ceq:.3e} exceeds budget")
    return failures


def _check_unit_margin(Gz: np.ndarray, z: np.ndarray, value: float, bound,
                       name: str, key: str, metrics: dict) -> list[str]:
    """Failures of a deep-point witness ``z`` with product ``G z``, whose
    margin ``min(G z)`` (infinite with no rows) is recorded as ``key``.

    A witness of unit margin proves the bound ``bound(||z||)``, and
    ``z / min(G z)`` has unit margin, so ``z`` proves
    ``bound(||z|| / min(G z))``.  The claimed ``value`` must be at least
    that, up to ``UNIT_RTOL`` relative rounding.  The margin must also be 1
    within ``MARGIN_TOL``, as the report states its witnesses at unit
    margin; that test alone would let the value fall short by MARGIN_TOL.
    """
    metrics[key] = margin = float(Gz.min()) if Gz.size else math.inf
    failures = [] if margin >= 1.0 - MARGIN_TOL else [f"{name} margin {margin!r} is below 1"]
    proven = bound(euclidean_norm(z) / margin) if margin > 0.0 else math.inf
    if not value >= proven * (1.0 - UNIT_RTOL):
        failures.append(f"{name} proves {proven!r}, more than the value {value!r}")
    return failures


def _check_branch(report: BoundReport) -> list[str]:
    """Failure unless the report carries exactly its branch's components,
    ``total`` and their values are finite, and ``total`` equals their
    formula bit for bit: ``min(stitch * max(case_N, case_B), decomposition)``
    on the general branch, the one block bound on the others."""
    parts = _BRANCH_COMPONENTS.get(report.branch)
    if parts is None:
        return [f"unknown branch {report.branch!r}"]
    present = tuple(k for k in _COMPONENTS if getattr(report, k))
    if present != parts:
        return [f"{report.branch} branch carries {present}, not {parts}"]
    values = {"total": report.total, **{k: getattr(report, k).value for k in present}}
    bad = [f"{k} {v!r}" for k, v in values.items() if not math.isfinite(v)]
    if bad:
        return [f"non-finite bound: {', '.join(bad)}"]
    blocks = [c.value for c in (report.case_n, report.case_b) if c is not None]
    total = max(blocks)
    if report.stitch is not None:
        total = min(report.stitch.value * total, report.decomposition.value)
    if report.total != total:
        return [f"{report.branch} branch arithmetic mismatch"]
    return []


def _check_null_space(A_B: np.ndarray, w: np.ndarray, fro_B: float, name: str,
                      metrics: dict) -> list[str]:
    """Failure unless ``||A_B w||_inf <= RESIDUAL_TOL ||A_B||_F ||w||``, the
    residual recorded as ``{name}_null_res``."""
    metrics[f"{name}_null_res"] = res = float(np.abs(A_B @ w).max(initial=0.0))
    if not res <= RESIDUAL_TOL * fro_B * euclidean_norm(w):
        return [f"{name} witness leaves the null space of A_B ({res:.3e})"]
    return []


def _close(a: float, b: float) -> bool:
    """``np.isclose(a, b, rtol=UNIT_RTOL, atol=0.0)`` for two floats, without
    its array dispatch: b must be finite unless a equals it."""
    return a == b or (abs(a - b) <= UNIT_RTOL * abs(b) and math.isfinite(b))


def _check_case_b(cb: CaseBBound, wb: WeightedBounds, metrics: dict) -> list[str]:
    """Failures of a tight-block bound ``cb`` with a sigma, against the
    audit's own ``wb = block.weighted_bounds(y_bar)``, which rebuilds each
    lam, its residual and ``R'R`` from its SVD: bound_case_b's call, so an
    honest report is reproduced.  ``sigma`` may exceed the recomputed one and each
    ``b_k`` fall below its recomputation by ``SIGMA_RTOL`` relative at most,
    ``b`` has one entry per direction of the block's row space, and the
    value is at least the recomputed ``min(2 / sigma, box)`` by the same
    comparison and at most the report's own ``min(2 / sigma, box)``."""
    sigma, b, box = wb.sigma, wb.b, wb.box
    metrics["case_b_sigma"] = sigma
    metrics["case_b_box"] = box
    failures = []
    # Each test is written so that a NaN fails it.
    if not cb.sigma <= sigma * (1.0 + SIGMA_RTOL):
        failures.append(f"sigma {cb.sigma!r} exceeds the recomputed value {sigma!r}")
    if cb.b is None or cb.b.shape != b.shape:
        size = None if cb.b is None else cb.b.size
        failures.append(f"b has {size} entries, not the rank {b.size} of A_B")
    elif not np.all(b <= cb.b * (1.0 + SIGMA_RTOL)):
        failures.append("b falls below its recomputed value")
    proven = min(2.0 / sigma if sigma > 0.0 else math.inf, box)
    if not proven <= cb.value * (1.0 + SIGMA_RTOL):
        failures.append(f"tight-block value {cb.value!r} is below the recomputed "
                        f"min(2 / sigma, box) {proven!r}")
    if not cb.sigma > 0.0:
        failures.append("sigma must be positive")
    elif not cb.value <= min(2.0 / cb.sigma, box) * (1.0 + UNIT_RTOL):
        failures.append("tight-block value exceeds min(2 / sigma, box)")
    return failures


def verify_partition(
    instance: ProblemInstance, cert: PartitionCertificate
) -> AuditResult:
    """Recheck a partition certificate using only products, norms and SVDs.

    No solver is invoked.  The checks are index bookkeeping (exact cover of
    the row indices, sorted tuples, a unit ``x_hat``, no ``x_hat`` and an
    empty ``y_hat`` on an empty side) and the margin rule that proved the
    split, applied to the stored witnesses: ``slack_margin`` of
    ``x_hat`` on N and ``weight_margin`` of ``y_hat`` on B must be positive.
    Each margin proves that an exact witness lies next to the stored one,
    and the two exact witnesses prove that B is the tight set of P and N
    the slack set (see ``hoffbound.partition``).  A row index out of range
    is recorded and stops the recheck; an ``x_hat`` missing for a nonempty
    N or of the wrong length or an SVD that does not converge is a recorded
    failure.
    """
    return _verify_partition(instance, cert)[0]


def _verify_partition(instance: ProblemInstance, cert: PartitionCertificate):
    """``verify_partition`` with the audit's ``TightBlock`` of A_B (None
    where it was not built) and the rows ``A_B`` and ``A_N`` it gathered
    (None when a row index is out of range)."""
    A = instance.A
    failures: list[str] = []
    metrics: dict = {}
    rows = cert.B + cert.N
    if min(rows, default=0) < 0 or max(rows, default=0) >= instance.m:
        return AuditResult(ok=False, failures=("a row index is out of range",),
                           metrics=metrics), None, None, None

    if sorted(rows) != list(range(instance.m)):
        failures.append("B and N do not partition the row indices")
    if list(cert.B) != sorted(cert.B) or list(cert.N) != sorted(cert.N):
        failures.append("index tuples are not sorted")

    A_B = A[list(cert.B)]
    A_N = A[list(cert.N)]
    try:
        block = TightBlock(A_B)
    except (NumericalFailure, ScaleOutOfRange) as exc:
        block = None
        failures.append(f"rank of A_B: {exc}")

    if not cert.N:
        if cert.x_hat is not None:
            failures.append("x_hat must be None when N is empty")
    elif cert.x_hat is None:
        failures.append("x_hat is missing for a nonempty N")
    elif cert.x_hat.shape != (instance.n,):
        failures.append("x_hat length does not match n")
    else:
        nrm = euclidean_norm(cert.x_hat)
        metrics["x_hat_norm"] = nrm
        if not abs(nrm - 1.0) <= 1e-10:
            failures.append(f"x_hat norm {nrm!r} is not 1")
        metrics["min_slack_N"] = float((-(A_N @ cert.x_hat)).min())
        metrics["tight_rows_inf"] = float(np.abs(A_B @ cert.x_hat).max(initial=0.0))
        # Each margin test is written so that a NaN fails it.
        if block is not None:
            metrics["slack_margin"] = margin = slack_margin(block, A_N, cert.x_hat)
            if not margin > 0.0:
                failures.append(f"x_hat does not prove N slack (margin {margin!r})")

    if cert.B:
        y = cert.y_hat
        if y.shape != (len(cert.B),):
            failures.append("y_hat length does not match B")
        else:
            metrics["min_y_hat"] = float(y.min())
            metrics["y_hat_sum_err"] = abs(float(y.sum()) - 1.0)
            metrics["center_eq_inf"] = float(np.abs(A_B.T @ y).max(initial=0.0))
            if block is not None:
                try:
                    metrics["weight_margin"] = margin = weight_margin(block, y)
                except NumericalFailure as exc:
                    failures.append(f"weight margin of y_hat: {exc}")
                else:
                    if not margin > 0.0:
                        failures.append(f"y_hat does not prove B tight (margin {margin!r})")
    elif cert.y_hat.size:
        failures.append("y_hat must be empty when B is empty")

    check = AuditResult(ok=not failures, failures=tuple(failures), metrics=metrics)
    return check, block, A_B, A_N


def audit_report(instance: ProblemInstance, report: BoundReport) -> AuditResult:
    """Recheck every certificate a bound report relies on.

    The partition certificate passes ``verify_partition``; the slack-block
    witness has unit margin on A_N, its norm is the reported value, and
    ``value >= ||x_bar|| / min(A_N x_bar)`` (``_check_unit_margin``); the
    tight-block weights ``y_bar`` pass ``_check_weights``, and ``sigma``,
    ``b`` and the value pass ``_check_case_b`` against the audit block's
    ``weighted_bounds(y_bar)``, so that ``||diag(y_bar) A_B w|| >= sigma ||w||``
    on the row space of A_B and the value is at least ``min(2 / sigma, box)``
    (to ``SIGMA_RTOL``), or, without a sigma, A_B is exactly zero, ``b`` is
    absent and the value 0; the stitching witness w_bar has
    ``||A_B w_bar||_inf <= RESIDUAL_TOL ||A_B||_F ||w_bar||``, unit margin
    through the recomputed row scaling D, ``value = 1 + 2 ||w_bar||`` and
    ``value >= 1 + 2 ||w_bar|| / min(D A_N w_bar)``.  Both value
    inequalities hold up to ``UNIT_RTOL``.  The decomposition witness w
    passes the same null-space check; each ``c_i`` is rebuilt from the
    audit's own ``weighted_bounds(y_bar)`` and the audited ``h_B``, the
    case-B value; w has unit margin on ``(A_N w) / c``, and the value is
    ``sqrt(h_B^2 + r^2)``, ``r = ||w|| / min(1, min((A_N w) / c))``, bit for
    bit, so it is not one ulp below ``sqrt(h_B^2 + (||w|| / min((A_N w) / c))^2)``.
    Finally the report carries exactly its branch's components, their
    formula gives the total bit for bit, and every value is finite.
    Every budget is relative to the matrix it checks.  An SVD that does not
    converge, a row index out of range, an empty weight vector and a witness
    of the wrong length are recorded as failures, not raised.
    """
    failures: list[str] = []
    metrics: dict = {}
    cert = report.partition
    if cert is None:
        return AuditResult(
            ok=False,
            failures=("report is missing its partition certificate",),
            metrics=metrics,
        )
    check, block, A_B, A_N = _verify_partition(instance, cert)
    if A_B is None:
        return check
    failures.extend(check.failures)
    metrics.update(check.metrics)
    fro_B = euclidean_norm(A_B)

    if report.case_n is not None:
        cn = report.case_n
        if cn.x_bar.shape != (instance.n,):
            failures.append("slack-block witness length does not match n")
        else:
            failures += _check_unit_margin(
                A_N @ cn.x_bar, cn.x_bar, cn.value, lambda r: r,
                "slack-block witness", "case_n_margin", metrics)
            nrm = euclidean_norm(cn.x_bar)
            metrics["case_n_norm"] = nrm
            if not _close(nrm, cn.value):
                failures.append(
                    f"slack-block value {cn.value!r} does not equal ||x_bar|| {nrm!r}"
                )

    wb = None  # the audit's weighted_bounds(y_bar), once y_bar fits the block
    if report.case_b is not None:
        cb = report.case_b
        y = cb.y_bar
        if y.shape != (len(cert.B),):
            failures.append("tight-block witness length does not match B")
        elif cb.sigma is None:
            if np.any(A_B):
                failures.append("sigma is missing for a nonzero tight block")
            if cb.b is not None:
                failures.append("a zero tight block carries a box")
            if cb.value != 0.0:
                failures.append("zero tight block must report value 0")
            if block is not None and block.rank == 0:  # no SVD at rank 0
                wb = block.weighted_bounds(y)
        else:
            failures += _check_weights(y, A_B, fro_B, metrics)
            if block is not None:  # else the rank failure of A_B is recorded
                try:
                    wb = block.weighted_bounds(y)
                except NumericalFailure as exc:
                    failures.append(f"sigma of A_B' diag(y_bar): {exc}")
                else:
                    failures += _check_case_b(cb, wb, metrics)

    st = report.stitch
    if st is not None and st.w_bar.shape != (instance.n,):
        failures.append("stitch witness length does not match n")
    elif st is not None:
        if block is not None:
            metrics["stitch_rank_gap"] = block.rank_gap
        w = st.w_bar
        failures += _check_null_space(A_B, w, fro_B, "stitch", metrics)
        norms = row_norms(A_N)
        if np.any(norms <= 0.0):
            failures.append("a slack row is identically zero")
        else:
            failures += _check_unit_margin(
                (A_N @ w) / norms, w, st.value, lambda r: 1.0 + 2.0 * r,
                "stitch witness", "stitch_margin", metrics)
        expect = 1.0 + 2.0 * euclidean_norm(w)
        if not _close(st.value, expect):
            failures.append("stitch value does not equal 1 + 2 ||w_bar||")

    dc = report.decomposition
    if dc is not None and dc.w.shape != (instance.n,):
        failures.append("decomposition witness length does not match n")
    elif dc is not None and wb is not None:  # else case B's failure is recorded
        h_B = report.case_b.value
        failures += _check_null_space(A_B, dc.w, fro_B, "decomposition", metrics)
        Gw = (A_N @ dc.w) / decomposition_scales(block, wb, A_N, h_B)
        failures += _check_unit_margin(
            Gw, dc.w, dc.value, lambda r: math.sqrt(h_B * h_B + r * r),
            "decomposition witness", "decomposition_margin", metrics)
        # r = ||w|| / min(1, margin) is at least what w proves, so equality
        # also rejects a value one ulp below that
        if Gw.size and dc.value != decomposition_value(h_B, dc.w, Gw):
            failures.append("decomposition value does not equal sqrt(h_B^2 + ||w||^2)")

    failures += _check_branch(report)
    return AuditResult(ok=not failures, failures=tuple(failures), metrics=metrics)
