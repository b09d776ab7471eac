"""Dense linear-algebra kernels: the numerical-rank rule, null-space bases,
positive singular values, row normalization.

All factorizations are SVD-based.  At the target sizes (a few thousand rows
at most) the reliability of a full SVD outweighs its cost, and the quality of
the orthonormal null-space basis gates the validity of the subspace/cone
stitching bound downstream.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .core import HoffboundError, row_norms

__all__ = [
    "DEFAULT_RANK_TOL",
    "DegenerateRow",
    "NumericalFailure",
    "RANK_BAND",
    "ZERO_MATRIX_FLOOR",
    "numerical_rank",
    "orthonormal_null_basis",
    "row_norms",
    "row_normalize",
    "row_space_basis",
    "smallest_positive_singular_value",
]

# Relative numerical-rank threshold: singular values at or below
# DEFAULT_RANK_TOL * sigma_max are treated as zero.  There is no absolute
# floor besides the zero-matrix one, so a rank does not change when the
# matrix is scaled.
DEFAULT_RANK_TOL = 1e-9

# Lower edge of the ambiguous band: a singular value cut as zero must lie at
# or below RANK_BAND * sigma_max.  The largest value cut on the benchmark's
# 274 reports and 800 of the tests' random matrices is 4.6e-16 * sigma_max,
# rounding noise; a value above the edge may be a real direction, and
# dropping it would make a bound built on the rank unsound.
RANK_BAND = 1e-13

# A matrix whose largest singular value is at or below this has rank 0.
ZERO_MATRIX_FLOOR = 1e-300


class NumericalFailure(HoffboundError):
    """A dense factorization failed to converge or produced invalid output."""


class DegenerateRow(HoffboundError):
    """A row expected to be nonzero has (numerically) zero norm."""


def _svd(M: np.ndarray, full_matrices: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        return np.linalg.svd(M, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def numerical_rank(s: np.ndarray) -> int:
    """Numerical rank from the descending singular values ``s`` of a matrix.

    The rank counts the ``s_i > DEFAULT_RANK_TOL * s_max``, a purely
    relative rule, so ``c M`` has the rank of ``M``; it is 0 only when
    ``s_max <= ZERO_MATRIX_FLOOR``.  This is the only place the package
    decides a numerical rank.

    Raises
    ------
    NumericalFailure
        If the relative cut drops a singular value above
        ``RANK_BAND * s_max``: such a value is neither clearly rounding
        noise nor clearly counted, and any bound built on the rank would be
        unsound.
    """
    sigma_max = float(s[0]) if s.size else 0.0
    if sigma_max <= ZERO_MATRIX_FLOOR:
        return 0
    rank = int(np.count_nonzero(s > DEFAULT_RANK_TOL * sigma_max))
    if rank < s.size and s[rank] > RANK_BAND * sigma_max:
        raise NumericalFailure(
            f"singular value {s[rank]:.3e} lies in the ambiguous band "
            f"({RANK_BAND:.0e}, {DEFAULT_RANK_TOL:.0e}] x sigma_max {sigma_max:.3e}; "
            "the numerical rank cannot be decided"
        )
    return rank


def orthonormal_null_basis(A_B: npt.ArrayLike) -> np.ndarray:
    """Orthonormal basis ``Q`` of the numerical null space ``{x : A_B x = 0}``.

    ``Q`` has shape ``(n, k)`` with ``Q^T Q = I``; the null directions are
    those ``numerical_rank`` cuts.  A matrix with zero rows, or of numerical
    rank 0, yields the identity.  Deterministic for a fixed input.

    Raises
    ------
    NumericalFailure
        If the SVD fails, the rank falls in the ambiguous band, or the basis
        is not orthonormal.
    """
    A_B = np.asarray(A_B, dtype=float)
    if A_B.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows, n = A_B.shape
    if rows == 0:
        return np.eye(n)

    _, s, Vh = _svd(A_B, full_matrices=True)
    rank = numerical_rank(s)
    if rank == 0:
        return np.eye(n)
    Q = np.ascontiguousarray(Vh[rank:].T)
    gram_err = float(np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(initial=0.0))
    if gram_err > 1e-10:
        raise NumericalFailure(
            f"null basis lost orthonormality (gram error {gram_err:.3e})"
        )
    return Q


def row_space_basis(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis ``V`` of shape ``(n, r)`` of the row space of ``A``.

    The columns are the right singular vectors whose singular values
    ``numerical_rank`` counts, so ``A V`` has full column rank ``r``.
    Raises ``NumericalFailure`` when the rank falls in the ambiguous band.
    """
    _, s, Vh = _svd(A, full_matrices=False)
    return np.ascontiguousarray(Vh[: numerical_rank(s)].T)


def smallest_positive_singular_value(M: npt.ArrayLike) -> float | None:
    """Smallest singular value that ``numerical_rank`` counts.

    Returns ``s[r - 1]`` at numerical rank ``r``, or ``None`` when the
    matrix is numerically zero.  Raises ``NumericalFailure`` when the rank
    falls in the ambiguous band.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    s = _svd(M, full_matrices=False)[1]
    rank = numerical_rank(s)
    return float(s[rank - 1]) if rank else None


def row_normalize(A_N: npt.ArrayLike) -> np.ndarray:
    """Rows of ``A_N`` scaled to unit Euclidean norm, ``D A_N`` with
    ``D_ii = 1 / ||row_i||_2``.

    Raises ``DegenerateRow`` if any row is numerically zero, which signals a
    broken partition upstream (strict rows are never zero).
    """
    A_N = np.asarray(A_N, dtype=float)
    if A_N.ndim != 2 or A_N.shape[0] == 0:
        raise ValueError("expected a matrix with at least one row")
    norms = row_norms(A_N)
    if (norms <= 1e-300).any():
        bad = int(np.argmin(norms))
        raise DegenerateRow(f"row {bad} has zero norm and cannot be normalized")
    return A_N * (1.0 / norms)[:, None]
