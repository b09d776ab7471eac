"""Dense linear-algebra kernels: null-space bases, positive singular values,
row normalization.

All factorizations are SVD-based.  At the target sizes (a few thousand rows
at most) the reliability of a full SVD outweighs its cost, and the quality of
the orthonormal null-space basis gates the validity of the subspace/cone
stitching bound downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .core import HoffboundError, relative_scale

__all__ = [
    "DEFAULT_RANK_TOL",
    "DegenerateRow",
    "NullBasis",
    "NumericalFailure",
    "orthonormal_null_basis",
    "row_norms",
    "row_normalize",
    "smallest_positive_singular_value",
]

# Relative numerical-rank threshold: singular values at or below
# DEFAULT_RANK_TOL * sigma_max are treated as zero.  For matrices whose
# largest singular value is itself negligible against the absolute scale
# max(1, ||.||_F), the whole matrix is treated as zero.
DEFAULT_RANK_TOL = 1e-9


class NumericalFailure(HoffboundError):
    """A dense factorization failed to converge or produced invalid output."""


class DegenerateRow(HoffboundError):
    """A row expected to be nonzero has (numerically) zero norm."""


@dataclass(frozen=True)
class NullBasis:
    """Orthonormal basis ``Q`` of the numerical null space of a matrix.

    ``Q`` has shape ``(n, k)`` with ``Q^T Q = I``.
    """

    Q: np.ndarray

    def __post_init__(self) -> None:
        k = self.Q.shape[1]
        if k > 0:
            gram_err = np.abs(self.Q.T @ self.Q - np.eye(k)).max()
            if gram_err > 1e-10:
                raise NumericalFailure(
                    f"null basis lost orthonormality (gram error {gram_err:.3e})"
                )


def _svd(M: np.ndarray, full_matrices: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        return np.linalg.svd(M, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc


def orthonormal_null_basis(A_B: npt.ArrayLike, rank_tol: float = DEFAULT_RANK_TOL) -> NullBasis:
    """Orthonormal basis of the numerical null space ``{x : A_B x = 0}``.

    Directions whose singular value is at most ``rank_tol * sigma_max`` are
    counted as null.  A matrix with zero rows (or one numerically zero against
    the absolute scale ``max(1, ||A_B||_F)``) yields the full identity basis.
    Deterministic for a fixed input.
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    A_B = np.asarray(A_B, dtype=float)
    if A_B.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    rows, n = A_B.shape
    if rows == 0:
        return NullBasis(Q=np.eye(n))

    fro = float(np.linalg.norm(A_B))
    _, s, Vh = _svd(A_B, full_matrices=True)
    sigma_max = float(s[0]) if s.size else 0.0
    if sigma_max <= rank_tol * relative_scale(fro):
        return NullBasis(Q=np.eye(n))

    rank = int(np.count_nonzero(s > rank_tol * sigma_max))
    return NullBasis(Q=np.ascontiguousarray(Vh[rank:].T))


def smallest_positive_singular_value(
    M: npt.ArrayLike, rank_tol: float = DEFAULT_RANK_TOL
) -> float | None:
    """Smallest singular value above the numerical-rank threshold.

    Returns ``min{sigma_i : sigma_i > rank_tol * sigma_max}``, or ``None``
    when the matrix is numerically zero (every singular value at or below the
    threshold, measured against ``max(1, ||M||_F)`` for near-zero matrices).
    """
    if rank_tol <= 0:
        raise ValueError("rank_tol must be positive")
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    fro = float(np.linalg.norm(M))
    s = _svd(M, full_matrices=False)[1]
    sigma_max = float(s[0]) if s.size else 0.0
    if sigma_max <= rank_tol * relative_scale(fro):
        return None
    positive = s[s > rank_tol * sigma_max]
    return float(positive[-1])


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array."""
    return np.sqrt(np.sum(X * X, axis=1))


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
