"""Dense linear-algebra kernels: the numerical-rank rule, the factored tight
rows, null-space bases, positive singular values, row normalization.

All factorizations are SVD-based.  At the target sizes (a few thousand rows
at most) the reliability of a full SVD outweighs its cost, and the quality of
the orthonormal null-space basis gates the validity of the subspace/cone
stitching bound downstream.  ``TightBlock`` is the one factorization of a
matrix: of A for the partition LP, and of the tight rows once per report.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import numpy.typing as npt

from .core import ZERO_NORM_FLOOR, HoffboundError, ScaleOutOfRange, euclidean_norm, row_norms

__all__ = [
    "DegenerateRow",
    "NumericalFailure",
    "TightBlock",
    "numerical_rank",
    "orthonormal_null_basis",
    "row_normalize",
    "smallest_positive_singular_value",
]

_EPS = float(np.finfo(float).eps)


class NumericalFailure(HoffboundError):
    """A dense factorization failed to converge or produced invalid output."""


class DegenerateRow(HoffboundError):
    """A row expected to be nonzero has (numerically) zero norm."""


def _svd(M: np.ndarray, full_matrices: bool = False, compute_uv: bool = True):
    """``np.linalg.svd`` with its ``LinAlgError`` raised as ``NumericalFailure``."""
    try:
        return np.linalg.svd(M, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(str(exc)) from exc  # "SVD did not converge"


def numerical_rank(s: np.ndarray, dim: int) -> int:
    """Numerical rank from the descending singular values ``s`` of a matrix
    whose larger side is ``dim``: the count of ``s_i > dim * eps * s_1``, 0
    when ``s_1 <= ZERO_NORM_FLOOR``.

    ``dim * eps * s_1`` is the size of the SVD's backward error (Golub &
    Van Loan, *Matrix Computations*, sec. 5.4; the default of
    ``numpy.linalg.matrix_rank``): a value above it is a direction of the
    input, and a value cut is rounding noise.  The rule is relative, so
    ``c M`` has the rank of ``M``.  This is the only place the package
    decides a numerical rank.
    """
    if not s.size or s[0] <= ZERO_NORM_FLOOR:
        return 0
    return int(np.count_nonzero(s > dim * _EPS * s[0]))


class TightBlock:
    """The tight rows ``A_B``, factored by one SVD for every use downstream.
    The partition LP factors all of A the same way, as ``TightBlock(A)``.

    ``W = 2^-e A_B`` is A_B scaled by a power of two (exactly, with the same
    row and null spaces) so that its largest row norm lies in [1/2, 1).
    From ``W = U S Vt`` at the rank r of ``numerical_rank``: the row-space
    basis ``V``, ``WV = W V = U S``, ``sigma = s_r`` (inf at r = 0),
    ``rank_gap = s_r / s_{r+1}`` (inf at full rank or r = 0) and, on first
    use, the null basis ``Q``; Vt is complete (taken with full_matrices
    when there are fewer rows than columns).  ``fro`` is ``||W||_F``.  A
    block with no rows takes no SVD (rank 0, ``sigma`` and ``rank_gap``
    inf, ``fro`` 0, ``Q = I``).  ``V``, ``WV`` and ``Q`` are C-contiguous:
    in another layout, products with them would round differently.
    Raises ``ScaleOutOfRange`` when a nonzero row's norm underflows to 0
    (entries below ~1e-162): that row would be scaled and ranked as zero.
    Raises ``NumericalFailure`` when the SVD does not converge.
    """

    def __init__(self, A_B: np.ndarray) -> None:
        self.A_B = A_B
        if not A_B.shape[0]:  # no rows: rank 0 and Q = I, with no SVD
            self.exp, self.W, self.rank, self.fro = 0, A_B, 0, 0.0
            self.V, self.WV = np.zeros((A_B.shape[1], 0)), np.zeros((0, 0))
            self.sigma = self.rank_gap = np.inf
            return
        norms = row_norms(A_B)
        if not norms.all() and np.any(A_B[norms == 0.0]):
            raise ScaleOutOfRange(
                "a nonzero row's norm underflows to 0, so the rank and the "
                "margins of its block cannot be formed; rescale the row"
            )
        self.exp = int(np.frexp(norms.max())[1])
        self.W = W = np.ldexp(A_B, -self.exp)
        U, S, self._Vt = _svd(W, full_matrices=W.shape[0] < W.shape[1])
        self.rank = r = numerical_rank(S, max(W.shape))
        self.V = np.ascontiguousarray(self._Vt[:r].T)
        self.WV = U[:, :r] * S[:r]
        self.sigma = float(S[r - 1]) if r else np.inf
        # a float division: inf, with no warning, when s_{r+1} is subnormal
        self.rank_gap = self.sigma / float(S[r]) if 0 < r < S.size and S[r] > 0.0 else np.inf
        self.fro = euclidean_norm(W)

    @cached_property
    def Q(self) -> np.ndarray:
        """Orthonormal basis ``(n, n - r)`` of ``null(A_B)``, the identity at
        r = 0; ``NumericalFailure`` if ``Q'Q`` is off I by more than 1e-10."""
        if self.rank == 0:
            return np.eye(self.W.shape[1])
        Q = np.ascontiguousarray(self._Vt[self.rank:].T)
        gram_err = float(np.abs(Q.T @ Q - np.eye(Q.shape[1])).max(initial=0.0))
        if gram_err > 1e-10:
            raise NumericalFailure(
                f"null basis lost orthonormality (gram error {gram_err:.3e})"
            )
        return Q

    def weighted_sigma(self, y: np.ndarray) -> float:
        """``sigma = 2^e s_r(diag(y) W V)`` at the block's rank r (0 at r = 0),
        deciding no rank of its own: ``||diag(y) A_B w|| >= sigma ||w||`` for
        w in range(V), the inequality the tight-block bound 2 / sigma rests
        on.  ``NumericalFailure`` if the SVD does not converge (a NaN in y)."""
        s = _svd(y[:, None] * self.WV, full_matrices=False)[1]
        return float(np.ldexp(s[-1], self.exp)) if self.rank else 0.0

    @cached_property
    def slice_factors(self) -> tuple[np.ndarray, float]:
        """Pseudo-inverse of ``E = [V'W'; 1']`` and its smallest singular
        value ``sigma_E``, 0 when E has more rows than columns;
        ``NumericalFailure`` if the SVD of E does not converge."""
        E = np.concatenate([self.WV.T, np.ones((1, self.W.shape[0]))])
        P, S_E, Qt = _svd(E, full_matrices=False)
        sigma_E = float(S_E[-1]) if E.shape[0] <= E.shape[1] else 0.0
        E_pinv = (Qt.T / S_E) @ P.T if sigma_E > 0.0 else np.zeros(E.shape[::-1])
        return E_pinv, sigma_E

    def project_to_slice(self, y: np.ndarray) -> np.ndarray:
        """``y - E^+ (E y - e)``, e the last unit vector, rescaled to sum 1:
        y put on the slice ``{A_B'y = 0, 1'y = 1}``."""
        E_pinv = self.slice_factors[0]
        y = y - E_pinv @ np.concatenate([y @ self.WV, [y.sum() - 1.0]])
        return y / y.sum()


def orthonormal_null_basis(A_B: npt.ArrayLike) -> np.ndarray:
    """Orthonormal basis ``Q`` of the numerical null space ``{x : A_B x = 0}``,
    ``TightBlock(A_B).Q``: the identity for no rows or rank 0.  Raises
    ``NumericalFailure`` like ``TightBlock`` and ``TightBlock.Q``."""
    A_B = np.asarray(A_B, dtype=float)
    if A_B.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return TightBlock(A_B).Q


def smallest_positive_singular_value(M: npt.ArrayLike) -> float | None:
    """Smallest singular value that ``numerical_rank`` counts.

    Returns ``s[r - 1]`` at numerical rank ``r``, the ``sigma`` of
    ``TightBlock(M)`` scaled back by its power of two, or ``None`` when the
    matrix is numerically zero.  Raises ``NumericalFailure`` like
    ``TightBlock``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("expected a nonempty 2-d matrix")
    block = TightBlock(M)
    return float(np.ldexp(block.sigma, block.exp)) if block.rank else None


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
    if (norms <= ZERO_NORM_FLOOR).any():
        bad = int(np.argmin(norms))
        raise DegenerateRow(f"row {bad} has zero norm and cannot be normalized")
    return A_N * (1.0 / norms)[:, None]
