"""Problem container, norm conventions, and the small shared numeric kernels.

The cone under study is ``P = {x : A x <= 0}`` for a dense real matrix ``A``.
Throughout the package the row space (image of ``A``) carries the sup norm and
the column space (domain) carries the Euclidean norm; this is the only norm
pair supported.  The distance-to-violation identity relies on the sup norm's
monotonicity: ``|y| <= |z|`` entrywise implies ``||y|| <= ||z||``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.typing as npt

__all__ = [
    "EPS",
    "HoffboundError",
    "ProblemInstance",
    "ScaleOutOfRange",
    "ZERO_NORM_FLOOR",
    "euclidean_norm",
    "gamma",
    "row_norms",
]

# Smallest Frobenius norm whose square is a normal double.  Norms are formed
# from unscaled sums of squares, so below it they lose digits to subnormal
# rounding, and near 1e-162 they underflow to 0.
_MIN_SCALE = float(np.sqrt(np.finfo(float).tiny))

# A norm (of a vector, a row, or a matrix's largest singular value) at or
# below this is treated as zero.
ZERO_NORM_FLOOR = 1e-300

# Machine epsilon of a double, 2^-52: twice the unit roundoff.
EPS = float(np.finfo(float).eps)


def gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``, ``u = EPS / 2``: the relative
    error that k roundings can compound to (*Accuracy and Stability of
    Numerical Algorithms*, §3.1).  Every rounding term is formed from it."""
    return k * EPS / (2.0 - k * EPS)


class HoffboundError(Exception):
    """Base class for all errors raised by this package."""


class ScaleOutOfRange(HoffboundError, ValueError):
    """The matrix is too large or too small for its norms to be formed.

    Norms are square roots of unscaled sums of squares: above ~1e154 the sum
    overflows to inf, and below ~1e-154 it loses digits and then underflows
    to 0.  Either way every scale-relative test downstream is void, so such
    a matrix is rejected rather than certified.
    """


def euclidean_norm(v: npt.ArrayLike) -> float:
    """Euclidean norm ``sqrt(v . v)`` of the entries of ``v``, bit for bit
    ``np.linalg.norm(v)``: the same one dot product over the entries in
    memory order, without that function's dispatch.  ``np.vdot`` forms it,
    which unlike ``dot`` raises no warning when the sum overflows.

    The squares are summed unscaled, so the result overflows to inf when an
    entry exceeds ~1e154 (``[1e200, 1e200]`` gives inf) and underflows to 0
    when every entry is below ~1e-162.
    """
    v = np.asarray(v, dtype=float).ravel(order="K")
    return math.sqrt(np.vdot(v, v))


def row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d array."""
    return np.sqrt((X * X).sum(axis=1))


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable dense matrix ``A`` defining the cone ``P = {x : A x <= 0}``.

    Attributes
    ----------
    A : ndarray, shape (m, n)
        Dense row-major matrix of finite reals, at least 1x1; read-only
        after construction.

    Raises
    ------
    ScaleOutOfRange
        If ``||A||_F`` overflows, or if ``A`` is nonzero and ``||A||_F`` lies
        below ~1.5e-154, where its square is no longer a normal double.
    """

    A: np.ndarray

    def __post_init__(self) -> None:
        if self.A.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got ndim={self.A.ndim}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"matrix must be at least 1x1, got {self.m}x{self.n}")
        if not np.isfinite(self.A).all():
            raise ValueError("matrix entries must be finite")
        with np.errstate(over="ignore"):  # an overflow raises below
            scale = self.frobenius_scale
        if not np.isfinite(scale):
            raise ScaleOutOfRange(
                "the Frobenius norm of the matrix overflows; rescale it by a "
                "power of two (H0(c A) = H0(A) / c)"
            )
        if scale < _MIN_SCALE and np.any(self.A):
            raise ScaleOutOfRange(
                f"the Frobenius norm of the matrix ({scale:.3e}) is too small "
                "to be formed accurately; rescale it by a power of two "
                "(H0(c A) = H0(A) / c)"
            )

    @classmethod
    def from_matrix(cls, A: npt.ArrayLike) -> "ProblemInstance":
        """Build an instance from any 2-d array-like of finite reals."""
        arr = np.array(A, dtype=float, order="C", copy=True)
        arr.flags.writeable = False
        return cls(A=arr)

    @property
    def m(self) -> int:
        """Row count."""
        return self.A.shape[0]

    @property
    def n(self) -> int:
        """Column count."""
        return self.A.shape[1]

    @cached_property
    def frobenius_scale(self) -> float:
        """``||A||_F``, computed once."""
        return float(np.linalg.norm(self.A))

    @cached_property
    def unit_rows(self) -> np.ndarray:
        """The nonzero rows of ``A`` scaled to unit Euclidean norm, computed
        once and read-only.  Rows of norm at or below ``ZERO_NORM_FLOOR`` are
        dropped, so the result may have no rows."""
        norms = row_norms(self.A)
        keep = norms > ZERO_NORM_FLOOR
        rows = self.A[keep] / norms[keep, None]
        rows.flags.writeable = False
        return rows

    @cached_property
    def unit_rows_t(self) -> np.ndarray:
        """``unit_rows.T`` laid out C-contiguous, computed once and
        read-only: the operand of the oracle's NNLS fits, which scipy's
        ``nnls`` would otherwise copy into this layout on every call."""
        cols = np.ascontiguousarray(self.unit_rows.T)
        cols.flags.writeable = False
        return cols
