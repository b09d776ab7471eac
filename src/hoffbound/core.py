"""Problem container, norm conventions, and the small shared numeric kernels.

The cone under study is ``P = {x : A x <= 0}`` for a dense real matrix ``A``.
Throughout the package the row space (image of ``A``) carries the sup norm and
the column space (domain) carries the Euclidean norm; this is the only norm
pair supported.  The distance-to-violation identity relies on the sup norm's
monotonicity: ``|y| <= |z|`` entrywise implies ``||y|| <= ||z||``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.typing as npt

__all__ = [
    "HoffboundError",
    "ProblemInstance",
    "ZERO_MATRIX_FLOOR",
    "euclidean_norm",
    "pos_part_inf_norm",
]

# Frobenius norms at or below this are treated as the zero matrix, for which
# the homogeneous Hoffman constant is 0 by convention.
ZERO_MATRIX_FLOOR = 1e-300


class HoffboundError(Exception):
    """Base class for all errors raised by this package."""


def pos_part_inf_norm(v: npt.ArrayLike) -> float:
    """Sup norm of the componentwise positive part, ``max(0, max_i v_i)``.

    This equals the sup-norm distance from ``v`` to the nonpositive orthant,
    which is how constraint violation of ``A x <= 0`` is measured.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return 0.0
    return float(max(0.0, v.max()))


def euclidean_norm(v: npt.ArrayLike) -> float:
    """Euclidean norm with overflow-safe scaling (delegates to BLAS nrm2)."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return 0.0
    return float(np.linalg.norm(v))


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable dense matrix ``A`` defining the cone ``P = {x : A x <= 0}``.

    Attributes
    ----------
    A : ndarray, shape (m, n)
        Dense row-major matrix of finite reals, at least 1x1; read-only
        after construction.
    """

    A: np.ndarray

    def __post_init__(self) -> None:
        if self.A.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got ndim={self.A.ndim}")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"matrix must be at least 1x1, got {self.m}x{self.n}")
        if not np.isfinite(self.A).all():
            raise ValueError("matrix entries must be finite")

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

    @property
    def is_zero(self) -> bool:
        """True when ``A`` is the zero matrix (cone is all of R^n)."""
        return self.frobenius_scale <= ZERO_MATRIX_FLOOR

    def residual_violation(self, u: npt.ArrayLike) -> float:
        """Sup-norm distance from ``A u`` to the nonpositive orthant."""
        return pos_part_inf_norm(self.A @ np.asarray(u, dtype=float))
