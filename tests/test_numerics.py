"""Null bases, positive singular values, row scaling."""

import numpy as np
import pytest

import hoffbound.numerics
from hoffbound import DegenerateRow, HoffboundError, NumericalFailure
from hoffbound.numerics import (
    TightBlock,
    orthonormal_null_basis,
    row_normalize,
    smallest_positive_singular_value,
)

INV_SQRT2 = 0.7071067811865476


def test_null_basis_of_full_rank_matrix_is_empty():
    Q = orthonormal_null_basis(np.eye(2))
    assert Q.shape[1] == 0
    assert Q.shape == (2, 0)


def test_null_basis_of_rank_one_row():
    Q = orthonormal_null_basis(np.array([[1.0, -1.0]]))
    assert Q.shape[1] == 1
    # direction is (1,1)/sqrt(2) up to sign
    assert abs(abs(Q.ravel() @ np.array([INV_SQRT2, INV_SQRT2])) - 1.0) < 1e-12


def test_null_basis_of_zero_matrix_is_identity():
    Q = orthonormal_null_basis(np.zeros((2, 3)))
    assert Q.shape[1] == 3
    assert np.allclose(Q, np.eye(3))


def test_null_basis_random_matrix_properties():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 7))
    Q = orthonormal_null_basis(A)
    assert Q.shape[1] == 7 - np.linalg.matrix_rank(A)
    assert np.max(np.abs(A @ Q)) < 1e-10 * np.linalg.norm(A)
    assert np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1]))) < 1e-12


def test_null_basis_rank_tolerance_is_relative():
    # below 1e-13 x sigma_max: rounding noise, a null direction
    assert orthonormal_null_basis(np.diag([1.0, 1e-17])).shape[1] == 1
    # above 1e-9 x sigma_max: counted in the rank
    assert orthonormal_null_basis(np.diag([1.0, 1e-8])).shape[1] == 0
    # in between: neither, so the rank cannot be decided
    with pytest.raises(NumericalFailure, match="ambiguous band"):
        orthonormal_null_basis(np.diag([1.0, 1e-12]))


def test_null_basis_rejects_non_orthonormal_columns(monkeypatch):
    def skewed_svd(M, full_matrices):
        return np.eye(1), np.ones(1), np.array([[1.0, 0.0], [1.0, 1.0]])

    monkeypatch.setattr(hoffbound.numerics, "_svd", skewed_svd)
    with pytest.raises(NumericalFailure, match="orthonormality"):
        orthonormal_null_basis(np.array([[1.0, 0.0]]))


def test_sigma_plus_of_zero_matrix_is_none():
    assert smallest_positive_singular_value(np.zeros((2, 2))) is None


def test_sigma_plus_known_values():
    got = smallest_positive_singular_value(np.array([[0.5, -0.5], [0.0, 0.0]]))
    assert got == pytest.approx(INV_SQRT2, rel=1e-12)
    assert smallest_positive_singular_value(np.eye(3)) == pytest.approx(1.0, rel=1e-12)
    assert smallest_positive_singular_value(np.ones((2, 2))) == pytest.approx(2.0, rel=1e-12)


def test_sigma_plus_skips_singular_values_below_relative_threshold():
    got = smallest_positive_singular_value(np.diag([1.0, 1e-17]))
    assert got == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(NumericalFailure, match="ambiguous band"):
        smallest_positive_singular_value(np.diag([1.0, 1e-12]))
    # a subnormal singular value is cut too; its rank gap overflows to inf
    # (once with a RuntimeWarning, which pytest turns into an error)
    block = TightBlock(np.array([[1.0, 1e-310], [-1.0, 0.0]]))
    assert block.rank == 1 and block.rank_gap == np.inf


def test_weighted_sigma_is_the_rth_singular_value_of_the_block():
    # weights spanning 1e8 on rows of norms 3 and 3e-6: s_2 of A_B' diag(y)
    # is 2e-14 x s_1, so a rank rule run on the weighted rows cuts it
    A_B = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3e-6], [0.0, -3e-6]])
    y = np.array([0.5 - 1e-8, 0.5 - 1e-8, 1e-8, 1e-8])
    block = TightBlock(A_B)
    assert block.rank == 2
    s_2 = 3e-6 * np.hypot(y[2], y[3])
    assert block.weighted_sigma(y) == pytest.approx(s_2, rel=1e-12)
    cut = smallest_positive_singular_value(A_B.T * y[None, :])
    assert cut == pytest.approx(3.0 * np.hypot(y[0], y[1]), rel=1e-12)
    assert TightBlock(np.zeros((2, 2))).weighted_sigma(np.full(2, 0.5)) == 0.0


def test_row_normalize_units_and_inverse_norms():
    rs = row_normalize(np.array([[3.0, 4.0], [0.0, 2.0]]))
    assert np.allclose(rs, [[0.6, 0.8], [0.0, 1.0]])
    assert np.allclose(np.linalg.norm(rs, axis=1), 1.0)


def test_row_normalize_rejects_zero_row():
    with pytest.raises(DegenerateRow):
        row_normalize(np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_error_hierarchy():
    assert issubclass(NumericalFailure, HoffboundError)
    assert issubclass(DegenerateRow, HoffboundError)


@pytest.mark.parametrize("fn, M", [
    (orthonormal_null_basis, np.ones(3)),
    (smallest_positive_singular_value, np.ones(3)),
    (smallest_positive_singular_value, np.zeros((0, 3))),
    (row_normalize, np.ones(3)),
    (row_normalize, np.zeros((0, 3))),
], ids=["null_basis-1d", "sigma-1d", "sigma-empty", "row_normalize-1d",
        "row_normalize-no-rows"])
def test_kernels_reject_a_malformed_matrix(fn, M):
    with pytest.raises(ValueError, match="expected a"):
        fn(M)
