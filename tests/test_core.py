"""Norm primitives and problem-instance container."""

import numpy as np
import pytest

from hoffbound import (
    ProblemInstance,
    euclidean_norm,
    pos_part_inf_norm,
)


def test_pos_part_inf_norm_picks_largest_positive_entry():
    assert pos_part_inf_norm(np.array([-1.0, 2.0, -3.0])) == 2.0
    assert pos_part_inf_norm(np.array([5.0])) == 5.0


def test_pos_part_inf_norm_zero_without_violations():
    assert pos_part_inf_norm(np.array([-4.0, 0.0, -0.5])) == 0.0
    assert pos_part_inf_norm(np.array([])) == 0.0


def test_euclidean_norm():
    assert euclidean_norm(np.array([3.0, 4.0])) == 5.0
    assert euclidean_norm(np.array([])) == 0.0


def test_from_matrix_requires_2d():
    with pytest.raises(ValueError):
        ProblemInstance.from_matrix(np.array([3.0, 4.0]))


def test_from_matrix_requires_nonempty():
    with pytest.raises(ValueError):
        ProblemInstance.from_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        ProblemInstance.from_matrix(np.zeros((3, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_matrix_requires_finite_entries(bad):
    with pytest.raises(ValueError):
        ProblemInstance.from_matrix(np.array([[bad, 1.0]]))


def test_matrix_is_copied_and_read_only():
    src = np.array([[1.0, 2.0], [3.0, 4.0]])
    inst = ProblemInstance.from_matrix(src)
    src[0, 0] = 99.0
    assert inst.A[0, 0] == 1.0
    with pytest.raises(ValueError):
        inst.A[0, 0] = 7.0


def test_shape_properties():
    inst = ProblemInstance.from_matrix(np.zeros((3, 2)))
    assert (inst.m, inst.n) == (3, 2)


def test_zero_detection():
    assert ProblemInstance.from_matrix(np.zeros((2, 2))).is_zero
    # entries below the representable floor count as zero
    assert ProblemInstance.from_matrix(np.full((1, 1), 1e-301)).is_zero
    assert not ProblemInstance.from_matrix(-np.eye(3)).is_zero


def test_scales():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    inst = ProblemInstance.from_matrix(A)
    assert inst.frobenius_scale == np.linalg.norm(A)
    zero = ProblemInstance.from_matrix(np.zeros((2, 2)))
    assert zero.frobenius_scale == 0.0
