"""Norm primitives and problem-instance container."""

import warnings

import numpy as np
import pytest

from hoffbound import (
    HoffboundError,
    ProblemInstance,
    ScaleOutOfRange,
    audit_report,
    bound_h0,
)
from hoffbound.core import euclidean_norm

from helpers import C4, gaussian_matrix


def test_euclidean_norm():
    assert euclidean_norm(np.array([3.0, 4.0])) == 5.0
    assert euclidean_norm(np.array([])) == 0.0


def test_euclidean_norm_is_bitwise_np_linalg_norm():
    rng = np.random.default_rng(11)
    for n in range(71):
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
        assert euclidean_norm(v) == np.linalg.norm(v), n
        assert euclidean_norm(v[::2]) == np.linalg.norm(v[::2]), n
        assert type(euclidean_norm(v)) is float
    for shape in [(7, 5), (1, 9), (33, 2)]:
        M = rng.standard_normal(shape)
        for X in (M, np.asfortranarray(M), M.T):
            assert euclidean_norm(X) == np.linalg.norm(X), shape


def test_euclidean_norm_overflows_and_underflows_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert euclidean_norm([1e200, 1e200]) == np.inf
        assert euclidean_norm([1e-163, -1e-163, 1e-170]) == 0.0
        assert euclidean_norm([1e-150, 0.0]) == 1e-150


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
    # only an exact zero matrix is exempt from the scale floor
    assert ProblemInstance.from_matrix(np.zeros((2, 2))).frobenius_scale == 0.0
    # a tiny nonzero entry is not zero: H0([[1e-301]]) is 1e301, and the
    # norm is too small to certify it
    with pytest.raises(ScaleOutOfRange, match="too small"):
        ProblemInstance.from_matrix(np.full((1, 1), 1e-301))


def test_scales():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    inst = ProblemInstance.from_matrix(A)
    assert inst.frobenius_scale == np.linalg.norm(A)
    zero = ProblemInstance.from_matrix(np.zeros((2, 2)))
    assert zero.frobenius_scale == 0.0


def test_unit_rows_drop_zero_rows_and_are_computed_once():
    inst = ProblemInstance.from_matrix(np.array([[3.0, 4.0], [0.0, 0.0], [0.0, -2.0]]))
    assert np.array_equal(inst.unit_rows, [[0.6, 0.8], [0.0, -1.0]])
    assert inst.unit_rows is inst.unit_rows
    with pytest.raises(ValueError):
        inst.unit_rows[0, 0] = 1.0
    assert ProblemInstance.from_matrix(np.zeros((2, 3))).unit_rows.shape == (0, 3)


@pytest.mark.parametrize("A", [
    [[3.0, 4.0], [0.0, 0.0], [0.0, -2.0]],
    gaussian_matrix(4),
    np.zeros((2, 3)),
], ids=["zero-row", "gaussian", "zero"])
def test_transposed_unit_rows_are_contiguous_read_only_and_computed_once(A):
    inst = ProblemInstance.from_matrix(A)
    cols = inst.unit_rows_t
    assert cols is inst.unit_rows_t
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, inst.unit_rows.T)
    with pytest.raises(ValueError):
        cols[...] = 1.0


@pytest.mark.parametrize("c", [1e155, 1e160, 1e300])
def test_matrix_whose_norm_overflows_is_rejected(c):
    # ||A||_F = inf once made every row tight and the audit accept it
    with pytest.raises(ScaleOutOfRange, match="overflows"):
        ProblemInstance.from_matrix(c * C4)
    assert issubclass(ScaleOutOfRange, HoffboundError)


@pytest.mark.parametrize("c", [1e-156, 1e-170])
def test_matrix_whose_norm_underflows_is_rejected(c):
    # at 1e-170 ||A||_F = 0 once reported the zero matrix with total 0
    with pytest.raises(ScaleOutOfRange, match="too small"):
        ProblemInstance.from_matrix(c * C4)


@pytest.mark.parametrize("c", [1e150, 1e-150])
def test_matrix_near_the_scale_limits_certifies(c):
    ref = bound_h0(ProblemInstance.from_matrix(C4))
    inst = ProblemInstance.from_matrix(c * C4)
    rep = bound_h0(inst)
    assert audit_report(inst, rep).ok
    assert (rep.partition.B, rep.partition.N) == (ref.partition.B, ref.partition.N)
    assert rep.total * c == pytest.approx(ref.total, rel=1e-12)


def test_matrix_just_above_the_scale_floor_gets_no_infinite_bound():
    # at 1e-154 the case-N witness norm overflows on 21 of these seeds; 19
    # once returned a total of inf that the audit accepted
    for seed in range(60):
        inst = ProblemInstance.from_matrix(1e-154 * gaussian_matrix(seed))
        try:
            rep = bound_h0(inst)
        except HoffboundError:
            continue
        assert np.isfinite(rep.total), seed
        assert audit_report(inst, rep).ok, seed


def test_slack_witness_is_unit_where_its_norm_overflows():
    # ||x|| overflowed before x was normalized, so x_hat came out as zeros
    inst = ProblemInstance.from_matrix(2e-154 * gaussian_matrix(38))
    rep = bound_h0(inst)
    assert rep.branch == "case_N"
    assert euclidean_norm(rep.partition.x_hat) == pytest.approx(1.0, rel=1e-12)
    assert audit_report(inst, rep).ok


@pytest.mark.parametrize("c", np.geomspace(1.5e-154, 1e-150, 12))
def test_small_scales_certify_or_raise_without_warnings(c):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for seed in range(60):
            inst = ProblemInstance.from_matrix(c * gaussian_matrix(seed))
            try:
                rep = bound_h0(inst)
            except HoffboundError:
                continue
            assert audit_report(inst, rep).ok, seed
