"""Null bases, positive singular values, the factored tight rows."""

import numpy as np
import pytest

import hoffbound.numerics
from hoffbound import (
    HoffboundError,
    NumericalFailure,
    audit_report,
    bound_h0,
)
from hoffbound.numerics import (
    TightBlock,
    orthonormal_null_basis,
    smallest_positive_singular_value,
)
from hoffbound.partition import weight_margin
from hoffbound.solvers.programs import solve_analytic_center

from helpers import instance

INV_SQRT2 = 0.7071067811865476
EPS = np.finfo(float).eps


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
    # the rank counts s_i > max(m, n) eps s_1, at any scale: c diag(1, x),
    # padded with zeros, has a null direction at x = max(m, n) eps and none
    # one float above it
    for shape in ((2, 2), (3, 2), (2, 3)):
        edge = max(shape) * EPS
        for c in (2.0**-400, 1.0, 2.0**400):
            for x, null_dim in ((edge, shape[1] - 1), (np.nextafter(edge, 1.0), shape[1] - 2)):
                A = np.zeros(shape)
                A[0, 0], A[1, 1] = c, c * x
                assert orthonormal_null_basis(A).shape[1] == null_dim, (shape, c, x)


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
    assert smallest_positive_singular_value(np.diag([1.0, 2.0 * EPS])) == 1.0
    # above 2 eps, however small, the value is counted
    for x in (np.nextafter(2.0 * EPS, 1.0), 1e-12):
        assert smallest_positive_singular_value(np.diag([1.0, x])) == x
    # a subnormal singular value is cut too; its rank gap overflows to inf
    # (once with a RuntimeWarning, which pytest turns into an error)
    block = TightBlock(np.array([[1.0, 1e-310], [-1.0, 0.0]]))
    assert block.rank == 1 and block.rank_gap == np.inf


def test_weighted_sigma_is_the_rth_singular_value_of_the_block():
    # weights spanning 1e8 on rows of norms 3 and 3e-6: s_2 of A_B' diag(y)
    # is 2e-14 x s_1, so a rank rule run on the weighted rows with a cut
    # above that reads sigma = s_1; sigma is taken at the block's rank
    A_B = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3e-6], [0.0, -3e-6]])
    y = np.array([0.5 - 1e-8, 0.5 - 1e-8, 1e-8, 1e-8])
    block = TightBlock(A_B)
    assert block.rank == 2
    s_2 = 3e-6 * np.hypot(y[2], y[3])
    assert block.weighted_bounds(y)[0] == pytest.approx(s_2, rel=1e-12, abs=0.0)
    s = np.linalg.svd(A_B.T * y[None, :], compute_uv=False)
    assert s[1] < 1e-13 * s[0]
    assert s[0] == pytest.approx(3.0 * np.hypot(y[0], y[1]), rel=1e-12)
    wb = TightBlock(np.zeros((2, 2))).weighted_bounds(np.full(2, 0.5))
    assert (wb.sigma, wb.b.shape, wb.box) == (0.0, (0,), 0.0)
    assert (wb.R.shape, wb.rho.shape, wb.delta) == ((0, 0), (0,), 0.0)


@pytest.mark.parametrize("A", [
    np.array([[1.0, 2.0], [-1.0, -2.0], [2.0, -1.0], [-2.0, 1.0]]),
    np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3e-6], [0.0, -3e-6]]),
    np.vstack([np.eye(3), -np.ones((1, 3))]),
    np.vstack([np.eye(4), -np.ones((1, 4)), [[1.0, -1.0, 2.0, 0.5]], [[-1.0, 1.0, -2.0, -0.5]]]),
], ids=["square", "scaled_pairs", "simplex", "simplex_and_pair"])
def test_weighted_bounds_match_a_loop_over_directions(A):
    # the box built one direction and one sign at a time, as its
    # derivation reads, at the analytic center: lam >= 0 exactly, and b,
    # rho and delta agree with the array form to rounding; R is the SVD's
    block = TightBlock(A)
    y = solve_analytic_center(block).y
    sigma, b, box, R, rho_k, delta_k = block.weighted_bounds(y)
    M, r = block.WV, block.rank
    P, S, Rt = np.linalg.svd(y[:, None] * M, full_matrices=False)
    b_loop, rho = np.zeros(r), np.zeros(r)
    for k in range(r):
        for s in (1.0, -1.0):
            t = max(0.0, max(-s * P[:, k]) / S[k])
            lam = y * (s * P[:, k] / S[k] + t)
            assert lam.min() >= 0.0
            b_loop[k] = max(b_loop[k], lam.sum())
            rho[k] = max(rho[k], np.linalg.norm(M.T @ lam - s * Rt[k]))
    delta = np.linalg.norm(Rt @ Rt.T - np.eye(r))
    assert sigma == np.ldexp(S[-1], block.exp)
    assert np.array_equal(R, Rt.T)
    assert rho_k == pytest.approx(rho, rel=1e-12, abs=1e-15)
    assert delta_k == pytest.approx(delta, rel=1e-12, abs=1e-15)
    assert b == pytest.approx(np.ldexp(b_loop, -block.exp), rel=1e-13, abs=0.0)
    assert np.all(b_loop <= 2.0 / S * (1.0 + 1e-13))
    expect = np.ldexp(np.linalg.norm(b_loop), -block.exp) / (1.0 - delta - np.linalg.norm(rho))
    assert 0.0 < box == pytest.approx(expect, rel=1e-13, abs=0.0)


def test_weighted_bounds_claim_no_box_far_off_the_slice():
    # at these weights the residual t M'y of each lam exceeds 1, so the
    # fold 1 - delta - ||rho|| is negative and no box is claimed
    block = TightBlock(np.array([[1.0, 2.0], [-1.0, -2.0], [2.0, -1.0], [-2.0, 1.0]]))
    sigma, b, box, *_ = block.weighted_bounds(np.array([0.7, 0.1, 0.1, 0.1]))
    assert sigma > 0.0 and b.shape == (2,) and box == np.inf


def test_error_hierarchy():
    assert issubclass(NumericalFailure, HoffboundError)


@pytest.mark.parametrize("fn, M", [
    (orthonormal_null_basis, np.ones(3)),
    (smallest_positive_singular_value, np.ones(3)),
    (smallest_positive_singular_value, np.zeros((0, 3))),
], ids=["null_basis-1d", "sigma-1d", "sigma-empty"])
def test_kernels_reject_a_malformed_matrix(fn, M):
    with pytest.raises(ValueError, match="expected a"):
        fn(M)


_RNG = np.random.default_rng(5)


@pytest.mark.parametrize("A_B", [
    _RNG.standard_normal((9, 4)),
    _RNG.standard_normal((3, 7)),
    _RNG.standard_normal((5, 5)),
    _RNG.standard_normal((8, 2)) @ _RNG.standard_normal((2, 6)),
    np.zeros((0, 4)),
], ids=["tall", "wide", "square", "rank-deficient", "empty"])
def test_tight_block_factors_are_c_contiguous(A_B):
    # np.concatenate in the center and the IPM inherits these layouts, and a
    # product in another layout takes another BLAS loop, which rounds
    # differently
    block = TightBlock(A_B)
    m, n = A_B.shape
    r = block.rank
    assert r == np.linalg.matrix_rank(A_B)
    for name, shape in [("V", (n, r)), ("WV", (m, r)), ("Q", (n, n - r))]:
        factor = getattr(block, name)
        assert factor.shape == shape, name
        assert factor.flags["C_CONTIGUOUS"], name


def test_an_empty_block_has_rank_zero_without_an_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("an empty block needs no SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    block = TightBlock(np.zeros((0, 3)))
    assert block.rank == 0 and block.exp == 0
    assert block.sigma == np.inf and block.rank_gap == np.inf
    assert block.fro == 0.0
    assert block.V.shape == (3, 0) and block.WV.shape == (0, 0)
    assert np.array_equal(block.Q, np.eye(3))


# its tight rows are the first two: the opposite pair
_MIXED = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])


def _svd_failing_on(monkeypatch, fails):
    """Make ``np.linalg.svd`` raise numpy's ``LinAlgError`` on the inputs
    ``fails(M, kwargs)`` picks, as LAPACK's does when it does not converge."""
    svd = np.linalg.svd

    def failing(M, *args, **kwargs):
        if fails(np.asarray(M), kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)


def _slice_matrix(M, kwargs):
    # E = [V'W'; 1'] of TightBlock.slice_factors, the only input whose last
    # row is all ones here
    return M.shape[0] > 1 and bool((M[-1] == 1.0).all())


def test_a_failed_slice_svd_is_a_numerical_failure(monkeypatch):
    block = TightBlock(_MIXED[:2])
    _svd_failing_on(monkeypatch, _slice_matrix)
    with pytest.raises(NumericalFailure, match="SVD did not converge"):
        weight_margin(block, np.array([0.5, 0.5]))


def test_a_failed_rank_probe_of_the_center_is_a_numerical_failure(monkeypatch):
    block = TightBlock(_MIXED[:2])
    _svd_failing_on(monkeypatch, lambda M, kwargs: kwargs.get("compute_uv") is False)
    with pytest.raises(NumericalFailure, match="SVD did not converge"):
        solve_analytic_center(block)


def test_a_failed_slice_svd_is_recorded_by_the_audit(monkeypatch):
    inst = instance(_MIXED)
    rep = bound_h0(inst)
    assert rep.partition.B == (0, 1) and audit_report(inst, rep).ok
    _svd_failing_on(monkeypatch, _slice_matrix)
    res = audit_report(inst, rep)
    assert not res.ok
    assert "weight margin of y_hat: SVD did not converge" in res.failures


def test_a_failed_slice_svd_raises_a_typed_error_from_bound_h0(monkeypatch):
    _svd_failing_on(monkeypatch, _slice_matrix)
    with pytest.raises(HoffboundError, match="SVD did not converge"):
        bound_h0(instance(_MIXED))
