"""Component bounds and the combined upper-bound report."""

import functools
import json

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hoffbound.cli as cli
from hoffbound import (
    HoffboundError,
    NumericalFailure,
    ScaleOutOfRange,
    audit_report,
    bound_h0,
    lower_bound_monte_carlo,
    report_to_dict,
    save_matrix_csv,
)
from hoffbound.bounds import bound_case_b, bound_case_n, bound_stitch
from hoffbound.numerics import TightBlock
from hoffbound.solvers.programs import OPT_TOL

from helpers import (
    C4,
    count_scaled_copies,
    eps_block,
    gaussian_matrix,
    instance,
    planted_mixed_matrix,
    planted_mixed_split,
    record_svd_inputs,
    report_schema,
)

SQRT5 = 2.23606797749979
TWO_SQRT2 = 2.8284271247461903
SIX_SQRT2 = 8.485281374238571


# --- slack-block bound ---------------------------------------------------

def test_case_n_identity_block():
    res = bound_case_n(-np.eye(5))
    assert res.value == pytest.approx(SQRT5, rel=1e-9)
    assert res.min_margin >= 1.0 - 1e-9
    assert res.value == pytest.approx(np.linalg.norm(res.x_bar), rel=1e-12)


def test_case_n_witness_margins_on_random_block():
    rng = np.random.default_rng(21)
    A_N = -np.abs(rng.standard_normal((6, 4))) - 0.5
    res = bound_case_n(A_N)
    assert np.min(A_N @ res.x_bar) >= 1.0 - 1e-9
    assert res.value == pytest.approx(np.linalg.norm(res.x_bar), rel=1e-12)


def test_case_n_scale_invariance():
    A_N = -np.abs(np.random.default_rng(22).standard_normal((5, 3))) - 0.25
    a = bound_case_n(A_N)
    b = bound_case_n(50.0 * A_N)
    assert b.value * 50.0 == pytest.approx(a.value, rel=1e-9)


# --- tight-block bound ----------------------------------------------------

def test_case_b_opposing_rows():
    res = bound_case_b(TightBlock(np.array([[1.0], [-1.0]])))
    assert res.value == pytest.approx(TWO_SQRT2, rel=1e-9)
    assert res.sigma == pytest.approx(np.sqrt(0.5), rel=1e-9)
    assert np.allclose(res.y_bar, [0.5, 0.5], atol=1e-9)


def test_case_b_zero_block_contributes_nothing():
    res = bound_case_b(TightBlock(np.array([[0.0], [0.0]])))
    assert res.value == 0.0
    assert res.sigma is None
    assert np.allclose(res.y_bar, 0.5)


def test_case_b_two_orthogonal_opposing_pairs():
    # the center is uniform, so sigma is a quarter of sqrt(10), the singular
    # value of A_B, and the bound is 8 / sqrt(10)
    A_B = np.array([[1.0, 2.0], [-1.0, -2.0], [2.0, -1.0], [-2.0, 1.0]])
    res = bound_case_b(TightBlock(A_B))
    assert np.allclose(res.y_bar, 0.25, rtol=0.0, atol=1e-15)
    assert res.sigma == pytest.approx(np.sqrt(10.0) / 4.0, rel=1e-14)
    assert res.value == pytest.approx(8.0 / np.sqrt(10.0), rel=1e-14)


# --- stitching bound --------------------------------------------------------

def test_stitch_known_instance():
    res = bound_stitch(TightBlock(C4[:2]), C4[2:])
    assert res.value == pytest.approx(3.0, rel=1e-9)
    assert np.allclose(res.w_bar, [0.0, -1.0], atol=1e-12)
    assert np.abs(C4[:2] @ res.w_bar).max() <= 1e-15
    assert res.min_margin >= 1.0 - 1e-9
    assert res.value == pytest.approx(1.0 + 2.0 * np.linalg.norm(res.w_bar), rel=1e-12)


def test_stitch_margins_in_reduced_coordinates():
    rng = np.random.default_rng(33)
    A_B = np.vstack([rng.standard_normal(4), -rng.standard_normal(4)])
    A_B[1] = -A_B[0]
    A_N = -np.abs(rng.standard_normal((3, 4))) - 0.3
    res = bound_stitch(TightBlock(A_B), A_N)
    norms = np.linalg.norm(A_N, axis=1)
    margins = (A_N / norms[:, None]) @ res.w_bar
    assert np.min(margins) >= 1.0 - 1e-9
    assert np.abs(A_B @ res.w_bar).max() <= 1e-14 * np.linalg.norm(res.w_bar)


# --- combined report ----------------------------------------------------------

@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 5), (40, 3)],
                         ids=["1x1", "3x2", "2x5", "40x3"])
def test_zero_matrix_is_a_certified_rank_zero_case_b(shape, tmp_path, capsys):
    # every row of a zero matrix is tight: the least-squares residual is
    # all ones, the weights are uniform, and the rank-0 block bounds by 0
    inst = instance(np.zeros(shape))
    rep = bound_h0(inst)
    assert (rep.branch, rep.total) == ("case_B", 0.0)
    assert rep.partition.B == tuple(range(shape[0])) and rep.partition.N == ()
    assert rep.partition.lp is None
    assert rep.case_b.sigma is None
    assert rep.case_n is None and rep.stitch is None
    assert audit_report(inst, rep).ok
    jsonschema.validate(report_to_dict(rep), report_schema())
    path = tmp_path / "zero.csv"
    save_matrix_csv(path, inst.A)
    assert cli.main(["compute", "--input", str(path), "--samples", "4"]) == cli.EXIT_OK
    assert "branch: case_B" in capsys.readouterr().out
    assert cli.main(["compute", "--input", str(path), "--output", "json"]) == cli.EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(payload, report_schema())
    assert payload["bounds"]["total"] == 0.0


def test_case_n_branch():
    rep = bound_h0(instance(-np.eye(5)))
    assert rep.branch == "case_N"
    assert rep.total == pytest.approx(SQRT5, rel=1e-9)
    assert rep.case_b is None and rep.stitch is None
    assert rep.total == rep.case_n.value


def test_case_b_branch():
    rep = bound_h0(instance(np.array([[1.0], [-1.0]])))
    assert rep.branch == "case_B"
    assert rep.total == pytest.approx(TWO_SQRT2, rel=1e-9)
    assert rep.case_n is None and rep.stitch is None
    assert rep.total == rep.case_b.value


def test_general_branch_component_values():
    rep = bound_h0(instance(C4))
    assert rep.branch == "general"
    assert rep.case_n.value == pytest.approx(1.0, rel=1e-9)
    assert rep.case_b.value == pytest.approx(TWO_SQRT2, rel=1e-9)
    assert rep.stitch.value == pytest.approx(3.0, rel=1e-9)
    assert rep.total == pytest.approx(SIX_SQRT2, rel=1e-9)
    # the combination is literal arithmetic on the stored components
    assert rep.total == rep.stitch.value * max(rep.case_n.value, rep.case_b.value)


def test_general_branch_factors_the_tight_rows_once(monkeypatch):
    # the partition's factorization of A_B feeds the center and the stitch,
    # so the stitch's null basis is the complement of the certified row space
    inst = instance(planted_mixed_matrix(3, 30, 8))
    inputs = record_svd_inputs(monkeypatch)
    rep = bound_h0(inst)
    assert rep.branch == "general"
    assert count_scaled_copies(inputs, inst.A[list(rep.partition.B)]) == 1
    block, w = rep.partition.block, rep.stitch.w_bar
    assert block.V.shape[1] + block.Q.shape[1] == inst.n
    assert np.abs(block.V.T @ w).max() <= 1e-15 * np.linalg.norm(w)


def test_case_b_factors_a_once(monkeypatch):
    # every row is tight, so the partition LP's factorization of A is the
    # certificate's block: one scaled copy of A goes through the SVD
    inst = instance(gaussian_matrix(302))
    inputs = record_svd_inputs(monkeypatch)
    rep = bound_h0(inst)
    assert rep.branch == "case_B"
    assert count_scaled_copies(inputs, inst.A) == 1


def test_report_diagnostics_carry_run_parameters():
    rep = bound_h0(instance(C4))
    diag = rep.diagnostics
    assert diag["m"] == 3 and diag["n"] == 2
    # the tolerance is the constant, not a setting; the rank rule has none
    assert diag["opt_tol"] == OPT_TOL
    assert set(diag) == {"opt_tol", "m", "n", "frobenius_scale", "timings"}
    assert set(diag["timings"]) >= {"partition_s", "total_s"}


def test_random_instances_take_consistent_branches():
    for seed in range(10):
        inst = instance(gaussian_matrix(300 + seed))
        rep = bound_h0(inst)
        assert rep.branch in {"case_N", "case_B", "general"}
        assert rep.total >= 0.0
        assert audit_report(inst, rep).ok
        if rep.branch == "general":
            assert rep.case_n is not None and rep.case_b is not None
            assert rep.stitch is not None


# --- scale invariance -----------------------------------------------------

@pytest.mark.parametrize("c", [1e-9, 1e-10, 1e-20])
def test_scaled_down_tight_block_is_certified(c):
    # the rank rule is purely relative, so H0(c A) = H0(A) / c is certified
    # at any scale; an absolute floor of 1e-9 once made these raise
    inst = instance(c * np.array([[1.0], [-1.0]]))
    rep = bound_h0(inst)
    assert rep.branch == "case_B"
    assert rep.total * c == pytest.approx(TWO_SQRT2, rel=1e-12)
    assert audit_report(inst, rep).ok


@pytest.mark.parametrize("c", [1e-310, 1e-200])
def test_tight_rows_whose_norms_underflow_raise(c):
    # the norms of the tight rows +-c e_1 underflow to 0: their block was
    # once left unscaled at rank 0, and the general branch returned a total
    # of 3, though H0 >= 1 / c (pytest turns the RuntimeWarning an overflow
    # once raised into an error)
    inst = instance(C4 * [[c], [c], [1.0]])
    with pytest.raises(ScaleOutOfRange, match="underflows"):
        bound_h0(inst)
    # a report claiming that split fails the audit; the audit does not raise
    res = audit_report(inst, bound_h0(instance(C4)))
    assert not res.ok
    assert any(f.startswith("rank of A_B") for f in res.failures)


def test_a_singular_value_below_the_rank_cut_is_not_certified_away():
    # Both rows are slack: x = (1, -1e15) gives A x = (-9, -1).  At
    # u = (0, 1) the distance to P is 1 and the violation 1e-14, so
    # H0 >= 1e14.  A rank cut at 1e-13 s_1 dropped the 1e-14 singular value,
    # and the report was case_B with total 2.83, which the audit passed.
    inst = instance([[1.0, 1e-14], [-1.0, 0.0]])
    try:
        rep = bound_h0(inst)
    except HoffboundError:
        return
    assert rep.total >= 0.99e14 or not audit_report(inst, rep).ok


@pytest.mark.parametrize("k", range(1, 16))
@pytest.mark.parametrize("matrix", [
    lambda eps: np.array([[1.0, eps], [-1.0, 0.0]]),
    eps_block,
], ids=["slack_pair", "eps_block"])
def test_a_singular_value_above_rounding_noise_is_never_certified_away(matrix, k):
    # at u = (0, 1) each matrix has distance 1 to P and violation 10^-k, so
    # H0 >= 10^k: a report bounds that and passes the audit, or it raises
    eps = float(f"1e-{k}")
    inst = instance(matrix(eps))
    try:
        rep = bound_h0(inst)
    except HoffboundError:
        return
    assert rep.total >= (1.0 - 1e-9) / eps
    res = audit_report(inst, rep)
    assert res.ok, res.failures


@functools.lru_cache(maxsize=None)
def _unscaled_total(seed, m, n):
    return bound_h0(instance(planted_mixed_split(seed, m, n)[0])).total


@settings(max_examples=20, deadline=None, derandomize=True)
@given(shape=st.sampled_from([(12, 4), (30, 8), (60, 10)]),
       seed=st.integers(0, 2), k=st.integers(-60, 60),
       row_seed=st.none() | st.integers(0, 59))
@example(shape=(60, 10), seed=0, k=-60, row_seed=None)
@example(shape=(60, 10), seed=1, k=60, row_seed=None)
@example(shape=(30, 8), seed=0, k=0, row_seed=6)  # once failed on A_B' y_hat
@example(shape=(30, 8), seed=0, k=0, row_seed=14)  # once failed on A_B x_hat
def test_scaled_planted_pipeline(shape, seed, k, row_seed):
    # scaled by 2^k, the planted split, the audit verdict and total * 2^k
    # are those of the unscaled matrix; with each row also scaled by
    # 10^U(-2, 2) (drawn from row_seed) the split is still recovered and
    # the audit passes.  The oracle still brackets the total from below.
    m, n = shape
    A, slack = planted_mixed_split(seed, m, n)
    if row_seed is not None:
        rng = np.random.default_rng([row_seed, 18])
        A = A * 10.0 ** rng.uniform(-2.0, 2.0, size=(m, 1))
    c = 2.0**k
    inst = instance(c * A)
    rep = bound_h0(inst)
    assert rep.partition.N == tuple(np.flatnonzero(slack))
    res = audit_report(inst, rep)
    assert res.ok, res.failures
    if row_seed is None:
        assert rep.total * c == pytest.approx(_unscaled_total(seed, m, n), rel=1e-12)
    low = lower_bound_monte_carlo(inst, num_samples=8, seed=seed,
                                  x_hat=rep.partition.x_hat)
    assert 0.0 < low.lower_bound <= rep.total


def test_rows_scaled_over_eight_decades_give_the_planted_split_or_a_typed_error():
    # 18 x 5 planted mixed matrices with each row scaled by 10^U(-4, 4):
    # every report recovers the planted N and passes the audit, anything
    # raised is a HoffboundError.  175 of the 400 certify; before the margin
    # rule 57 did, and the partition LP returned a wrong split on 34.
    certified = 0
    for seed in range(20):
        A, slack = planted_mixed_split(seed, 18, 5)
        for row_seed in range(20):
            rng = np.random.default_rng([row_seed, 4])
            inst = instance(A * 10.0 ** rng.uniform(-4.0, 4.0, size=(18, 1)))
            try:
                rep = bound_h0(inst)
            except HoffboundError:
                continue
            assert rep.partition.N == tuple(np.flatnonzero(slack)), (seed, row_seed)
            res = audit_report(inst, rep)
            assert res.ok, (seed, row_seed, res.failures)
            certified += 1
    assert certified >= 175


def test_block_bounds_reject_an_empty_side():
    with pytest.raises(ValueError, match="tight set must be nonempty"):
        bound_case_b(TightBlock(np.zeros((0, 2))))
    with pytest.raises(ValueError, match="slack set must be nonempty"):
        bound_stitch(TightBlock(C4[:2]), np.zeros((0, 2)))
