"""Independent certificate audit: matvecs and norms only, no solver calls."""

import dataclasses
import inspect

import numpy as np
import pytest

import hoffbound.audit
from hoffbound import (
    CaseBBound,
    NumericalFailure,
    audit_report,
    bound_h0,
    lower_bound_monte_carlo,
    smallest_positive_singular_value,
)

from helpers import gaussian_matrix, instance, planted_mixed_matrix

C4 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])


def test_audit_module_never_imports_solvers():
    src = inspect.getsource(hoffbound.audit)
    assert "solvers" not in src
    assert "scipy" not in src


def test_audit_passes_on_reference_instances():
    for A in (np.zeros((2, 2)), -np.eye(5), np.array([[3.0, 4.0]]),
              np.array([[1.0], [-1.0]]), C4):
        inst = instance(A)
        res = audit_report(inst, bound_h0(inst))
        assert res.ok, res.failures


def test_audit_passes_on_random_instances():
    for seed in range(8):
        inst = instance(gaussian_matrix(600 + seed))
        res = audit_report(inst, bound_h0(inst))
        assert res.ok, res.failures


def test_audit_rejects_inflated_total():
    inst = instance(C4)
    rep = bound_h0(inst)
    bad = dataclasses.replace(rep, total=rep.total * 2.0)
    res = audit_report(inst, bad)
    assert not res.ok
    assert "general branch arithmetic mismatch" in res.failures


def test_audit_rejects_shrunk_slack_witness():
    inst = instance(C4)
    rep = bound_h0(inst)
    bad_case_n = dataclasses.replace(rep.case_n, x_bar=rep.case_n.x_bar * 0.5)
    res = audit_report(inst, dataclasses.replace(rep, case_n=bad_case_n))
    assert not res.ok
    assert len(res.failures) >= 1


def test_audit_rejects_tampered_partition_witness():
    # flipping x_hat keeps its norm and A_B x_hat = 0 but makes it violate N
    inst = instance(C4)
    rep = bound_h0(inst)
    bad_cert = dataclasses.replace(rep.partition, x_hat=-rep.partition.x_hat)
    res = audit_report(inst, dataclasses.replace(rep, partition=bad_cert))
    assert not res.ok
    assert "x_hat is not strictly slack on every row of N" in res.failures
    assert res.metrics["min_slack_N"] == -1.0


def test_audit_rejects_tampered_center():
    inst = instance(C4)
    rep = bound_h0(inst)
    bad_case_b = dataclasses.replace(rep.case_b, y_bar=np.array([0.9, 0.1]))
    res = audit_report(inst, dataclasses.replace(rep, case_b=bad_case_b))
    assert not res.ok


def test_audit_rejects_inflated_sigma():
    # inflating sigma 100x and redoing the branch arithmetic consistently
    # lowers the README example's total from 8.485 to 3.0
    inst = instance(C4)
    rep = bound_h0(inst)
    sigma = rep.case_b.sigma * 100.0
    bad_case_b = dataclasses.replace(rep.case_b, sigma=sigma, value=2.0 / sigma)
    total = rep.stitch.value * max(rep.case_n.value, bad_case_b.value)
    assert total == pytest.approx(3.0, rel=1e-12)
    res = audit_report(inst, dataclasses.replace(rep, case_b=bad_case_b, total=total))
    assert not res.ok
    assert any("exceeds the recomputed value" in f for f in res.failures)
    assert res.metrics["case_b_sigma"] == rep.case_b.sigma


def test_audit_rejects_non_orthonormal_stitch_basis():
    inst = instance(C4)
    rep = bound_h0(inst)
    bad_stitch = dataclasses.replace(rep.stitch, Q=rep.stitch.Q * 2.0)
    res = audit_report(inst, dataclasses.replace(rep, stitch=bad_stitch))
    assert not res.ok


def test_audit_rejects_nonzero_total_on_zero_matrix():
    inst = instance(np.zeros((2, 2)))
    rep = bound_h0(inst)
    bad = dataclasses.replace(rep, total=1.0)
    assert not audit_report(inst, bad).ok


def test_audit_metrics_expose_branch_quantities():
    inst = instance(-np.eye(5))
    res = audit_report(inst, bound_h0(inst))
    assert res.ok
    assert {"case_n_margin", "case_n_norm"} <= set(res.metrics)
    inst4 = instance(C4)
    rep4 = bound_h0(inst4)
    res4 = audit_report(inst4, rep4)
    assert res4.ok
    assert res4.metrics  # general branch records every component check
    assert res4.metrics["case_b_sigma"] == rep4.case_b.sigma
    assert res4.metrics["case_b_rank_gap"] > 1.0
    # the tight rows of C4 have rank 1 exactly, so nothing is left below s_1
    assert res4.metrics["stitch_rank_gap"] == np.inf
    # planted +-r pairs: rank n - dim(Q), with rounding below it
    inst8 = instance(planted_mixed_matrix(3, 30, 8))
    res8 = audit_report(inst8, bound_h0(inst8))
    assert res8.ok
    assert 1e12 < res8.metrics["stitch_rank_gap"] < np.inf


def _eps_block(eps):
    # all four rows tight; A_B' diag(y_bar) has singular values ~ 1 and ~ eps
    return np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, eps], [0.0, -eps]])


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-8])
def test_counted_small_singular_value_is_certified(eps):
    inst = instance(_eps_block(eps))
    rep = bound_h0(inst)
    res = audit_report(inst, rep)
    assert res.ok, res.failures
    assert res.metrics["case_b_sigma"] == rep.case_b.sigma
    low = lower_bound_monte_carlo(inst, num_samples=16, seed=0,
                                  x_hat=rep.partition.x_hat)
    assert low.lower_bound <= rep.total


@pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-12])
def test_singular_value_in_the_ambiguous_band_raises(eps):
    # cutting eps as zero would certify 5.657 where H0 is at least 1 / eps
    with pytest.raises(NumericalFailure, match="ambiguous band"):
        bound_h0(instance(_eps_block(eps)))


def test_audit_records_an_ambiguous_rank_as_a_failure():
    rep = bound_h0(instance(_eps_block(1e-6)))
    res = audit_report(instance(_eps_block(1e-12)), rep)
    assert not res.ok
    assert any("ambiguous band" in f for f in res.failures)


def test_audit_budget_scales_with_the_tight_block():
    # off the slice, y_bar = (0.9, 0.1) leaves A_B' y_bar = 8e-9, inside an
    # absolute budget of 1e-8; with sigma and the total redone consistently
    # it would certify 6.63e8 where the honest total is 8.49e8
    c = 1e-8
    inst = instance(c * C4)
    rep = bound_h0(inst)
    assert audit_report(inst, rep).ok
    y = np.array([0.9, 0.1])
    sigma = smallest_positive_singular_value(c * C4[:2].T * y[None, :])
    bad_case_b = dataclasses.replace(rep.case_b, y_bar=y, sigma=sigma,
                                     value=2.0 / sigma)
    total = rep.stitch.value * max(rep.case_n.value, bad_case_b.value)
    assert total * c == pytest.approx(6.626, rel=1e-3)
    assert rep.total * c == pytest.approx(8.485, rel=1e-3)
    res = audit_report(inst, dataclasses.replace(rep, case_b=bad_case_b, total=total))
    assert not res.ok
    assert any("A_B' y_bar residual" in f for f in res.failures)


def test_audit_records_a_row_index_out_of_range():
    inst = instance(-np.eye(3))
    rep = bound_h0(inst)
    bad_cert = dataclasses.replace(rep.partition, N=(0, 1, 3))
    res = audit_report(inst, dataclasses.replace(rep, partition=bad_cert))
    assert not res.ok
    assert res.failures == ("a row index is out of range",)


def test_audit_records_an_empty_tight_block_witness():
    # B is empty on -eye(3); a tight-block component there has nothing to weigh
    inst = instance(-np.eye(3))
    rep = bound_h0(inst)
    case_b = CaseBBound(value=1.0, y_bar=np.zeros(0), sigma=2.0)
    res = audit_report(inst, dataclasses.replace(rep, case_b=case_b))
    assert not res.ok
    assert "y_bar is empty" in res.failures


def test_audit_records_a_nan_weight_and_a_failed_svd():
    # a NaN in y_bar once escaped as numpy's LinAlgError from the SVD
    inst = instance(C4)
    rep = bound_h0(inst)
    y = rep.case_b.y_bar.copy()
    y[0] = np.nan
    bad_case_b = dataclasses.replace(rep.case_b, y_bar=y)
    res = audit_report(inst, dataclasses.replace(rep, case_b=bad_case_b))
    assert not res.ok
    assert "y_bar is not strictly positive" in res.failures
    assert "rank of A_B' diag(y_bar): SVD did not converge" in res.failures


def test_audit_rejects_a_nan_partition_witness():
    inst = instance(C4)
    rep = bound_h0(inst)
    x = np.full_like(rep.partition.x_hat, np.nan)
    bad_cert = dataclasses.replace(rep.partition, x_hat=x)
    res = audit_report(inst, dataclasses.replace(rep, partition=bad_cert))
    assert not res.ok
    assert "x_hat is not strictly slack on every row of N" in res.failures


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_audit_rejects_a_non_finite_bound(value):
    # a witness whose norm overflows has value inf, and ||x_bar|| = inf matches it
    inst = instance(-np.eye(3))
    rep = bound_h0(inst)
    bad_case_n = dataclasses.replace(rep.case_n, value=value)
    res = audit_report(inst, dataclasses.replace(rep, case_n=bad_case_n, total=value))
    assert not res.ok
    assert f"non-finite bound: total {value!r}, case_n {value!r}" in res.failures
