"""Independent certificate audit: matvecs and norms only, no solver calls."""

import dataclasses
import inspect

import numpy as np
import pytest

import hoffbound.audit
from hoffbound import audit_report, bound_h0

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
