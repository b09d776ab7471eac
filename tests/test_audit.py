"""Independent certificate audit: matvecs and norms only, no solver calls."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoffbound.audit
from hoffbound import audit_report, bound_h0, lower_bound_monte_carlo
from hoffbound.bounds import CaseBBound
from hoffbound.numerics import smallest_positive_singular_value

from helpers import (
    C4,
    count_scaled_copies,
    eps_block,
    gaussian_matrix,
    instance,
    planted_mixed_matrix,
    record_svd_inputs,
    report_schema,
)


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
    assert any(f.startswith("x_hat does not prove N slack") for f in res.failures)
    assert res.metrics["min_slack_N"] == -1.0
    assert res.metrics["slack_margin"] == pytest.approx(-1.0, abs=1e-12)


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


def test_audit_rejects_a_forged_sigma_cut_by_a_second_rank_decision():
    # all four rows tight, H0 = 1e6; these weights put the second singular
    # value of A_B' diag(y_bar) at 1.4e-14 of the first, so a rank rule run
    # on the weighted rows with a cut above that reads sigma = 0.7071,
    # total 2.83
    inst = instance(eps_block(1e-6))
    rep = bound_h0(inst)
    assert rep.branch == "case_B" and audit_report(inst, rep).ok
    y = np.array([0.5 - 1e-8, 0.5 - 1e-8, 1e-8, 1e-8])
    s = np.linalg.svd(inst.A.T * y[None, :], compute_uv=False)
    assert s[1] < 1e-13 * s[0]
    sigma = float(s[0])  # the forged cut drops s[1]
    assert sigma == pytest.approx(np.hypot(y[0], y[1]), rel=1e-12)  # 0.7071
    bad_case_b = dataclasses.replace(rep.case_b, y_bar=y, sigma=sigma, value=2.0 / sigma)
    bad = dataclasses.replace(rep, case_b=bad_case_b, total=bad_case_b.value)
    assert bad.total == pytest.approx(2.828, rel=1e-3)
    res = audit_report(inst, bad)
    assert not res.ok
    assert any("exceeds the recomputed value" in f for f in res.failures)
    assert res.metrics["case_b_sigma"] == pytest.approx(1e-6 * np.hypot(y[2], y[3]), rel=1e-6)


@pytest.mark.parametrize("case_b, message", [
    (CaseBBound(value=1.0, y_bar=np.array([0.5, 0.5]), sigma=2.0),
     "sigma 2.0 exceeds the recomputed value 0.0"),
    (CaseBBound(value=1.0, y_bar=np.zeros(0), sigma=2.0),
     "tight-block witness length does not match B"),
    (CaseBBound(value=1.0, y_bar=np.full(3, 1.0 / 3.0), sigma=2.0),
     "tight-block witness length does not match B"),
], ids=["rank_0", "empty", "wrong_length"])
def test_audit_records_a_malformed_tight_block_witness(case_b, message):
    # rows 0 and 1 are zero, so B = (0, 1) and A_B has rank 0
    inst = instance(np.array([[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]))
    rep = bound_h0(inst)
    assert rep.partition.B == (0, 1) and rep.case_b.sigma is None
    total = rep.stitch.value * max(rep.case_n.value, case_b.value)
    res = audit_report(inst, dataclasses.replace(rep, case_b=case_b, total=total))
    assert not res.ok
    assert message in res.failures


def test_audit_rejects_a_stitch_witness_off_the_null_space():
    inst = instance(C4)
    rep = bound_h0(inst)
    w = rep.stitch.w_bar + 1e-3 * np.array([1.0, 0.0])  # along the row space
    bad_stitch = dataclasses.replace(rep.stitch, w_bar=w)
    res = audit_report(inst, dataclasses.replace(rep, stitch=bad_stitch))
    assert not res.ok
    assert any(f.startswith("stitch witness leaves the null space") for f in res.failures)


def test_audit_rejects_a_halved_stitch_witness():
    inst = instance(C4)
    rep = bound_h0(inst)
    bad_stitch = dataclasses.replace(rep.stitch, w_bar=rep.stitch.w_bar * 0.5)
    res = audit_report(inst, dataclasses.replace(rep, stitch=bad_stitch))
    assert not res.ok
    assert any(f.startswith("stitch witness margin") for f in res.failures)
    assert res.metrics["stitch_margin"] == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("A, component, witness, value, name", [
    (-np.eye(5), "case_n", "x_bar", lambda z: float(np.linalg.norm(z)),
     "slack-block witness"),
    (C4, "stitch", "w_bar", lambda z: 1.0 + 2.0 * float(np.linalg.norm(z)),
     "stitch witness"),
], ids=["x_bar", "w_bar"])
def test_audit_rejects_a_witness_shrunk_below_unit_margin(A, component, witness, value,
                                                         name):
    # shrunk by 1 - 5e-10, the witness keeps its margin within MARGIN_TOL and
    # its value is recomputed, but it proves only a value 5e-10 larger
    inst = instance(A)
    rep = bound_h0(inst)
    z = getattr(getattr(rep, component), witness) * (1.0 - 5e-10)
    bad = dataclasses.replace(getattr(rep, component), **{witness: z, "value": value(z)})
    bad = dataclasses.replace(rep, **{component: bad})
    factor = 1.0 if bad.stitch is None else bad.stitch.value
    bad = dataclasses.replace(bad, total=factor * max(
        c.value for c in (bad.case_n, bad.case_b) if c is not None))
    res = audit_report(inst, bad)
    assert not res.ok
    assert len(res.failures) == 1
    assert res.failures[0].startswith(f"{name} proves")
    assert 1.0 - 1e-9 < res.metrics[f"{component}_margin"] < 1.0


@pytest.mark.parametrize("component, witness, message", [
    ("partition", "x_hat", "x_hat length does not match n"),
    ("case_n", "x_bar", "slack-block witness length does not match n"),
    ("stitch", "w_bar", "stitch witness length does not match n"),
], ids=["x_hat", "x_bar", "w_bar"])
def test_audit_records_a_witness_of_the_wrong_length(component, witness, message):
    # each once escaped as numpy's ValueError from a matrix product
    inst = instance(C4)
    rep = bound_h0(inst)
    part = getattr(rep, component)
    bad = dataclasses.replace(part, **{witness: np.append(getattr(part, witness), 0.0)})
    res = audit_report(inst, dataclasses.replace(rep, **{component: bad}))
    assert not res.ok
    assert message in res.failures


@pytest.mark.parametrize("A, field, change, message", [
    (C4, "partition.N", lambda N: (), "B and N do not partition the row indices"),
    (C4, "partition.B", lambda B: B[::-1], "index tuples are not sorted"),
    (C4, "partition.x_hat", lambda x: 2.0 * x, "x_hat norm "),
    (C4, "partition.x_hat", lambda x: None, "x_hat is missing for a nonempty N"),
    (np.array([[1.0], [-1.0]]), "partition.x_hat", lambda x: np.ones(1),
     "x_hat must be None when N is empty"),
    (C4, "partition.y_hat", lambda y: np.append(y, 0.0), "y_hat length does not match B"),
    (-np.eye(3), "partition.y_hat", lambda y: np.ones(1),
     "y_hat must be empty when B is empty"),
    (C4, "case_b.y_bar", lambda y: y * (1.0 + 1e-9), "y_bar sums to 1 only within"),
    (C4, "case_b.y_bar", lambda y: np.array([0.6, 0.4]), "A_B' y_bar residual"),
    (C4, "case_b.sigma", lambda s: None, "sigma is missing for a nonzero tight block"),
    (C4, "case_b.sigma", lambda s: -s, "sigma must be positive"),
    (np.array([[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]), "case_b.value", lambda v: 1.0,
     "zero tight block must report value 0"),
    (C4, "case_b.value", lambda v: 1.5 * v, "tight-block value does not equal 2 / sigma"),
    (C4, "stitch.value", lambda v: v + 1.0, "stitch value does not equal 1 + 2 ||w_bar||"),
    (C4, "branch", lambda b: "bogus", "unknown branch 'bogus'"),
    (C4, "branch", lambda b: "zero", "unknown branch 'zero'"),
    (C4, "partition", lambda p: None, "report is missing its partition certificate"),
    # the zero row of this input is tight; filed as slack, the stitch
    # check cannot normalize it
    (np.vstack([C4, np.zeros(2)]), "partition",
     lambda p: dataclasses.replace(p, B=(0, 1), N=(2, 3)), "a slack row is identically zero"),
], ids=["B_N_cover", "B_unsorted", "x_hat_norm", "x_hat_missing", "x_hat_without_N",
        "y_hat_length", "y_hat_without_B", "y_bar_sum", "y_bar_residual", "sigma_missing",
        "sigma_negative", "zero_block_value", "case_b_value", "stitch_value", "branch",
        "zero_branch", "partition_missing", "zero_slack_row"])
def test_audit_names_the_check_a_tampered_field_fails(A, field, change, message):
    # one field of an honest report changed: its own check records the failure
    inst = instance(A)
    rep = bound_h0(inst)
    assert audit_report(inst, rep).ok
    component, _, name = field.rpartition(".")
    owner = getattr(rep, component) if component else rep
    bad = dataclasses.replace(owner, **{name: change(getattr(owner, name))})
    if component:
        bad = dataclasses.replace(rep, **{component: bad})
    res = audit_report(inst, bad)
    assert not res.ok
    assert any(f.startswith(message) for f in res.failures), res.failures


def test_schema_branches_are_the_audited_branches():
    # the report contract and the audit name the same branches
    branches = report_schema()["properties"]["branch"]["enum"]
    assert sorted(branches) == sorted(hoffbound.audit._BRANCH_COMPONENTS)


def test_audit_factors_the_tight_rows_once(monkeypatch):
    # verify_partition and the stitch check share the audit's one SVD of A_B
    inst = instance(planted_mixed_matrix(3, 30, 8))
    rep = bound_h0(inst)
    inputs = record_svd_inputs(monkeypatch)
    res = audit_report(inst, rep)
    assert rep.branch == "general" and res.ok, res.failures
    assert count_scaled_copies(inputs, inst.A[list(rep.partition.B)]) == 1
    assert res.metrics["stitch_rank_gap"] > 1e14


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
    # the tight rows of C4 have rank 1 exactly, so nothing is left below s_1
    assert res4.metrics["stitch_rank_gap"] == np.inf
    # planted +-r pairs: rank n - dim(Q), with rounding below it
    inst8 = instance(planted_mixed_matrix(3, 30, 8))
    res8 = audit_report(inst8, bound_h0(inst8))
    assert res8.ok
    assert 1e12 < res8.metrics["stitch_rank_gap"] < np.inf


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-8, 1e-9, 1e-10, 1e-12])
def test_counted_small_singular_value_is_certified(eps):
    # A_B' diag(y_bar) has singular values ~ 1 and ~ eps; eps lies above the
    # rounding noise, so it is counted and the total is 5.657 / eps
    inst = instance(eps_block(eps))
    rep = bound_h0(inst)
    res = audit_report(inst, rep)
    assert res.ok, res.failures
    assert res.metrics["case_b_sigma"] == rep.case_b.sigma
    low = lower_bound_monte_carlo(inst, num_samples=16, seed=0,
                                  x_hat=rep.partition.x_hat)
    assert low.lower_bound <= rep.total
    assert rep.total == pytest.approx(4.0 * np.sqrt(2.0) / eps, rel=1e-9)


def test_audit_records_an_ambiguous_rank_as_a_failure():
    # the report of eps = 1e-6 claims sigma = 3.5e-7 on a block whose second
    # singular value, counted, gives sigma = 3.5e-13
    rep = bound_h0(instance(eps_block(1e-6)))
    res = audit_report(instance(eps_block(1e-12)), rep)
    assert not res.ok
    assert any("exceeds the recomputed value" in f for f in res.failures)
    sigma = np.hypot(0.25, 0.25) * 1e-12
    assert res.metrics["case_b_sigma"] == pytest.approx(sigma, rel=1e-12, abs=0.0)


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
    assert "sigma of A_B' diag(y_bar): SVD did not converge" in res.failures


def test_audit_rejects_a_nan_partition_witness():
    inst = instance(C4)
    rep = bound_h0(inst)
    x = np.full_like(rep.partition.x_hat, np.nan)
    bad_cert = dataclasses.replace(rep.partition, x_hat=x)
    res = audit_report(inst, dataclasses.replace(rep, partition=bad_cert))
    assert not res.ok
    assert "x_hat does not prove N slack (margin nan)" in res.failures


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_audit_rejects_a_non_finite_bound(value):
    # a witness whose norm overflows has value inf, and ||x_bar|| = inf matches it
    inst = instance(-np.eye(3))
    rep = bound_h0(inst)
    bad_case_n = dataclasses.replace(rep.case_n, value=value)
    res = audit_report(inst, dataclasses.replace(rep, case_n=bad_case_n, total=value))
    assert not res.ok
    assert f"non-finite bound: total {value!r}, case_n {value!r}" in res.failures


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=400, deadline=None)
@given(b=_FLOATS, a=_FLOATS, ulps=st.integers(-2000, 2000), near=st.booleans())
def test_the_audits_value_comparison_is_np_isclose_without_atol(a, b, ulps, near):
    # near: a is b moved by up to 2000 ulps, across the 1e-13 relative edge
    # (about 450 ulps)
    if near and math.isfinite(b):
        a = b + ulps * math.ulp(b)
    expect = bool(np.isclose(a, b, rtol=1e-13, atol=0.0))
    assert hoffbound.audit._close(a, b) is expect
