"""Tight/slack row partition certificates and their independent verification."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoffbound.bounds
import hoffbound.partition
import hoffbound.solvers.programs
from hoffbound import AmbiguousIndex, HoffboundError, audit_report, bound_h0
from hoffbound.audit import verify_partition
from hoffbound.numerics import NumericalFailure, TightBlock
from hoffbound.partition import PartitionCertificate, compute_partition, slack_margin
from hoffbound.solvers.programs import (
    AnalyticCenterSolution,
    InfeasibleQP,
    MinNormSolution,
    SolverStall,
    solve_partition_lp,
)

from helpers import (
    C4,
    gaussian_matrix,
    instance,
    optimal_lp,
    planted_mixed_matrix,
    planted_mixed_split,
)


def test_all_slack_instance():
    inst = instance(-np.eye(5))
    cert = compute_partition(inst)
    assert cert.B == ()
    assert cert.N == (0, 1, 2, 3, 4)
    # interior witness is the positive diagonal direction, unit length
    assert np.allclose(cert.x_hat, np.ones(5) / np.sqrt(5.0), atol=1e-8)
    assert cert.y_hat.size == 0
    metrics = verify_partition(inst, cert).metrics
    assert "min_y_hat" not in metrics
    assert metrics["min_slack_N"] == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-8)
    # A has full row rank, so the least-squares solution of A x = -1 is
    # interior and proves the split before the LP runs
    assert cert.lp is None


def test_all_tight_instance():
    inst = instance(np.array([[1.0], [-1.0]]))
    cert = compute_partition(inst)
    assert cert.B == (0, 1)
    assert cert.N == ()
    assert np.allclose(cert.y_hat, [0.5, 0.5], atol=1e-8)
    assert cert.x_hat is None
    assert "min_slack_N" not in verify_partition(inst, cert).metrics
    # the least-squares residual of A x = -1 is (1, 1), positive weights
    # that prove the split before the LP runs
    assert cert.lp is None


def test_mixed_instance():
    inst = instance(C4)
    cert = compute_partition(inst)
    assert cert.B == (0, 1)
    assert cert.N == (2,)
    assert cert.x_hat[0] == pytest.approx(0.0, abs=1e-8)
    assert cert.x_hat[1] == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(cert.y_hat, [0.5, 0.5], atol=1e-8)
    # certified after one step from the fixed start; that iterate's t is
    # not the optimum 1/3
    assert cert.lp["iterations"] == 1
    assert cert.lp["t"] == pytest.approx(0.1696540740740743, rel=1e-12)
    metrics = verify_partition(inst, cert).metrics
    assert metrics["min_slack_N"] == pytest.approx(1.0, abs=1e-8)
    assert metrics["min_y_hat"] == pytest.approx(0.5, abs=1e-8)


def test_zero_matrix_rows_are_all_tight():
    cert = compute_partition(instance(np.zeros((2, 2))))
    assert cert.B == (0, 1)
    assert cert.N == ()
    assert np.allclose(cert.y_hat, 0.5)


def test_certificates_verify_and_are_frozen():
    for A in (-np.eye(5), np.array([[1.0], [-1.0]]), C4):
        inst = instance(A)
        cert = compute_partition(inst)
        check = verify_partition(inst, cert)
        assert check.ok, check.failures
        if cert.B:
            assert {"center_eq_inf", "y_hat_sum_err"} <= set(check.metrics)
        if cert.N:
            assert {"min_slack_N", "x_hat_norm"} <= set(check.metrics)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cert.lp = None


def test_verification_catches_tampered_multipliers():
    inst = instance(C4)
    cert = compute_partition(inst)
    bad = dataclasses.replace(cert, y_hat=np.array([0.9, 0.1]))
    check = verify_partition(inst, bad)
    assert not check.ok
    assert any("y_hat" in msg for msg in check.failures)


def test_verification_catches_flipped_witness():
    inst = instance(C4)
    cert = compute_partition(inst)
    bad = dataclasses.replace(cert, x_hat=-cert.x_hat)
    check = verify_partition(inst, bad)
    assert not check.ok


def test_verification_catches_swapped_blocks():
    inst = instance(C4)
    cert = compute_partition(inst)
    bad = dataclasses.replace(cert, B=cert.N, N=cert.B)
    assert not verify_partition(inst, bad).ok


def test_verification_rejects_a_negligible_weight_on_a_slack_row():
    # row 2 of C4 is strictly slack (x = (0, 1) gives it -1), but filed as
    # tight with weight 1e-17 the residual A_B' y_hat is 1e-17, far inside
    # a relative residual budget; no exact positive weights sit that close
    inst = instance(C4)
    y = np.array([0.5 - 5e-18, 0.5 - 5e-18, 1e-17])
    bad = PartitionCertificate(B=(0, 1, 2), N=(), x_hat=None, y_hat=y)
    assert np.abs(inst.A.T @ y).max() <= 1e-17
    check = verify_partition(inst, bad)
    assert not check.ok
    assert check.metrics["weight_margin"] < 0.0
    assert any(msg.startswith("y_hat does not prove B tight") for msg in check.failures)


def test_overlapping_blocks_rejected_at_construction():
    with pytest.raises(ValueError):
        PartitionCertificate(B=(0, 1), N=(1, 2), x_hat=np.zeros(2), y_hat=np.full(2, 0.5))


def test_ambiguous_index_is_a_hoffbound_error():
    err = AmbiguousIndex("cannot classify")
    assert isinstance(err, HoffboundError)
    assert str(err) == "cannot classify"


def test_untrusted_margin_raises_after_one_solve(monkeypatch):
    real = hoffbound.partition.solve_partition_lp
    seen = []

    def counted(block, accept):
        seen.append(block)
        return real(block, accept)

    # the first step certifies C4; the converged LP takes more steps
    plain = compute_partition(instance(C4))
    assert plain.lp["iterations"] == 1 < optimal_lp(C4)[0]["iterations"]
    monkeypatch.setattr(hoffbound.partition, "solve_partition_lp", counted)
    monkeypatch.setattr(hoffbound.partition, "weight_margin", lambda block, y: 0.0)
    with pytest.raises(AmbiguousIndex, match="margin rule"):
        compute_partition(instance(C4))
    assert len(seen) == 1


def test_partition_covers_all_rows_on_random_instances(monkeypatch):
    real = hoffbound.partition.solve_partition_lp
    ran = []

    def counted(block, accept):
        ran.append(block)
        return real(block, accept)

    monkeypatch.setattr(hoffbound.partition, "solve_partition_lp", counted)
    inputs = [(f"gaussian {seed}", gaussian_matrix(seed)) for seed in range(200, 212)]
    inputs += [(f"mixed {seed}", planted_mixed_matrix(seed, 30, 8)) for seed in range(3)]
    lp_runs, staged = [], []
    for name, A in inputs:
        inst = instance(A)
        ran.clear()
        cert = compute_partition(inst)
        assert sorted(cert.B + cert.N) == list(range(inst.m))
        assert verify_partition(inst, cert).ok
        # the certified split is the converged LP's support split, found
        # in fewer steps
        lp, y, s = optimal_lp(inst.A)
        assert cert.B == tuple(np.flatnonzero(y > s))
        # every LP iterate has t > 0; a split proven before the LP has no
        # LP record
        if ran:
            lp_runs.append(name)
            assert cert.lp["t"] > 0.0 and cert.B and cert.N
            assert cert.lp["iterations"] < lp["iterations"]
        else:
            assert cert.lp is None and lp["iterations"] > 0
        if cert.solution is not None:
            staged.append(name)
    # the Gaussian inputs are one-sided: 205 and 209, which least-squares
    # witnesses leave open, are proven by the least-distance stage
    assert lp_runs == ["mixed 0", "mixed 1", "mixed 2"]
    assert staged == ["gaussian 205", "gaussian 209"]


def test_partition_is_permutation_equivariant():
    A = gaussian_matrix(42)
    inst = instance(A)
    cert = compute_partition(inst)
    perm = np.random.default_rng(7).permutation(A.shape[0])
    cert_p = compute_partition(instance(A[perm]))
    assert {int(perm[i]) for i in cert_p.B} == set(cert.B)
    assert {int(perm[i]) for i in cert_p.N} == set(cert.N)


def test_one_sided_splits_are_proven_without_the_interior_point_method(monkeypatch):
    # -eye(5) is proven all slack by its least-squares solution of A x = -1,
    # and this 20 x 10 Gaussian matrix all tight by the residual r > 0
    def refuse(*args, **kwargs):
        raise AssertionError("the interior-point method was called")

    monkeypatch.setattr(hoffbound.solvers.programs, "solve_qp_ipm", refuse)
    for A, branch in ((-np.eye(5), "case_N"), (gaussian_matrix(216), "case_B")):
        inst = instance(A)
        rep = bound_h0(inst)
        assert rep.branch == branch
        assert rep.partition.lp is None
        res = audit_report(inst, rep)
        assert res.ok, res.failures


def _cone_with_interior(seed: int, m: int, n: int, margin: float = 1.0) -> np.ndarray:
    """Rows ``g_i - c_i d`` with g_i orthogonal to a unit d and c_i > 0, the
    first at most ``margin``, so that ``A d < 0`` and every row is slack."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    G = rng.standard_normal((m, n))
    G -= np.outer(G @ d, d)
    c = rng.uniform(0.05, 1.0, m)
    c[0] = min(c[0], margin)
    return G - c[:, None] * d


def _no_fit(G):
    raise InfeasibleQP("forced to defer")


def test_an_all_slack_input_stops_at_its_first_interior_iterate(monkeypatch):
    A = _cone_with_interior(11, 12, 4)
    full = TightBlock(A)
    x_ls = np.linalg.lstsq(A, -np.ones(12), rcond=None)[0]
    assert not (A @ x_ls < 0.0).all()
    # the least-distance fit proves it before the LP ...
    cert = compute_partition(instance(A))
    assert cert.B == () and cert.lp is None
    assert isinstance(cert.solution, MinNormSolution)
    # ... so the fit is made to defer, and the LP runs
    monkeypatch.setattr(hoffbound.partition, "solve_min_norm_qp", _no_fit)
    _, first = solve_partition_lp(
        full, lambda x, y, s: True if (A @ x < 0.0).all() else None)
    # every row has s > y only later (the start ties y = s), and no earlier
    # iterate's split could have been proven
    _, late = solve_partition_lp(
        full, lambda x, y, s: True if (s > y).all() else None)
    assert first["iterations"] < late["iterations"]
    cert = compute_partition(instance(A))
    assert cert.B == ()
    assert cert.lp == first
    assert cert.lp["t"] > 0.0
    assert np.all(A @ cert.x_hat < 0.0)


@pytest.mark.parametrize("m, n", [(200, 40), (400, 40)])
@pytest.mark.parametrize("seed", [0, 1])
def test_planted_mixed_splits_are_left_to_the_lp(monkeypatch, m, n, seed):
    A, slack = planted_mixed_split(seed, m, n)
    inst = instance(A)
    log = []
    _log_solves(monkeypatch, hoffbound.partition, log)
    cert = compute_partition(inst)
    # one least-distance fit on rank(A) + 1 rows, never on all rows, and
    # its Farkas weights do not span the row space
    assert log == [("fit", np.linalg.matrix_rank(A) + 1), ("lp", m)]
    assert cert.N == tuple(int(i) for i in np.flatnonzero(slack))
    assert cert.lp["iterations"] > 0 and cert.lp["t"] > 0.0
    assert cert.lp["residuals"]
    assert verify_partition(inst, cert).ok


def _log_solves(monkeypatch, module, log):
    """Record ``(name, rows)`` for each fit, center and LP ``module`` calls."""
    for attr, name in (("solve_min_norm_qp", "fit"), ("solve_analytic_center", "center"),
                       ("solve_partition_lp", "lp")):
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, _logged(getattr(module, attr), name, log))


def _logged(fn, name, log):
    def call(M, *args, **kwargs):
        log.append((name, (M if isinstance(M, np.ndarray) else M.A_B).shape[0]))
        return fn(M, *args, **kwargs)
    return call


@pytest.mark.parametrize("seed, branch", [(205, "case_N"), (220, "case_N"),
                                          (209, "case_B"), (232, "case_B")])
def test_one_sided_splits_left_open_by_least_squares_reuse_the_block_solve(
        monkeypatch, seed, branch):
    # least-squares witnesses leave these open; the least-distance stage
    # proves them with the fit (case N) or center (case B) that the block
    # bound then reuses, so it is solved once per bound_h0, and the total is
    # the one the LP path gives
    A = gaussian_matrix(seed)
    m = A.shape[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hoffbound.partition, "solve_min_norm_qp", _no_fit)
        before = bound_h0(instance(A))
    assert before.partition.lp is not None  # the LP decided it
    log, reused = [], []
    _log_solves(monkeypatch, hoffbound.partition, log)
    _log_solves(monkeypatch, hoffbound.bounds, reused)
    rep = bound_h0(instance(A))
    assert rep.branch == before.branch == branch
    assert rep.total == before.total
    assert reused == [] and not [call for call in log if call[0] == "lp"]
    # a case-B input may also fit all rows, to find the Farkas weights
    program = "fit" if branch == "case_N" else "center"
    assert [call for call in log if call[0] == program and call[1] == m] == [(program, m)]
    assert audit_report(instance(A), rep).ok


@pytest.mark.parametrize("seed, program", [(205, "solve_min_norm_qp"),
                                           (209, "solve_analytic_center")])
def test_a_failed_fit_or_center_falls_back_to_the_lp(monkeypatch, seed, program):
    inst = instance(gaussian_matrix(seed))
    proven = compute_partition(inst)
    assert proven.solution is not None

    def stall(*args, **kwargs):
        raise SolverStall("forced")

    monkeypatch.setattr(hoffbound.partition, program, stall)
    cert = compute_partition(inst)
    assert (cert.B, cert.N) == (proven.B, proven.N)
    assert cert.solution is None and cert.lp["t"] > 0.0 and cert.lp["residuals"]
    assert verify_partition(inst, cert).ok


def test_a_split_whose_block_factorization_fails_is_left_to_later_iterates(monkeypatch):
    # certify treats a NumericalFailure of the candidate B's TightBlock as an
    # unproven split: here the second block it builds fails, and the LP goes
    # on to prove the planted split at a later iterate
    A, slack = planted_mixed_split(0, 30, 8)
    inst = instance(A)
    built = []

    def fail_second(rows):
        if sys._getframe(1).f_code.co_name == "certify":
            built.append(rows.shape[0])
            if len(built) == 2:
                raise NumericalFailure("forced")
        return TightBlock(rows)

    monkeypatch.setattr(hoffbound.partition, "TightBlock", fail_second)
    cert = compute_partition(inst)
    assert len(built) > 2
    assert cert.N == tuple(int(i) for i in np.flatnonzero(slack))
    assert cert.lp is not None
    assert verify_partition(inst, cert).ok


class _Deferred(Exception):
    pass


def _defer(block, accept):
    raise _Deferred


def _sided_input(side, seed, n, extra, k, scaled):
    """An input of ``n + extra`` rows (5 times that when mixed) and its true
    B.  One-sided inputs have margin 10^-k: slack rows meet a direction d at
    -10^-k or more, tight rows carry weights down to 10^-k; mixed inputs are
    planted.  ``scaled`` multiplies the rows by 10^U(-8, 8)."""
    rng = np.random.default_rng([seed, 8])
    m = n + extra
    if side == "slack":
        A = _cone_with_interior(seed, m, n, 10.0**-k)
        truth = ()
    elif side == "tight":
        G = rng.standard_normal((m - 1, n))
        w = rng.uniform(0.0, 1.0, m - 1)
        w[0] = 10.0**-k
        A = np.vstack([G, -(w @ G)])
        truth = tuple(range(m))
    else:
        A, slack = planted_mixed_split(seed, 5 * m, n)
        truth = tuple(int(i) for i in np.flatnonzero(~slack))
    if scaled:
        A = A * 10.0 ** rng.uniform(-8.0, 8.0, size=(A.shape[0], 1))
    return A, truth


def _proven_before_the_lp(A):
    """``compute_partition`` with the LP replaced by a sentinel: the
    certificate, or None when the split is left to the LP or a typed error
    is raised."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hoffbound.partition, "solve_partition_lp", _defer)
        try:
            return compute_partition(instance(A))
        except (_Deferred, HoffboundError):
            return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(side=st.sampled_from(["slack", "tight", "mixed"]), seed=st.integers(0, 999),
       n=st.integers(2, 8), extra=st.integers(1, 12), k=st.integers(0, 10),
       scaled=st.booleans())
def test_least_squares_witnesses_prove_the_true_side_or_defer(side, seed, n, extra, k,
                                                             scaled):
    # With margins down to 1e-10 and rows scaled over 1e+-8, the split proven
    # before the LP, by least-squares witnesses or by the least-distance
    # stage, is the true one, or the LP is left to decide
    A, truth = _sided_input(side, seed, n, extra, k, scaled)
    cert = _proven_before_the_lp(A)
    if cert is None:
        return
    assert side != "mixed"
    assert cert.B == truth
    assert cert.lp is None
    assert verify_partition(instance(A), cert).ok
    # the stage's witness is the bound's own solve on all of A
    if isinstance(cert.solution, MinNormSolution):
        assert side == "slack" and (A @ cert.solution.z >= 1.0).all()
    elif cert.solution is not None:
        assert isinstance(cert.solution, AnalyticCenterSolution)
        assert side == "tight" and (cert.solution.y > 0.0).all()
        assert cert.block.A_B.shape == A.shape


def test_the_least_distance_stage_proves_what_least_squares_leaves_open(monkeypatch):
    # The generator above, unscaled, on a fixed grid of margins down to
    # 1e-10: the stage proves every one-sided input whose least-squares
    # witnesses fail, on the true side, and defers every mixed one
    real = hoffbound.partition._least_distance
    reached = []

    def seen(*args):
        reached.append(True)
        return real(*args)

    monkeypatch.setattr(hoffbound.partition, "_least_distance", seen)
    proven = {"slack": 0, "tight": 0}
    for side in ("slack", "tight", "mixed"):
        for seed in range(60):
            A, truth = _sided_input(side, seed, 2 + seed % 7, 1 + seed % 12, seed % 11,
                                    False)
            reached.clear()
            cert = _proven_before_the_lp(A)
            if side == "mixed":
                assert cert is None
            elif reached:
                assert cert is not None and cert.solution is not None
                assert cert.B == truth
                proven[side] += 1
    assert proven == {"slack": 6, "tight": 5}


def test_slack_margin_is_minus_infinity_on_a_zero_row():
    # a zero row is never strictly slack, whatever the witness
    A_N = np.array([[0.0, -1.0], [0.0, 0.0]])
    assert slack_margin(TightBlock(C4[:2]), A_N, np.array([0.0, 1.0])) == -np.inf
