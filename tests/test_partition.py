"""Tight/slack row partition certificates and their independent verification."""

import dataclasses

import numpy as np
import pytest

import hoffbound.partition
from hoffbound import AmbiguousIndex, HoffboundError, SolverConfig
from hoffbound.audit import verify_partition
from hoffbound.numerics import TightBlock
from hoffbound.partition import PartitionCertificate, compute_partition
from hoffbound.solvers.programs import solve_partition_lp

from helpers import gaussian_matrix, instance

C4 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])


def test_all_slack_instance():
    inst = instance(-np.eye(5))
    cert = compute_partition(inst)
    assert cert.B == ()
    assert cert.N == (0, 1, 2, 3, 4)
    # interior witness is the positive diagonal direction, unit length
    assert np.allclose(cert.x_hat, np.ones(5) / np.sqrt(5.0), atol=1e-8)
    assert cert.y_hat.size == 0
    assert cert.min_y_hat is None
    assert cert.min_slack_N == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-8)
    # the LP's starting point certifies the split; its margin variable
    # exceeds the LP optimum 0.2 (test_solvers pins that)
    assert cert.lp_iterations == 0
    assert cert.t == pytest.approx(17.0 / 84.0, rel=1e-12)


def test_all_tight_instance():
    inst = instance(np.array([[1.0], [-1.0]]))
    cert = compute_partition(inst)
    assert cert.B == (0, 1)
    assert cert.N == ()
    assert np.allclose(cert.y_hat, [0.5, 0.5], atol=1e-8)
    assert np.allclose(cert.x_hat, 0.0)
    assert cert.min_slack_N is None
    # certified at the starting point, whose t is not the optimum 0.5
    assert cert.lp_iterations == 0
    assert cert.t == pytest.approx(61.0 / 138.0, rel=1e-12)


def test_mixed_instance():
    cert = compute_partition(instance(C4))
    assert cert.B == (0, 1)
    assert cert.N == (2,)
    assert cert.x_hat[0] == pytest.approx(0.0, abs=1e-8)
    assert cert.x_hat[1] == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(cert.y_hat, [0.5, 0.5], atol=1e-8)
    # certified at the starting point, whose t is not the optimum 1/3
    assert cert.lp_iterations == 0
    assert cert.t == pytest.approx(43.0 / 136.0, rel=1e-12)
    assert cert.min_slack_N == pytest.approx(1.0, abs=1e-8)
    assert cert.min_y_hat == pytest.approx(0.5, abs=1e-8)


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
            cert.t = 0.0


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
    bad = PartitionCertificate(B=(0, 1, 2), N=(), x_hat=np.zeros(2), y_hat=y,
                               t=0.3, min_slack_N=None, min_y_hat=1e-17)
    assert np.abs(inst.A.T @ y).max() <= 1e-17
    check = verify_partition(inst, bad)
    assert not check.ok
    assert check.metrics["weight_margin"] < 0.0
    assert any(msg.startswith("y_hat does not prove B tight") for msg in check.failures)


def test_overlapping_blocks_rejected_at_construction():
    with pytest.raises(ValueError):
        PartitionCertificate(B=(0, 1), N=(1, 2), x_hat=np.zeros(2),
                             y_hat=np.full(2, 0.5), t=0.5,
                             min_slack_N=None, min_y_hat=None)


def test_ambiguous_index_carries_row_indices():
    err = AmbiguousIndex("cannot classify", indices=(3, 7))
    assert isinstance(err, HoffboundError)
    assert err.indices == (3, 7)


def test_untrusted_margin_raises_after_one_solve(monkeypatch):
    real = hoffbound.partition.solve_partition_lp
    seen = []

    def counted(block, cfg, accept):
        seen.append(cfg)
        return real(block, cfg, accept)

    # the starting point certifies C4; the converged LP takes more steps
    plain = compute_partition(instance(C4), SolverConfig())
    assert plain.lp_iterations == 0 < real(TightBlock(C4), SolverConfig()).iterations
    monkeypatch.setattr(hoffbound.partition, "solve_partition_lp", counted)
    monkeypatch.setattr(hoffbound.partition, "weight_margin", lambda block, y: 0.0)
    with pytest.raises(AmbiguousIndex, match="margin rule"):
        compute_partition(instance(C4), SolverConfig())
    assert len(seen) == 1


def test_partition_covers_all_rows_on_random_instances():
    for seed in range(12):
        inst = instance(gaussian_matrix(200 + seed))
        cert = compute_partition(inst)
        assert sorted(cert.B + cert.N) == list(range(inst.m))
        assert verify_partition(inst, cert).ok
        # the certified split is the converged LP's support split, found
        # in fewer steps
        sol = solve_partition_lp(TightBlock(inst.A))
        assert cert.B == tuple(np.flatnonzero(sol.y > sol.s))
        assert cert.lp_iterations < sol.iterations
        assert cert.t > 0.0


def test_partition_is_permutation_equivariant():
    A = gaussian_matrix(42)
    inst = instance(A)
    cert = compute_partition(inst)
    perm = np.random.default_rng(7).permutation(A.shape[0])
    cert_p = compute_partition(instance(A[perm]))
    assert {int(perm[i]) for i in cert_p.B} == set(cert.B)
    assert {int(perm[i]) for i in cert_p.N} == set(cert.N)
