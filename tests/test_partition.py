"""Tight/slack row partition certificates and their independent verification."""

import dataclasses

import numpy as np
import pytest

import hoffbound.partition
from hoffbound import (
    AmbiguousIndex,
    HoffboundError,
    PartitionCertificate,
    SolverConfig,
    compute_partition,
    verify_partition,
)

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
    assert cert.t == pytest.approx(0.2, abs=1e-6)


def test_all_tight_instance():
    inst = instance(np.array([[1.0], [-1.0]]))
    cert = compute_partition(inst)
    assert cert.B == (0, 1)
    assert cert.N == ()
    assert np.allclose(cert.y_hat, [0.5, 0.5], atol=1e-8)
    assert np.allclose(cert.x_hat, 0.0)
    assert cert.min_slack_N is None
    assert cert.t == pytest.approx(0.5, abs=1e-6)


def test_mixed_instance():
    cert = compute_partition(instance(C4))
    assert cert.B == (0, 1)
    assert cert.N == (2,)
    assert cert.x_hat[0] == pytest.approx(0.0, abs=1e-8)
    assert cert.x_hat[1] == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(cert.y_hat, [0.5, 0.5], atol=1e-8)
    assert cert.t == pytest.approx(1.0 / 3.0, abs=1e-6)
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


def test_overlapping_blocks_rejected_at_construction():
    with pytest.raises(ValueError):
        PartitionCertificate(B=(0, 1), N=(1, 2), x_hat=np.zeros(2),
                             y_hat=np.full(2, 0.5), t=0.5,
                             min_slack_N=None, min_y_hat=None)


def test_ambiguous_index_carries_row_indices():
    err = AmbiguousIndex("cannot classify", indices=(3, 7))
    assert isinstance(err, HoffboundError)
    assert err.indices == (3, 7)


def test_untrusted_margin_is_retried_100x_tighter(monkeypatch):
    real = hoffbound.partition.solve_partition_lp
    seen = []

    def first_margin_zero(inst, cfg):
        seen.append(cfg)
        sol = real(inst, cfg)
        return dataclasses.replace(sol, t=0.0) if len(seen) == 1 else sol

    plain = compute_partition(instance(C4), SolverConfig())
    assert not plain.retried
    assert plain.lp_iterations == real(instance(C4), SolverConfig()).iterations > 0
    monkeypatch.setattr(hoffbound.partition, "solve_partition_lp", first_margin_zero)
    cert = compute_partition(instance(C4), SolverConfig())
    assert (cert.B, cert.N) == ((0, 1), (2,))
    assert len(seen) == 2
    assert seen[1].feas_tol == pytest.approx(1e-11, rel=1e-12)
    assert seen[1].opt_tol == pytest.approx(1e-10, rel=1e-12)
    # the retry shows in the certificate, and so in the JSON report
    assert cert.retried
    assert cert.lp_iterations > plain.lp_iterations


def test_partition_covers_all_rows_on_random_instances():
    for seed in range(12):
        inst = instance(gaussian_matrix(200 + seed))
        cert = compute_partition(inst)
        assert sorted(cert.B + cert.N) == list(range(inst.m))
        assert verify_partition(inst, cert).ok
        assert 0.0 < cert.t <= 1.0 / inst.m + 1e-9


def test_partition_is_permutation_equivariant():
    A = gaussian_matrix(42)
    inst = instance(A)
    cert = compute_partition(inst)
    perm = np.random.default_rng(7).permutation(A.shape[0])
    cert_p = compute_partition(instance(A[perm]))
    assert {int(perm[i]) for i in cert_p.B} == set(cert.B)
    assert {int(perm[i]) for i in cert_p.N} == set(cert.N)
