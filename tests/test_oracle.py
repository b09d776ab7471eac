"""Sampled lower bounds: ratio evaluation, directed candidates, closed forms."""

import math

import numpy as np
import pytest

from hoffbound import (
    HoffboundError,
    bound_h0,
    compute_partition,
    directed_candidates,
    lower_bound_monte_carlo,
    ratio_at,
)

from helpers import (
    benchmark_case,
    closed_form_H0,
    degenerate_matrix,
    gaussian_matrix,
    instance,
    planted_mixed_matrix,
)

SQRT5 = 2.23606797749979
C4 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])


def _all_candidates(inst, num_samples, seed, x_hat=None):
    """Every candidate the oracle draws, in order: the directed family, then
    the unit Philox draws."""
    cands = directed_candidates(inst, x_hat)
    for k in range(num_samples):
        u = np.random.Generator(np.random.Philox(key=[seed, k])).standard_normal(inst.n)
        cands.append(u / np.linalg.norm(u))
    return cands


def test_ratio_at_known_direction():
    inst = instance(-np.eye(5))
    # u = -1: distance to the nonnegative orthant is sqrt(5), violation 1
    assert ratio_at(inst, -np.ones(5)) == pytest.approx(SQRT5, rel=1e-9)


def test_ratio_is_zero_inside_the_cone():
    inst = instance(-np.eye(5))
    assert ratio_at(inst, np.ones(5)) == 0.0
    assert ratio_at(inst, np.zeros(5)) == 0.0


def test_ratio_never_exceeds_certified_total():
    rng = np.random.default_rng(71)
    for seed in range(6):
        inst = instance(gaussian_matrix(400 + seed))
        total = bound_h0(inst).total
        for _ in range(3):
            u = rng.standard_normal(inst.n)
            assert ratio_at(inst, u) <= total + 1e-6 * (1 + total)


def test_directed_candidates_are_deterministic():
    inst = instance(gaussian_matrix(55))
    a = directed_candidates(inst)
    b = directed_candidates(inst)
    assert len(a) == len(b)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_directed_candidates_include_negated_rows():
    A = np.array([[3.0, 4.0], [0.0, -2.0]])
    cands = directed_candidates(instance(A))
    rows = {tuple(np.round(c, 12)) for c in cands}
    assert tuple(np.round([-0.6, -0.8], 12)) in rows
    assert tuple(np.round([0.0, 1.0], 12)) in rows


def test_directed_candidates_include_negated_witness():
    inst = instance(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]))
    x_hat = compute_partition(inst).x_hat
    cands = directed_candidates(inst, x_hat=x_hat)
    assert any(np.allclose(c, -x_hat, atol=1e-12) for c in cands)


def test_directed_candidates_are_capped_on_large_instances():
    rng = np.random.default_rng(9)
    inst = instance(rng.standard_normal((80, 3)))
    cands = directed_candidates(inst, x_hat=np.array([1.0, 0.0, 0.0]))
    assert 64 <= len(cands) <= 64 + 1 + 128


def test_monte_carlo_is_seed_deterministic():
    inst = instance(gaussian_matrix(77))
    a = lower_bound_monte_carlo(inst, num_samples=12, seed=4)
    b = lower_bound_monte_carlo(inst, num_samples=12, seed=4)
    assert a.lower_bound == b.lower_bound
    assert np.array_equal(a.best_u, b.best_u)
    assert (a.samples_used, a.screened_feasible, a.pruned, a.failed) == \
        (b.samples_used, b.screened_feasible, b.pruned, b.failed)
    assert a.seed == 4


def test_monte_carlo_counts_directed_plus_random():
    inst = instance(-np.eye(5))
    cands = directed_candidates(inst)
    res = lower_bound_monte_carlo(inst, num_samples=8, seed=3)
    assert res.samples_used == len(cands) + 8
    counts = (res.screened_feasible, res.pruned, res.failed)
    assert min(counts) >= 0 and sum(counts) <= res.samples_used


def test_monte_carlo_best_u_achieves_the_bound():
    inst = instance(gaussian_matrix(88))
    res = lower_bound_monte_carlo(inst, num_samples=10, seed=1)
    assert res.best_u is not None
    assert ratio_at(inst, res.best_u) == pytest.approx(res.lower_bound, rel=1e-12)


def test_monte_carlo_skips_failed_projections(monkeypatch):
    import hoffbound.oracle as oracle_mod
    from hoffbound import SolverStall

    def always_fails(instance, u):
        raise SolverStall("projection did not converge")

    monkeypatch.setattr(oracle_mod, "ratio_at", always_fails)
    inst = instance(-np.eye(3))
    res = oracle_mod.lower_bound_monte_carlo(inst, num_samples=4, seed=0)
    assert res.lower_bound == 0.0
    assert res.best_u is None
    # every violating candidate is tried and fails; the feasible ones are
    # pruned, since their cap of 0 cannot beat a best of 0
    violating = sum(float((inst.A @ u).max()) > 0.0
                    for u in _all_candidates(inst, 4, 0))
    assert 0 < violating < res.samples_used
    assert (res.failed, res.pruned, res.screened_feasible) == \
        (violating, res.samples_used - violating, 0)


def test_nnls_iteration_cap_skips_candidates(monkeypatch):
    import types

    import scipy.optimize
    from hoffbound import SolverStall

    def capped(A, b, **kwargs):
        raise RuntimeError("Maximum number of iterations reached.")

    # a capped nnls fit is redone by BVLS; only a failed refit skips
    monkeypatch.setattr(scipy.optimize, "nnls", capped)
    inst = instance(-np.eye(3))
    assert ratio_at(inst, -np.ones(3)) == pytest.approx(np.sqrt(3.0), rel=1e-12)
    monkeypatch.setattr(scipy.optimize, "lsq_linear",
                        lambda A, b, **kwargs: types.SimpleNamespace(x=np.zeros(A.shape[1])))
    with pytest.raises(SolverStall):
        ratio_at(inst, -np.ones(3))
    res = lower_bound_monte_carlo(inst, num_samples=4, seed=0)
    assert res.lower_bound == 0.0
    assert res.failed > 0 and res.screened_feasible == 0
    assert res.failed + res.pruned == res.samples_used


def test_monte_carlo_respects_certified_totals():
    for seed in range(8):
        inst = instance(gaussian_matrix(500 + seed))
        rep = bound_h0(inst)
        x_hat = rep.partition.x_hat if rep.partition is not None else None
        res = lower_bound_monte_carlo(inst, num_samples=8, seed=seed, x_hat=x_hat)
        assert res.lower_bound <= rep.total + 1e-6 * (1 + rep.total)


@pytest.mark.parametrize("c", [1e-12, 1e-14])
def test_screening_floor_scales_with_the_matrix(c):
    # a floor of 1e-12 max(1, ||A||_F) once screened out every candidate
    low = lower_bound_monte_carlo(instance(c * C4), num_samples=8, seed=0)
    assert low.lower_bound * c == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert low.screened_feasible + low.pruned + low.failed < low.samples_used


def _exhaustive(inst, cands):
    ratios = []
    for u in cands:
        try:
            ratios.append(ratio_at(inst, u))
        except HoffboundError:
            ratios.append(0.0)
    return ratios


def _pruning_cases():
    for seed in range(4):
        yield pytest.param(gaussian_matrix(900 + seed), seed, id=f"gaussian-{seed}")
    for seed in range(5):
        yield pytest.param(degenerate_matrix(910 + seed), seed, id=f"degenerate-{seed}")
    for seed, (m, n) in enumerate([(30, 8), (60, 10)]):
        yield pytest.param(planted_mixed_matrix(920 + seed, m, n), seed,
                           id=f"planted-{m}x{n}")
    # the benchmark case where a margin on best's side loses the last bit
    case = benchmark_case("suite", 1, "gaussian-26")
    yield pytest.param(case.A, case.oracle_seed, id="suite-1-gaussian-26")


@pytest.mark.parametrize("A, seed", list(_pruning_cases()))
def test_pruning_matches_the_exhaustive_maximum(A, seed):
    inst = instance(A)
    part = bound_h0(inst).partition
    x_hat = None if part is None else part.x_hat
    res = lower_bound_monte_carlo(inst, num_samples=16, seed=seed, x_hat=x_hat)
    cands = _all_candidates(inst, 16, seed, x_hat)
    ratios = _exhaustive(inst, cands)
    assert res.samples_used == len(cands)
    assert res.lower_bound == max(ratios)
    if res.lower_bound > 0.0:
        winners = [u for u, r in zip(cands, ratios) if r == res.lower_bound]
        assert any(np.array_equal(res.best_u, u) for u in winners)
    assert res.pruned > 0


def test_closed_form_values():
    assert closed_form_H0(np.zeros((2, 3))) == 0.0
    assert closed_form_H0(np.array([[3.0, 4.0]])) == pytest.approx(0.2, rel=1e-15)
    assert closed_form_H0(np.array([[0.0, -2.0]])) == pytest.approx(0.5, rel=1e-15)
    assert closed_form_H0(-np.eye(5)) == pytest.approx(SQRT5, rel=1e-15)
    got = closed_form_H0(np.array([[-2.0, 0.0], [0.0, -3.0]]))
    assert got == pytest.approx(math.sqrt(13.0) / 6.0, rel=1e-14)


def test_closed_form_declines_unsupported_shapes():
    assert closed_form_H0(np.array([[1.0], [-1.0]])) is None
    # a positive diagonal entry breaks the negative-diagonal pattern
    assert closed_form_H0(np.array([[2.0, 0.0], [0.0, -3.0]])) is None
    assert closed_form_H0(np.array([[-1.0, 0.5], [0.0, -1.0]])) is None
