"""Sampled lower bounds: ratio evaluation, directed candidates, closed forms."""

import math
import sys
import threading

import numpy as np
import pytest

from hoffbound import HoffboundError, bound_h0, lower_bound_monte_carlo
from hoffbound.io import SANDWICH_RTOL
from hoffbound.oracle import directed_candidates, ratio_at
from hoffbound.partition import compute_partition

from helpers import (
    C4,
    benchmark_case,
    closed_form_H0,
    degenerate_matrix,
    directed_candidates_loop,
    gaussian_matrix,
    instance,
    planted_mixed_matrix,
)

SQRT5 = 2.23606797749979


def _philox(seed):
    """A generator over the Philox stream with key words (seed mod 2^64, 0)."""
    key = np.array([seed % 2**64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _all_candidates(inst, num_samples, seed, x_hat=None):
    """Every candidate the oracle draws, in order: the directed family, then
    the unit draws of one Philox stream."""
    cands = list(directed_candidates(inst, x_hat))
    gen = _philox(seed)
    for _ in range(num_samples):
        u = gen.standard_normal(inst.n)
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


def _directed_cases():
    rng = np.random.default_rng(31)
    for seed in range(4):
        yield pytest.param(gaussian_matrix(600 + seed), id=f"gaussian-{seed}")
    half = rng.standard_normal((6, 4))
    yield pytest.param(np.vstack([half, half, -half]), id="duplicated-rows")
    zero_rows = rng.standard_normal((9, 3))
    zero_rows[[0, 4, 8]] = 0.0
    yield pytest.param(zero_rows, id="zero-rows")
    yield pytest.param(np.zeros((3, 2)), id="all-zero")
    yield pytest.param(rng.standard_normal((90, 5)), id="m-above-64")
    yield pytest.param(rng.standard_normal((7, 1)), id="one-column")
    # the benchmark case whose family holds 129 pair vectors
    yield pytest.param(benchmark_case("suite", 1, "degenerate-0").A, id="suite-1-degenerate-0")


@pytest.mark.parametrize("A", list(_directed_cases()))
@pytest.mark.parametrize("witness", ["absent", "zero", "given"])
def test_directed_candidates_match_the_reference_loop(A, witness):
    n = A.shape[1]
    x_hat = {"absent": None, "zero": np.zeros(n),
             "given": np.linspace(-1.0, 2.0, n)}[witness]
    got = directed_candidates(instance(A), x_hat)
    want = directed_candidates_loop(A, x_hat)
    assert got.shape == (len(want), n)
    # bitwise, signed zeros included
    assert got.tobytes() == np.array(want, dtype=float).reshape(-1, n).tobytes()


def test_directed_family_can_exceed_the_pair_cap_by_one():
    inst = instance(benchmark_case("suite", 1, "degenerate-0").A)
    x_hat = compute_partition(inst).x_hat
    base = np.count_nonzero(np.linalg.norm(inst.A[:64], axis=1) > 1e-300) + 1
    assert len(directed_candidates(inst, x_hat)) == base + 129


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 + 3])
def test_gaussian_draws_follow_the_keyed_philox_stream(seed):
    from hoffbound.oracle import _gaussian_draws

    n = 6
    got = np.empty((16, n))
    _gaussian_draws(seed, got)
    gen = _philox(seed)
    for k in range(16):
        u = gen.standard_normal(n)
        assert got[k].tobytes() == (u / np.linalg.norm(u)).tobytes(), k


@pytest.mark.parametrize("seed", [0, 7, -1, 2**63 + 5])
def test_gaussian_draws_are_prefix_stable_and_keep_the_first_row(seed):
    # row 0 is the first draw of a fresh generator keyed (seed mod 2^64, 0),
    # as it was when each row k had its own key (seed mod 2^64, k)
    from hoffbound.oracle import _gaussian_draws

    n = 5
    short, long = np.empty((3, n)), np.empty((16, n))
    _gaussian_draws(seed, short)
    _gaussian_draws(seed, long)
    assert short.tobytes() == long[:3].tobytes()
    u = _philox(seed).standard_normal(n)
    assert long[0].tobytes() == (u / np.linalg.norm(u)).tobytes()


def test_gaussian_draws_keep_every_seed_apart():
    # a key built from a list passes through float64: every negative seed
    # drew what seed 0 draws, and 2^63 + 5 what 2^63 + 6 draws
    from hoffbound.oracle import _gaussian_draws

    seeds = [-1, 0, 2**63 + 5, 2**63 + 6]
    draws = []
    for seed in seeds:
        out = np.empty((4, 5))
        _gaussian_draws(seed, out)
        draws.append(out.tobytes())
    assert len(set(draws)) == len(seeds)


@pytest.mark.parametrize("seed", [np.int64(-1), np.uint64(2**63 + 5), np.int32(7)])
def test_gaussian_draws_take_numpy_integer_seeds(seed):
    from hoffbound.oracle import _gaussian_draws

    got, want = np.empty((4, 5)), np.empty((4, 5))
    _gaussian_draws(seed, got)
    _gaussian_draws(int(seed), want)
    assert got.tobytes() == want.tobytes()
    with pytest.raises(TypeError):
        _gaussian_draws(7.0, got)


def _in_threads(targets, timeout=60.0):
    """Run each callable in its own thread, all started together with a short
    switch interval, and return their results in order."""
    barrier = threading.Barrier(len(targets))
    results = [None] * len(targets)

    def run(i):
        barrier.wait()
        results[i] = targets[i]()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(targets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_gaussian_draws_are_per_thread():
    from hoffbound.oracle import _gaussian_draws

    seeds = [3, 11, 2**63 + 5, 1007]

    def draws(seed):
        rows = []
        for _ in range(200):
            out = np.empty((16, 6))
            _gaussian_draws(seed, out)
            rows.append(out.tobytes())
        return rows

    want = [draws(seed)[0] for seed in seeds]
    got = _in_threads([lambda seed=seed: draws(seed) for seed in seeds])
    for seed, rows, ref in zip(seeds, got, want):
        assert rows == [ref] * len(rows), seed


def test_monte_carlo_in_a_worker_thread_matches_the_main_thread():
    case = benchmark_case("suite", 1, "gaussian-7")
    inst = instance(case.A)
    x_hat = bound_h0(inst).partition.x_hat

    def run():
        res = lower_bound_monte_carlo(inst, num_samples=16, seed=case.oracle_seed, x_hat=x_hat)
        return (res.lower_bound, res.best_u.tobytes(), res.samples_used,
                res.screened_feasible, res.pruned, res.failed, res.seed)

    assert _in_threads([run])[0] == run()


# suite seed 1 outputs: gaussian-7 keeps its first 128 pair vectors,
# degenerate-0 drops one and holds 129, so each pins one path of the pair
# stage and the draws after it
@pytest.mark.parametrize("name, counts, lower_bound, best_u", [
    ("gaussian-7", (156, 0, 155, 0), 3.239496391974123,
     "aae37b166d43e33f07e952202c18a6bf1d939633a6cfb3bfdf37a2558869d0bf"
     "eea9c20ceb0fbfbf80535bf76dbbd73f625cdaeba2e2d1bfdc3b38832d4ec23f"
     "8356977df2cde13f49fc29ba04fbaebf"),
    ("degenerate-0", (158, 0, 155, 0), 2.140894707982545,
     "a0bef8010eade0bf49fc538147fad7bf6bc25d850deddebf970acc0c446ee2bf"
     "cb53b860b157c3bf"),
])
def test_monte_carlo_outputs_are_pinned_on_both_pair_paths(name, counts, lower_bound, best_u):
    case = benchmark_case("suite", 1, name)
    inst = instance(case.A)
    x_hat = bound_h0(inst).partition.x_hat
    res = lower_bound_monte_carlo(inst, num_samples=16, seed=case.oracle_seed, x_hat=x_hat)
    assert (res.samples_used, res.screened_feasible, res.pruned, res.failed) == counts
    assert res.lower_bound == lower_bound
    assert res.best_u.tobytes().hex() == best_u


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
        res = lower_bound_monte_carlo(inst, num_samples=8, seed=seed,
                                      x_hat=rep.partition.x_hat)
        assert res.lower_bound <= rep.total + SANDWICH_RTOL * (1 + rep.total)


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
    # (A, seed, witness): "partition" passes the report's x_hat, "none" no
    # witness and "nan" a NaN vector
    for seed in range(4):
        yield pytest.param(gaussian_matrix(900 + seed), seed, "partition",
                           id=f"gaussian-{seed}")
    for seed in range(5):
        yield pytest.param(degenerate_matrix(910 + seed), seed, "partition",
                           id=f"degenerate-{seed}")
    for seed, (m, n) in enumerate([(30, 8), (60, 10)]):
        yield pytest.param(planted_mixed_matrix(920 + seed, m, n), seed, "partition",
                           id=f"planted-{m}x{n}")
    # the benchmark case where a margin on best's side loses the last bit
    case = benchmark_case("suite", 1, "gaussian-26")
    yield pytest.param(case.A, case.oracle_seed, "partition", id="suite-1-gaussian-26")
    # case N: every row slack, so the witness cone tightens the caps
    rng = np.random.default_rng(930)
    for m, n in [(3, 6), (5, 8)]:
        yield pytest.param(rng.standard_normal((m, n)), m, "partition",
                           id=f"case-n-{m}x{n}")
    for name in ("gaussian-2", "gaussian-7", "degenerate-14"):
        case = benchmark_case("suite", 1, name)
        yield pytest.param(case.A, case.oracle_seed, "partition", id=f"suite-1-{name}")
    # one column, every row tight: every candidate is +1 or -1
    case = benchmark_case("suite", 1, "gaussian-0")
    yield pytest.param(case.A, case.oracle_seed, "partition", id="suite-1-gaussian-0")
    yield pytest.param(np.array([[1.0], [-2.0], [0.5], [-0.25]]), 3, "partition",
                       id="one-column")
    # no cone: the cap falls back to ||u||
    case = benchmark_case("suite", 1, "degenerate-2")  # the general branch
    yield pytest.param(case.A, case.oracle_seed, "partition", id="suite-1-degenerate-2")
    case = benchmark_case("suite", 1, "gaussian-7")
    yield pytest.param(case.A, case.oracle_seed, "none", id="suite-1-gaussian-7-none")
    yield pytest.param(case.A, case.oracle_seed, "nan", id="suite-1-gaussian-7-nan")


@pytest.mark.parametrize("A, seed, witness", list(_pruning_cases()))
def test_pruning_matches_the_exhaustive_maximum(A, seed, witness, monkeypatch):
    import hoffbound.oracle as oracle_mod

    inst = instance(A)
    part = bound_h0(inst).partition
    x_hat = {"partition": None if part is None else part.x_hat, "none": None,
             "nan": np.full(inst.n, np.nan)}[witness]
    projected = []
    project = oracle_mod.project_onto_cone

    def recording(instance, u):
        projected.append(u.tobytes())
        return project(instance, u)

    monkeypatch.setattr(oracle_mod, "project_onto_cone", recording)
    res = lower_bound_monte_carlo(inst, num_samples=16, seed=seed, x_hat=x_hat)
    monkeypatch.undo()
    cands = _all_candidates(inst, 16, seed, x_hat)
    ratios = _exhaustive(inst, cands)
    assert res.samples_used == len(cands)
    assert res.lower_bound == max(ratios)
    if res.lower_bound > 0.0:
        winners = [u for u, r in zip(cands, ratios) if r == res.lower_bound]
        assert any(np.array_equal(res.best_u, u) for u in winners)
    assert res.pruned > 0
    # each distinct candidate is projected at most once
    assert len(projected) == len(set(projected))
    if inst.n == 1:
        assert len(projected) <= 2 < res.samples_used

    # the witness cone caps some candidates below ||u|| exactly when the
    # witness is passed and every nonzero row is slack (zero rows are tight)
    U = np.array(cands)
    caps = oracle_mod._distance_caps(inst, U, x_hat)
    norms = np.linalg.norm(U, axis=1)
    if witness == "partition" and part is not None and not np.any(A[list(part.B)]):
        assert np.any(caps < norms)
        assert np.all(caps <= norms)
    else:
        assert np.array_equal(caps, norms)


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


def test_negative_sample_count_is_rejected():
    with pytest.raises(ValueError, match="num_samples must be nonnegative"):
        lower_bound_monte_carlo(instance(C4), num_samples=-1)


def test_a_draw_below_the_violation_floor_is_screened_without_a_projection(monkeypatch):
    # row 0 has norm 1e-13, so a draw with u_0, u_1 > 0 violates row 0
    # alone, by at most 1e-13 ||u||: positive in the batched product, which
    # gives it a large cap, yet below ratio_at's floor 1e-12 ||A||_F ||u||
    import hoffbound.oracle as oracle_mod

    inst = instance(np.array([[1e-13, 0.0], [0.0, -1.0]]))
    projected = []
    real = oracle_mod.project_onto_cone
    monkeypatch.setattr(oracle_mod, "project_onto_cone",
                        lambda i, u: projected.append(u) or real(i, u))
    res = lower_bound_monte_carlo(inst, num_samples=16, seed=0)
    assert res.screened_feasible > 0 and res.failed == 0
    assert len(projected) == res.samples_used - res.screened_feasible - res.pruned
    assert all(u[0] <= 0.0 or u[1] <= 0.0 for u in projected)
