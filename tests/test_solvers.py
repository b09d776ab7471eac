"""Solver configuration, the partition LP's engine, and the four optimization programs."""

import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hoffbound import (
    HoffboundError,
    InfeasibleQP,
    NoInteriorPoint,
    ProblemInstance,
    SolverConfig,
    SolverStall,
    bound_h0,
)
import hoffbound.solvers.ipm
from hoffbound.audit import verify_partition
from hoffbound.numerics import NumericalFailure, TightBlock
from hoffbound.partition import compute_partition, slack_margin, weight_margin
from hoffbound.solvers.programs import (
    LP_FEAS_TOL,
    OPT_TOL,
    project_onto_cone,
    solve_analytic_center,
    solve_min_norm_qp,
)

from helpers import (
    benchmark_matrix,
    degenerate_matrix,
    gaussian_matrix,
    instance,
    optimal_lp,
    planted_mixed_matrix,
    planted_mixed_split,
)


# --- configuration ---------------------------------------------------------

def test_config_defaults():
    # no tolerance is a setting: the config is empty and OPT_TOL a constant
    assert dataclasses.fields(SolverConfig) == ()
    assert OPT_TOL == 1e-8
    with pytest.raises(TypeError):
        SolverConfig(opt_tol=1e-8)


# --- minimum-norm margin QP -------------------------------------------------

def test_min_norm_qp_single_row():
    # min ||z|| s.t. 3 z_0 + 4 z_1 >= 1 has solution (0.12, 0.16), norm 0.2
    G = np.array([[3.0, 4.0]])
    sol = solve_min_norm_qp(G)
    assert np.allclose(sol.z, [0.12, 0.16], atol=1e-9)
    assert sol.norm == pytest.approx(0.2, abs=1e-9)
    assert (G @ sol.z).min() >= 1.0


def test_min_norm_qp_identity_rows():
    sol = solve_min_norm_qp(np.eye(5))
    assert sol.norm == pytest.approx(np.sqrt(5.0), rel=1e-9)
    assert np.allclose(sol.z, np.ones(5), atol=1e-7)


def test_min_norm_qp_dual_gap_is_small():
    sol = solve_min_norm_qp(np.array([[3.0, 4.0], [1.0, -1.0], [0.5, 2.0]]))
    # dual_lower bounds the optimal squared norm from below
    assert sol.dual_lower <= sol.norm ** 2 * (1 + 1e-9) + 1e-12
    assert sol.norm ** 2 - sol.dual_lower <= 1e-6 * (1 + sol.norm ** 2)


def test_min_norm_qp_scale_invariance():
    G = np.array([[3.0, 4.0], [1.0, -2.0]])
    a = solve_min_norm_qp(G)
    b = solve_min_norm_qp(1000.0 * G)
    assert b.norm * 1000.0 == pytest.approx(a.norm, rel=1e-12)


def test_min_norm_qp_feasible_margins():
    rng = np.random.default_rng(5)
    G = rng.standard_normal((4, 6))
    sol = solve_min_norm_qp(G)
    assert np.min(G @ sol.z) >= 1.0 - 1e-9


def test_min_norm_qp_polish_reaches_closed_form():
    # both rows are active at z* = (1, 2e4); the raw least-distance fit fixes
    # z only to about eps ||z||^2, so this needs the passive-set polish
    sol = solve_min_norm_qp(np.array([[1.0, 0.0], [-1.0, 1e-4]]))
    assert np.allclose(sol.z, [1.0, 2e4], rtol=1e-12, atol=0.0)
    assert sol.norm == pytest.approx(np.hypot(1.0, 2e4), rel=1e-12)


def test_min_norm_qp_dual_bound_holds_in_floating_point():
    # the fit's multipliers meet the optimum, so without its rounding
    # allowance the dual bound lands above ||z||^2 on 5 of these 50
    for seed in range(50):
        rng = np.random.default_rng(seed)
        sol = solve_min_norm_qp(rng.standard_normal((int(rng.integers(1, 6)), 5)))
        gap = sol.norm ** 2 - sol.dual_lower
        assert 0.0 <= gap <= 1e-12 * (1.0 + sol.norm ** 2)


def test_min_norm_qp_infeasible_inputs():
    with pytest.raises(InfeasibleQP):
        solve_min_norm_qp(np.array([[1.0], [-1.0]]))  # z >= 1 and -z >= 1
    with pytest.raises(InfeasibleQP):
        solve_min_norm_qp(np.zeros((2, 2)))
    with pytest.raises(InfeasibleQP):
        solve_min_norm_qp(np.zeros((0, 3)))


def test_an_infeasible_fit_carries_its_farkas_weights():
    # z >= 1 and -z >= 1 in the first coordinate: u = (1/2, 1/2) has G'u = 0
    G = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(InfeasibleQP) as exc:
        solve_min_norm_qp(G)
    u = exc.value.weights
    assert u.shape == (2,) and (u >= 0.0).all()
    assert u.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(G.T @ u) <= 1e-15
    # errors raised before any fit carry none
    with pytest.raises(InfeasibleQP) as exc:
        solve_min_norm_qp(np.zeros((2, 2)))
    assert exc.value.weights is None


def test_min_norm_qp_tells_an_underflowing_matrix_from_a_zero_one():
    with pytest.raises(InfeasibleQP, match="zero matrix"):
        solve_min_norm_qp(np.zeros((1, 1)))
    # the row norm of 1e-200 underflows to 0, but the matrix is not zero
    with pytest.raises(InfeasibleQP, match="underflows") as exc:
        solve_min_norm_qp(np.array([[1e-200]]))
    assert "zero matrix" not in str(exc.value)


def test_min_norm_qp_rejects_a_point_whose_norm_overflows():
    # z = 1e155 is feasible, but ||z|| is formed as inf
    with pytest.raises(InfeasibleQP, match="beyond double precision"):
        solve_min_norm_qp(np.array([[1e-155]]))


# --- analytic center ---------------------------------------------------------

def test_barrier_program_runs_damped_newton():
    # a zero tight block leaves the probability simplex in R^2, whose
    # analytic center is (1/2, 1/2)
    sol = solve_analytic_center(TightBlock(np.zeros((2, 1))))
    assert np.allclose(sol.y, [0.5, 0.5], atol=1e-9)


def test_analytic_center_opposing_rows():
    sol = solve_analytic_center(TightBlock(np.array([[1.0], [-1.0]])))
    assert np.allclose(sol.y, [0.5, 0.5], atol=1e-10)
    assert sol.y.sum() == pytest.approx(1.0, abs=1e-12)


def test_analytic_center_with_free_row():
    # slice {y : y_0 = y_1, sum y = 1} has center (1/3, 1/3, 1/3)
    sol = solve_analytic_center(TightBlock(np.array([[1.0], [-1.0], [0.0]])))
    assert np.allclose(sol.y, np.ones(3) / 3.0, atol=1e-10)
    assert sol.grad_norm <= 1e-8


def test_analytic_center_scale_invariance():
    A = np.array([[2.0, 1.0], [-2.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    a = solve_analytic_center(TightBlock(A))
    b = solve_analytic_center(TightBlock(700.0 * A))
    assert np.allclose(a.y, np.full(4, 0.25), atol=1e-9)
    assert np.allclose(a.y, b.y, atol=1e-11)


def test_analytic_center_requires_rows():
    with pytest.raises(ValueError):
        solve_analytic_center(TightBlock(np.zeros((0, 2))))


def test_analytic_center_where_the_slice_min_norm_point_is_not_positive():
    # the slice's minimum-norm point has y_0 = -0.047; Newton on the dual
    # starts from the uniform point and never needs a point on the slice
    A = np.array([[10.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]]).T
    sol = solve_analytic_center(TightBlock(A))
    assert sol.y.min() > 0.0
    assert sol.y.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.abs(A.T @ sol.y).max() <= 1e-12
    assert sol.grad_norm <= 1e-12
    # optimality: 1/y = nu + a_i mu for some (mu, nu)
    _assert_in_range(np.column_stack([A, np.ones(10)]), 1.0 / sol.y, 1e-12)


def test_analytic_center_empty_slice():
    # y_0 + y_1 = 0 (1 in the range of A) and y_0 = 0 (an unbounded dual)
    # leave no interior point with sum y = 1; neither case may warn
    for A in ([[1.0], [1.0]], [[1.0], [0.0]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoInteriorPoint):
                solve_analytic_center(TightBlock(np.array(A)))


def _assert_in_range(K, b, rtol):
    coef = np.linalg.lstsq(K, b, rcond=None)[0]
    assert np.linalg.norm(K @ coef - b) <= rtol * np.linalg.norm(b)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), k=st.integers(1, 10),
       dup=st.integers(0, 6))
def test_analytic_center_on_scaled_tight_blocks(seed, n, k, dup):
    # +-r row pairs and signed duplicates, every row with its own scale in
    # 1e+-4: the slice always has a positive point
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((k, n))
    signs = rng.choice([-1.0, 1.0], size=(dup, 1))
    rows = np.vstack([R, -R, signs * R[rng.integers(0, k, size=dup)]])
    A = rows * 10.0 ** rng.uniform(-4.0, 4.0, size=(rows.shape[0], 1))
    y = solve_analytic_center(TightBlock(A)).y
    assert y.min() > 0.0
    assert y.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(A.T @ y).max() <= 1e-8 * np.linalg.norm(A)  # the audit's budget
    _assert_in_range(np.column_stack([A, np.ones(y.size)]), 1.0 / y, 1e-8)
    perm = rng.permutation(y.size)
    y_perm = solve_analytic_center(TightBlock(A[perm])).y
    assert np.allclose(y_perm, y[perm], rtol=1e-6, atol=0.0)


def _reference_center(block):
    """The center's Newton loop on ``np.linalg.qr`` and
    ``scipy.linalg.solve_triangular``: ``(y, iterations)``, or None where it
    leaves the domain or reaches the cap."""
    M = block.WV
    p, r = M.shape
    N = np.concatenate([M, np.ones((p, 1))], axis=1)
    e = np.zeros(r + 1)
    e[r] = 1.0
    z = p * e
    y = np.full(p, 1.0 / p)
    for it in range(1, hoffbound.solvers.ipm.MAX_ITERS + 1):
        g = N.T @ y - e
        R = np.linalg.qr(y[:, None] * N, mode="r")
        w = scipy.linalg.solve_triangular(R, g, trans="T", check_finite=False)
        lam = np.linalg.norm(w)
        dz = scipy.linalg.solve_triangular(R, w, check_finite=False)
        z = z + (dz if lam <= 0.25 else dz / (1.0 + lam))
        Nz = N @ z
        if not np.all(Nz > 0.0):
            return None
        y = 1.0 / Nz
        if lam <= OPT_TOL:
            return y / y.sum(), it
    return None


def _center_blocks():
    for name in ("gaussian-0", "gaussian-5", "gaussian-52", "gaussian-59",
                 "degenerate-1", "degenerate-8", "degenerate-16"):
        yield pytest.param(benchmark_matrix("suite", 1, name), id=f"suite-1-{name}")
    # G minus its component along a positive y0, so that A'y0 = 0: the slice
    # has a positive point, and rows are scaled over four decades
    rng = np.random.default_rng(77)
    for k in range(24):
        n = int(rng.integers(1, 13))
        p = int(rng.integers(n + 1, 61))
        G = rng.standard_normal((p, n)) * 10.0 ** rng.uniform(-2.0, 2.0, size=(p, 1))
        y0 = rng.uniform(0.1, 1.0, size=p)
        A = G - np.outer(y0, y0 @ G) / (y0 @ y0)
        yield pytest.param(A, id=f"random-{k}-{p}x{n}")


@pytest.mark.parametrize("A", list(_center_blocks()))
def test_analytic_center_is_bit_identical_to_the_wrapped_lapack_loop(A):
    block = TightBlock(A)
    sol = solve_analytic_center(block)
    ref = _reference_center(block)
    assert ref is not None
    assert np.array_equal(sol.y, ref[0])
    assert sol.iterations == ref[1]


def test_analytic_center_with_a_zero_pivot_raises_numerical_failure(monkeypatch):
    import hoffbound.solvers.programs as programs

    dgeqrf = programs.dgeqrf

    def zero_pivot(a, lwork=None):
        qr, tau, work, info = dgeqrf(a, lwork=lwork)
        qr[1, 1] = 0.0
        return qr, tau, work, info

    block = TightBlock(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
    assert solve_analytic_center(block).iterations > 0
    monkeypatch.setattr(programs, "dgeqrf", zero_pivot)
    with pytest.raises(NumericalFailure):
        solve_analytic_center(block)


# --- cone projection ----------------------------------------------------------

def test_projection_onto_nonpositive_quadrant():
    inst = instance(np.eye(2))  # P = {x <= 0}
    res = project_onto_cone(inst, np.array([1.0, 1.0]))
    assert np.allclose(res.point, 0.0, atol=1e-8)
    assert res.distance == pytest.approx(np.sqrt(2.0), rel=1e-9)
    assert res.distance_lower <= res.distance
    assert res.distance_lower == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_projection_partial_clip():
    inst = instance(np.eye(2))
    res = project_onto_cone(inst, np.array([-1.0, 2.0]))
    assert np.allclose(res.point, [-1.0, 0.0], atol=1e-8)
    assert res.distance == pytest.approx(2.0, rel=1e-9)


def test_projection_of_interior_point_is_identity():
    inst = instance(np.eye(2))
    u = np.array([-1.0, -2.0])
    res = project_onto_cone(inst, u)
    # NNLS returns mu = 0 for an interior point, so nothing moves
    assert res.distance == 0.0
    assert res.distance_lower == 0.0
    assert np.array_equal(res.point, u)


def test_projection_of_origin():
    inst = instance(np.eye(2))
    res = project_onto_cone(inst, np.zeros(2))
    assert res.distance == 0.0
    assert np.allclose(res.point, 0.0)


def test_projection_with_only_zero_rows():
    # the cone is the whole space; no fit runs, since scipy's nnls aborts
    # the process on a matrix with no columns
    u = np.array([1.0, -2.0])
    res = project_onto_cone(instance(np.zeros((3, 2))), u)
    assert res.distance == 0.0
    assert res.distance_lower == 0.0
    assert np.array_equal(res.point, u)


def test_projection_feasibility_and_lower_bound():
    rng = np.random.default_rng(17)
    for _ in range(5):
        A = rng.standard_normal((6, 4))
        inst = instance(A)
        u = rng.standard_normal(4) * 3.0
        res = project_onto_cone(inst, u)
        assert (inst.A @ res.point).max(initial=0.0) <= 1e-8 * max(1.0, inst.frobenius_scale)
        assert res.distance_lower <= res.distance + 1e-12


@pytest.mark.parametrize("solve, expected", [
    (lambda: project_onto_cone(instance(np.eye(2)), np.array([1.0, 1.0])).point,
     [0.0, 0.0]),
    (lambda: solve_min_norm_qp(np.array([[3.0, 4.0]])).z, [0.12, 0.16]),
], ids=["projection", "min_norm"])
def test_projection_rejects_a_fit_outside_the_cone(monkeypatch, solve, expected):
    import types

    import scipy.optimize

    # an nnls fit that stops at zero is not stationary (the projection leaves
    # the violating u where it is); the BVLS refit recovers the answer, and
    # the call stalls only when the refit fails too
    monkeypatch.setattr(scipy.optimize, "nnls",
                        lambda A, b, **kwargs: (np.zeros(A.shape[1]), 1.0))
    assert np.allclose(solve(), expected, rtol=0.0, atol=1e-12)
    monkeypatch.setattr(scipy.optimize, "lsq_linear",
                        lambda A, b, **kwargs: types.SimpleNamespace(x=np.zeros(A.shape[1])))
    with pytest.raises(SolverStall):
        solve()


@pytest.mark.parametrize("seed", [196, 551, 671, 1696])
def test_projection_refits_when_nnls_ends_outside_the_cone(seed):
    # on these low-rank row sets scipy's nnls returns multipliers up to 7e15
    # for some u and its fit ends outside the cone; the BVLS refit keeps them
    inst = instance(degenerate_matrix(seed))
    rng = np.random.default_rng(seed)
    for _ in range(20):
        res = project_onto_cone(inst, rng.standard_normal(inst.n))
        assert (inst.A @ res.point).max(initial=0.0) <= 1e-8 * max(1.0, inst.frobenius_scale)
        assert res.distance_lower == pytest.approx(res.distance, rel=1e-8)


def _check_projection(A, u_seed):
    inst = instance(A)
    u = np.random.default_rng([u_seed, 1]).standard_normal(inst.n)
    res = project_onto_cone(inst, u)
    assert (inst.A @ res.point).max(initial=0.0) <= 1e-8 * max(1.0, inst.frobenius_scale)
    assert res.distance_lower <= res.distance
    # Moreau: the multipliers' certificate meets the primal distance
    assert res.distance_lower == pytest.approx(res.distance, rel=1e-8)


_PROJECTION_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@_PROJECTION_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       m=st.integers(5, 400), u_seed=st.integers(0, 2**32 - 1))
def test_projection_on_planted_mixed_matrices(seed, n, m, u_seed):
    _check_projection(planted_mixed_matrix(seed, m, n), u_seed)


@_PROJECTION_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       m=st.integers(1, 400), u_seed=st.integers(0, 2**32 - 1))
def test_projection_with_rows_scaled_over_sixteen_decades(seed, n, m, u_seed):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-8.0, 8.0, size=(m, 1))
    _check_projection(rng.standard_normal((m, n)) * scales, u_seed)


def _check_min_norm(G):
    # either a certified point or a typed error, never another exception
    try:
        sol = solve_min_norm_qp(G)
    except HoffboundError:
        return
    assert float((G @ sol.z).min()) >= 1.0
    gap = sol.norm ** 2 - sol.dual_lower
    assert 0.0 <= gap <= 1e-8 * (1.0 + sol.norm ** 2)


@_PROJECTION_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), m=st.integers(1, 30))
def test_min_norm_qp_with_rows_scaled_over_sixteen_decades(seed, n, m):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-8.0, 8.0, size=(m, 1))
    _check_min_norm(rng.standard_normal((m, n)) * scales)


@_PROJECTION_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), m=st.integers(5, 400))
def test_min_norm_qp_on_planted_slack_blocks(seed, n, m):
    A, slack = planted_mixed_split(seed, m, n)
    _check_min_norm(A[slack])


# --- partition linear program ---------------------------------------------------

@pytest.mark.parametrize("A, t_star", [
    (np.array([[-1.0]]), 1.0),
    (np.array([[1.0], [-1.0]]), 0.5),
    (-np.eye(5), 0.2),
    (np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]), 1.0 / 3.0),
])
def test_partition_lp_optimal_values(A, t_star):
    lp, _, _ = optimal_lp(A)
    assert lp["t"] == pytest.approx(t_star, abs=1e-6)


def test_partition_lp_residuals_and_cap():
    for seed in range(10):
        inst = instance(gaussian_matrix(100 + seed))
        lp, y, s = optimal_lp(inst.A)
        assert lp["t"] <= 1.0 / inst.m + 1e-9
        assert lp["t"] > 0.0
        # the iterate stays interior: no weight or slack leaves the orthant
        assert y.min() > 0.0 and s.min() > 0.0
        for key in ("dual_eq_inf", "primal_eq_inf", "normalization",
                    "coupling_violation"):
            assert lp["residuals"][key] <= 1e-7 * max(1.0, inst.frobenius_scale)


def _check_lp(inst, lp, y, s):
    budget = LP_FEAS_TOL * 10.0 * max(1.0, inst.frobenius_scale)
    for key in ("dual_eq_inf", "primal_eq_inf", "normalization"):
        assert lp["residuals"][key] <= budget, key
    assert y.min() > 0.0 and s.min() > 0.0
    assert 0.0 < lp["t"] <= 1.0 / inst.m + 1e-9


def test_partition_lp_on_a_rank_deficient_rotated_matrix():
    # suite degenerate-8 at seed 1: opposing row pairs a, b, -a, -b rotated
    # off the axes, so A (4 x 5, rank 2) has no exactly zero column; its
    # null directions of x leave the Newton system singular unless the LP
    # is solved in row-space coordinates
    A = benchmark_matrix("suite", 1, "degenerate-8")
    assert A.shape == (4, 5) and np.linalg.matrix_rank(A) == 2
    inst = instance(A)
    _check_lp(inst, *optimal_lp(inst.A))
    cert = compute_partition(inst)
    assert (cert.B, cert.N) == ((0, 1, 2, 3), ())
    assert verify_partition(inst, cert).ok


def test_partition_lp_with_a_zero_column_and_zero_rows():
    A = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                  [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    inst = instance(A)
    _check_lp(inst, *optimal_lp(inst.A))
    cert = compute_partition(inst)
    assert (cert.B, cert.N) == ((0, 1, 2, 4), (3,))
    assert verify_partition(inst, cert).ok
    # with every row zero the row space is empty (r = 0): y is uniform and
    # the margin is 1/m
    zero = instance(np.zeros((3, 2)))
    lp, y, s = optimal_lp(zero.A)
    _check_lp(zero, lp, y, s)
    assert np.allclose(y, 1.0 / 3.0, atol=1e-9)
    assert lp["t"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_partition_lp_whose_iterates_overflow_stalls_without_warnings():
    # an 18 x 5 planted matrix with rows scaled by 10^U(-4, 4) from row seed
    # 11: after 68 steps the iterates overflow to inf and NaN, the IPM ends
    # as "diverged", and numpy's overflow warnings stay silent
    A, _ = planted_mixed_split(0, 18, 5)
    A = A * 10.0 ** np.random.default_rng([11, 4]).uniform(-4.0, 4.0, size=(18, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverStall, match="diverged"):
            optimal_lp(A)


def test_partition_lp_with_a_singular_newton_system_stalls():
    # rows scaled by 10^U(-4, 4) from row seed 0: the LU of the Newton
    # system at step 54 meets a zero pivot; the IPM ends as "singular" at its
    # last (finite, interior) iterate and bound_h0 raises SolverStall
    A, _ = planted_mixed_split(0, 18, 5)
    A = A * 10.0 ** np.random.default_rng([0, 4]).uniform(-4.0, 4.0, size=(18, 1))
    block = TightBlock(A)
    res = hoffbound.solvers.ipm.solve_qp_ipm(1e-10, 1e-9, block.W @ block.V,
                                             lambda *_: None)
    assert res.status == "singular"
    assert res.iterations > 0
    assert np.isfinite(res.x).all() and (res.y > 0.0).all() and (res.s > 0.0).all()
    with pytest.raises(SolverStall, match="singular"):
        bound_h0(instance(A))


@pytest.mark.parametrize("m, n", [(800, 80), (1600, 100)])
def test_partition_recovers_planted_split_at_scale(m, n):
    A, slack = planted_mixed_split(7, m, n)
    inst = instance(A)
    cert = compute_partition(inst)
    assert cert.N == tuple(int(i) for i in np.flatnonzero(slack))
    assert cert.B == tuple(int(i) for i in np.flatnonzero(~slack))
    assert slack_margin(cert.block, cert.A_N, cert.x_hat) > 0.0
    assert weight_margin(cert.block, cert.y_hat) > 0.0
    assert verify_partition(inst, cert).ok


def test_partition_lp_converges_where_the_weights_span_sixteen_decades(monkeypatch):
    # every row of this 18 x 8 Gaussian matrix is tight and the optimal
    # margin is 4.3e-6; near the optimum the slacks s reach 1e-16 while
    # their duals grow to 1e4, and a dual step formed from F du loses the
    # dual residual unless the refinement corrects it directly
    spans = []
    newton = hoffbound.solvers.ipm._Newton

    def recording(N, colsum, D):
        spans.append(float(D.max() / D.min()))
        return newton(N, colsum, D)

    monkeypatch.setattr(hoffbound.solvers.ipm, "_Newton", recording)
    inst = instance(benchmark_matrix("suite", 1, "gaussian-94"))
    lp, y, s = optimal_lp(inst.A)
    _check_lp(inst, lp, y, s)
    assert max(spans) > 1e16
    assert lp["t"] == pytest.approx(4.3148e-6, rel=1e-4)
    assert np.all(y >= 0.5 * lp["t"])


def test_min_norm_qp_and_projection_reject_malformed_arguments():
    with pytest.raises(ValueError, match="G must be a matrix"):
        solve_min_norm_qp(np.ones(3))
    with pytest.raises(ValueError, match=r"u has shape \(3,\), expected \(2,\)"):
        project_onto_cone(instance(np.eye(2)), np.ones(3))
