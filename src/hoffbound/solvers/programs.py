"""Concrete optimization programs used by the bounding pipeline.

Four operations are exposed, each calling its engine directly:

* ``solve_partition_lp``: the self-dual feasibility LP whose optimal support
  splits the rows of A into the tight set B and the slack set N, solved in
  row-space coordinates by the interior-point method of ``ipm.py``.
* ``solve_min_norm_qp``: minimum-Euclidean-norm point of ``{z : G z >= 1}``
  by one nonnegative least-squares fit (Lawson & Hanson's least-distance
  program), with exact feasibility after restoration and a certified
  duality gap.
* ``solve_analytic_center``: log-barrier center of ``{y > 0 : A_B' y = 0,
  sum(y) = 1}`` by damped Newton on the affine slice, started from a hint, the
  slice's minimum-norm point, or the partition LP of A_B.
* ``project_onto_cone``: Euclidean projection onto ``{x : A x <= 0}`` by one
  nonnegative least-squares fit against the rows of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from ..core import ProblemInstance, euclidean_norm
from ..numerics import (
    NumericalFailure,
    orthonormal_null_basis,
    row_norms,
    row_space_basis,
)
from .config import MAX_ITERS, InfeasibleQP, NoInteriorPoint, SolverConfig, SolverStall
from .ipm import solve_qp_ipm

__all__ = [
    "AnalyticCenterSolution",
    "MinNormSolution",
    "PartitionLPSolution",
    "ProjectionResult",
    "project_onto_cone",
    "solve_analytic_center",
    "solve_min_norm_qp",
    "solve_partition_lp",
]

_POS_FLOOR = 1e-12
_FIT_TOL = 1e-10


def _barrier_newton(
    E: np.ndarray, v: np.ndarray, cfg: SolverConfig
) -> tuple[np.ndarray, float, int]:
    """Damped Newton for min -sum log v_i over {E v' = E v, v' > 0}.

    Starts from the strictly positive point ``v`` and runs in the exact
    affine parametrization v + W q with W an orthonormal null-space basis of
    E, so equality feasibility is preserved to rounding error regardless of
    step length.  Returns the center, the norm of the reduced gradient
    there, and the iteration count.

    Raises
    ------
    SolverStall
        If the reduced gradient stays above ``opt_tol`` at the iteration cap
        or a line search finds no decrease.
    """
    W = orthonormal_null_basis(E)
    if W.shape[1] == 0:
        return v, 0.0, 0

    w = np.ones(v.shape[0])  # unit barrier weights; phi sums through a dot
    converged = False
    it = 0
    for it in range(MAX_ITERS):
        inv = 1.0 / v
        g = W.T @ -inv
        if euclidean_norm(g) <= cfg.opt_tol:
            converged = True
            break

        B = W * inv[:, None]
        H = B.T @ B
        dq = _solve_spd(H, -g)
        dv = W @ dq

        alpha = 1.0
        neg = dv < 0.0
        if np.any(neg):
            alpha = min(1.0, 0.99 * float(np.min(-v[neg] / dv[neg])))
        phi0 = -float(w @ np.log(v))
        slope = float(g @ dq)
        # Once the Newton decrement drops below the evaluation noise of phi,
        # a sufficient-decrease test can only reject; the boundary-capped
        # step is safe there, so take it without backtracking.
        if -slope <= 1e-9 * max(1.0, abs(phi0)):
            v = v + alpha * dv
            continue
        for _ in range(60):
            v_new = v + alpha * dv
            if np.all(v_new > 0.0):
                phi = -float(w @ np.log(v_new))
                if phi <= phi0 + 1e-4 * alpha * slope:
                    break
            alpha *= 0.5
        else:
            break
        v = v_new

    if not converged:
        raise SolverStall("analytic center Newton did not converge (stalled)")
    return v, euclidean_norm(W.T @ -(1.0 / v)), it


def _solve_spd(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve with a short jitter escalation on breakdown."""
    jitter = 0.0
    scale = float(np.abs(H).max(initial=1.0))
    for _ in range(4):
        try:
            cho = scipy.linalg.cho_factor(
                H + jitter * np.eye(H.shape[0]), check_finite=False
            )
            return scipy.linalg.cho_solve(cho, rhs, check_finite=False)
        except scipy.linalg.LinAlgError:
            jitter = max(jitter * 100.0, 1e-14 * scale)
    raise NumericalFailure("barrier Hessian factorization failed")


def _positive_slice_point(
    A_B: np.ndarray,
    E: np.ndarray,
    f: np.ndarray,
    y0: np.ndarray | None,
    cfg: SolverConfig,
) -> np.ndarray:
    """Strictly positive point on the slice {E y = f} = {A_B' y = 0, sum(y) = 1}.

    Tried in turn, each on the slice (projected there if need be) and held
    to a positivity floor: the hint ``y0``, the minimum-norm point of the
    slice, then the ``y`` of the partition LP of A_B.  That ``y`` is at least the
    LP's margin t > 0 on every row exactly when the slice has a strictly
    positive point (Stiemke's lemma).

    Raises
    ------
    NoInteriorPoint
        If no candidate clears the floor.
    SolverStall
        If the partition LP does not converge.
    """
    e_max = max(1.0, float(np.abs(E).max(initial=0.0)))

    def project(v: np.ndarray) -> np.ndarray:
        corr, *_ = np.linalg.lstsq(E, E @ v - f, rcond=None)
        return v - corr

    def positive(v: np.ndarray) -> bool:
        v_max = max(1.0, float(np.abs(v).max(initial=0.0)))
        on_slice = float(np.abs(E @ v - f).max(initial=0.0)) <= 1e-10 * e_max * v_max
        return v.min(initial=np.inf) > _POS_FLOOR * v_max and on_slice

    if y0 is not None:
        v = project(np.asarray(y0, dtype=float))
        if positive(v):
            return v
    v, *_ = np.linalg.lstsq(E, f, rcond=None)
    if positive(v):
        return v
    v = project(solve_partition_lp(ProblemInstance.from_matrix(A_B), cfg).y)
    if positive(v):
        return v
    raise NoInteriorPoint("no strictly positive point on the equality slice was found")


@dataclass(frozen=True)
class PartitionLPSolution:
    """Optimal point of the row-partition LP.

    ``x`` certifies slack rows through ``A x + s = 0``; ``y`` certifies tight
    rows through ``A' y = 0``; ``t`` is the common support margin;
    ``iterations`` counts the interior-point steps.
    """

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    t: float
    residuals: dict[str, float]
    iterations: int


def solve_partition_lp(
    instance: ProblemInstance, cfg: SolverConfig | None = None
) -> PartitionLPSolution:
    """Maximize the support margin t over the self-dual feasibility system.

    The LP is

        max t  s.t.  A' y = 0,  A x + s = 0,  y + s >= t 1,
                     1'y + 1's = 1,  y >= 0, s >= 0, t >= 0

    which is always feasible (y = s = uniform, t = 0 works whenever the
    normalization row can be met) and bounded by 1/m.  Strict complementarity
    of the underlying homogeneous system makes the optimal t positive, with
    the supports of y and s splitting the rows exactly.

    A enters only through A x and A'y, so the LP is solved for
    ``M = A V / row_scale``, where V is an orthonormal basis of the row space
    of A (``numerics.row_space_basis``, rank from the one rank rule) and
    row_scale the largest row norm; then ``x = V x' / row_scale``.  M has full
    column rank, which keeps the Newton systems of ``ipm.solve_qp_ipm``
    nonsingular; their dimension is 2 rank(A) + 2.

    Raises
    ------
    SolverStall
        If the interior-point iteration fails to reach its tolerances.
    NumericalFailure
        If the rank of A falls in the rank rule's ambiguous band.
    """
    cfg = cfg or SolverConfig()

    # The optimal (y, s, t) is invariant under uniform positive scaling of A
    # (x absorbs the factor), so solve in units of the largest row norm and
    # scale x back afterwards.
    row_scale = float(row_norms(instance.A).max())
    if row_scale <= 1e-300:
        row_scale = 1.0
    A = instance.A / row_scale
    V = row_space_basis(A)

    # Solve a notch tighter than advertised so the residual budget below
    # holds with margin even for matrices of unit scale.  The matrix is the
    # third positional argument because the benchmark's tracer reads the
    # system size off args[2].shape.
    res = solve_qp_ipm(cfg.feas_tol / 10.0, cfg.opt_tol / 10.0, A @ V)
    if res.status != "converged":
        raise SolverStall(
            f"partition LP did not converge ({res.status}, "
            f"{res.iterations} iterations)"
        )

    x = V @ res.x / row_scale
    y, s, t = res.y, res.s, res.t

    A_orig = instance.A
    residuals = {
        "dual_eq_inf": float(np.abs(A_orig.T @ y).max(initial=0.0)),
        "primal_eq_inf": float(np.abs(A_orig @ x + s).max(initial=0.0)),
        "normalization": abs(float(y.sum() + s.sum()) - 1.0),
        "coupling_violation": max(0.0, t - float((y + s).min())),
        "nonneg_violation": max(0.0, -float(min(y.min(), s.min(), t))),
    }
    # max(1, ||A||_F): the residuals mix units of A with unitless sums
    budget = cfg.feas_tol * max(1.0, instance.frobenius_scale)
    worst = max(
        residuals["dual_eq_inf"],
        residuals["primal_eq_inf"],
        residuals["normalization"],
        residuals["nonneg_violation"],
    )
    if worst > budget:
        raise SolverStall(
            "partition LP residuals exceed the feasibility budget: "
            f"{residuals}"
        )
    return PartitionLPSolution(x=x, y=y, s=s, t=t, residuals=residuals,
                               iterations=res.iterations)


def _nnls(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least-squares fit ``argmin_{x >= 0} ||M x - b||``.

    On rank-deficient column sets scipy's ``nnls`` can end at a
    non-stationary x without an error, or stop at its iteration cap; either
    way, a fit with ``max(M'(b - M x)) > _FIT_TOL`` is redone once by
    bounded-variable least squares.

    Raises
    ------
    SolverStall
        If the BVLS refit ends non-stationary too.
    """
    try:
        x, _ = scipy.optimize.nnls(M, b)
    except RuntimeError:  # the iteration cap
        x = None
    if x is None or float((M.T @ (b - M @ x)).max()) > _FIT_TOL:
        fit = scipy.optimize.lsq_linear(M, b, bounds=(0.0, np.inf), method="bvls")
        x = np.maximum(fit.x, 0.0)
        if float((M.T @ (b - M @ x)).max()) > _FIT_TOL:
            raise SolverStall("NNLS fit ended non-stationary after a BVLS refit")
    return x


@dataclass(frozen=True)
class MinNormSolution:
    """Feasible near-minimal-norm point of ``{z : G z >= 1}``.

    ``min_margin`` is the exact post-restoration value of ``min_i (G z)_i``
    (never below 1); ``dual_lower`` is a certified lower bound on the optimal
    squared norm, so ``norm**2 - dual_lower`` bounds the optimality gap.
    """

    z: np.ndarray
    norm: float
    min_margin: float
    dual_lower: float


def _restore_feasibility(G: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """Scale z so that min(G z) >= 1 holds exactly in floating point."""
    margin = float((G @ z).min())
    if not np.isfinite(margin) or margin <= 1e-150:
        return None
    z = z / margin
    for _ in range(100):
        viol = 1.0 - float((G @ z).min())
        if viol <= 0.0:
            return z
        # The bump must stay strictly above 1 after rounding; a bare
        # 1 + viol can tie back to 1 when viol is half an ulp.
        z = z * (1.0 + max(1.5 * viol, 1e-15))
    raise NumericalFailure("feasibility restoration failed to close the margin")


def solve_min_norm_qp(G: np.ndarray, cfg: SolverConfig | None = None) -> MinNormSolution:
    """Minimum-norm point of the polyhedron ``{z : G z >= 1}``.

    This is a least-distance program, solved as in Lawson & Hanson (1974,
    ch. 23) by one nonnegative least-squares fit ``min_{u >= 0} ||M u - e||``
    with ``M = [G'; 1']`` and ``e`` the last unit vector: the residual
    ``r = M u - e`` gives the point ``r[:d] / -r[d]``, and ``u``, scaled,
    the multipliers.  The fit fixes the point only to about
    eps (1 + ||z||^2), so it is polished by the minimum-norm solution of the
    equality system on the fit's passive rows (``u > 0``), then rescaled so
    feasibility holds exactly.  Polishing makes the returned point a
    deterministic function of the active set, which keeps the result stable
    under row permutations and matrix rescalings.

    Raises
    ------
    InfeasibleQP
        If the system is infeasible, or its minimum-norm point is beyond
        double precision.
    SolverStall
        If the fit does not converge or the certified gap is too large.
    """
    cfg = cfg or SolverConfig()
    G = np.asarray(G, dtype=float)
    if G.ndim != 2:
        raise ValueError("G must be a matrix")
    k, d = G.shape
    if k == 0 or d == 0:
        raise InfeasibleQP("empty constraint system cannot reach margin 1")

    # Solve in units where the largest row has norm 1.  The solution maps
    # back by one scalar division, so the fit (and in particular the active
    # set used by the polish) behaves identically for G and alpha G.
    s = float(row_norms(G).max())
    if s <= 1e-300:
        raise InfeasibleQP("a zero matrix cannot reach margin 1")
    Gw = G / s

    M = np.concatenate([Gw.T, np.ones((1, k))], axis=0)
    e = np.zeros(d + 1)
    e[d] = 1.0
    u = _nnls(M, e)
    r = M @ u - e
    rho = -float(r[d])
    z_best = _restore_feasibility(G, r[:d] / (rho * s)) if rho > 0.0 else None
    if z_best is None:
        raise InfeasibleQP(
            "no point with G z >= 1 was found: the system is infeasible, or "
            "its minimum-norm point is beyond double precision"
        )

    # Polish: the passive rows define an equality system whose minimum-norm
    # solution is the exact optimum when the active set is identified.
    active = u > 0.0
    if np.any(active):
        z_pol, *_ = np.linalg.lstsq(Gw[active], np.ones(int(active.sum())), rcond=None)
        z_pol = _restore_feasibility(G, z_pol / s)
        if z_pol is not None and euclidean_norm(z_pol) < euclidean_norm(z_best):
            z_best = z_pol

    # Weak duality: every lam >= 0 gives ||z||^2 >= 1'lam - ||G'lam||^2 / 4.
    # Along lam = t u the best t gives (1'u)^2 / ||G'u||^2, which needs no
    # rho (rho = 1 - 1'u cancels as ||z|| grows).  At the optimum the bound
    # meets ||z||^2, so its rounding error is taken off: gamma bounds the
    # relative error of each sum and product in it.
    gamma = (k + d + 2) * np.finfo(float).eps
    den = euclidean_norm(G.T @ u) + gamma * euclidean_norm(np.abs(G).T @ u)
    dual_lower = (1.0 - gamma) * (float(u.sum()) / den) ** 2

    norm = euclidean_norm(z_best)
    min_margin = float((G @ z_best).min())
    gap = norm**2 - dual_lower
    if gap > cfg.opt_tol * (1.0 + norm**2):
        raise SolverStall(
            f"certified optimality gap {gap:.3e} is too large for the "
            "requested tolerance"
        )
    return MinNormSolution(
        z=z_best, norm=norm, min_margin=min_margin, dual_lower=dual_lower
    )


@dataclass(frozen=True)
class AnalyticCenterSolution:
    """Analytic center of ``{y > 0 : A_B' y = 0, sum(y) = 1}``."""

    y: np.ndarray
    grad_norm: float
    iterations: int


def solve_analytic_center(
    A_B: np.ndarray,
    cfg: SolverConfig | None = None,
    y_start: np.ndarray | None = None,
) -> AnalyticCenterSolution:
    """Log-barrier center of the dual slice attached to the tight rows.

    Parameters
    ----------
    A_B : ndarray of shape (p, n)
        Rows of A indexed by the tight set B.
    cfg : SolverConfig, optional
        Accuracy knobs; defaults are shared with the rest of the pipeline.
    y_start : ndarray of shape (p,), optional
        Strictly positive hint on the slice (projected onto it before use).
        Without a usable hint the partition LP of A_B locates one.

    Raises
    ------
    NoInteriorPoint
        If the slice has no strictly positive point.
    SolverStall
        If the partition LP run as phase one does not converge, or Newton
        fails to drive the reduced gradient below ``opt_tol``.
    """
    cfg = cfg or SolverConfig()
    A_B = np.asarray(A_B, dtype=float)
    p, n = A_B.shape
    if p == 0:
        raise ValueError("the tight set must be nonempty")

    # The slice {A_B' y = 0, sum(y) = 1} is invariant under uniform scaling
    # of A_B, so run the iteration in units of the largest row norm; the
    # center then comes out identical for A_B and alpha A_B.
    s = float(row_norms(A_B).max())
    if s > 1e-300:
        A_B = A_B / s

    E = np.concatenate([A_B.T, np.ones((1, p))], axis=0)
    f = np.zeros(n + 1)
    f[-1] = 1.0
    y0 = _positive_slice_point(A_B, E, f, y_start, cfg)
    y, grad_norm, iterations = _barrier_newton(E, y0, cfg)
    if y.min(initial=np.inf) <= 0.0:
        raise NoInteriorPoint("analytic center iterate left the positive orthant")
    return AnalyticCenterSolution(y=y / y.sum(), grad_norm=grad_norm, iterations=iterations)


@dataclass(frozen=True)
class ProjectionResult:
    """Euclidean projection onto ``{x : A x <= 0}`` with audit residuals.

    ``distance`` is the primal value ||u - point||, an overestimate of the
    true distance whenever the point is inexact; ``distance_lower`` is a
    certified underestimate derived from the nonnegative row multipliers, so
    the true distance always lies in [distance_lower, distance].
    """

    point: np.ndarray
    distance: float
    distance_lower: float
    feas_violation: float


def project_onto_cone(instance: ProblemInstance, u: np.ndarray) -> ProjectionResult:
    """Project ``u`` onto the feasible cone of the instance.

    The polar cone of P is spanned by the rows of A (Moreau decomposition), so
    the residual of one fit ``min_{mu >= 0} ||u - A' mu||`` is the projection
    and mu certifies the distance.  The fit runs on the unit vector along u;
    projection onto a cone commutes with positive scaling.  A fit that stops
    at its iteration cap or ends outside the cone is redone once by
    bounded-variable least squares.

    Raises
    ------
    SolverStall
        If the refit ends outside the cone too.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (instance.n,):
        raise ValueError(f"u has shape {u.shape}, expected ({instance.n},)")
    unorm = euclidean_norm(u)
    if unorm <= 1e-300:
        return ProjectionResult(point=np.zeros(instance.n), distance=0.0,
                                distance_lower=0.0, feas_violation=0.0)

    # Positive row scalings leave the cone unchanged, so the constraints are
    # row-normalized for conditioning and identically zero rows are dropped.
    # With no rows left the cone is the whole space; the fit must not run,
    # since scipy's nnls aborts the process on a matrix with no columns.
    norms = row_norms(instance.A)
    keep = norms > 1e-300
    if not np.any(keep):
        return ProjectionResult(point=u.copy(), distance=0.0,
                                distance_lower=0.0, feas_violation=0.0)
    Aw = instance.A[keep] / norms[keep, None]
    u_hat = u / unorm
    mu = _nnls(Aw.T, u_hat)

    # Subtracting the rescaled polar part (rather than rescaling u_hat) keeps
    # an interior point exactly where it is: mu = 0 there.
    polar = Aw.T @ mu
    x = u - polar * unorm

    # Any mu >= 0 certifies dist^2 >= 2 mu'(Aw u) - ||Aw' mu||^2.
    lb_sq = 2.0 * float(mu @ (Aw @ u_hat)) - float(polar @ polar)
    dist_lower = float(np.sqrt(max(lb_sq, 0.0))) * unorm
    feas = max(0.0, float((instance.A @ x).max(initial=0.0)))
    distance = euclidean_norm(u - x)
    return ProjectionResult(
        point=x,
        distance=distance,
        distance_lower=min(dist_lower, distance),
        feas_violation=feas,
    )
