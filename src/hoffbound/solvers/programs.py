"""Concrete optimization programs used by the bounding pipeline.

Four operations are exposed, each calling its engine directly:

* ``solve_partition_lp``: the self-dual feasibility LP whose optimal support
  splits the rows of A into the tight set B and the slack set N, searched
  iterate by iterate for a proven split, in the row-space coordinates of
  ``numerics.TightBlock(A)``, by the interior-point method of ``ipm.py``.
* ``solve_min_norm_qp``: minimum-Euclidean-norm point of ``{z : G z >= 1}``
  by nonnegative least-squares fits (Lawson & Hanson's least-distance
  program), on a working set of rows when a seed point is given, with
  exact feasibility after restoration and a certified duality gap.
* ``solve_analytic_center``: log-barrier center of ``{y > 0 : A_B' y = 0,
  sum(y) = 1}`` by Newton on its unconstrained dual, in the row space of the
  partition's ``numerics.TightBlock``, started from the uniform point.
* ``project_onto_cone``: Euclidean projection onto ``{x : A x <= 0}`` by one
  nonnegative least-squares fit against the rows of A.

``OPT_TOL`` is the tolerance that the fit's gap check and the center's stop
read, and ``SolverStall``, ``InfeasibleQP`` and ``NoInteriorPoint`` are the
errors they raise.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.optimize
from scipy.linalg.lapack import dgeqrf, dtrtrs

from ..core import (
    ZERO_NORM_FLOOR,
    HoffboundError,
    ProblemInstance,
    euclidean_norm,
    gamma,
    row_norms,
)
from ..numerics import (
    NumericalFailure,
    TightBlock,
    _svd,
    numerical_rank,
    orthonormal_null_basis,  # unused here; the benchmark's tracer hooks it
)
from .ipm import MAX_ITERS, solve_qp_ipm

__all__ = [
    "AnalyticCenterSolution",
    "InfeasibleQP",
    "LP_FEAS_TOL",
    "LP_OPT_TOL",
    "MinNormSolution",
    "NoInteriorPoint",
    "OPT_TOL",
    "ProjectionResult",
    "SolverConfig",
    "SolverStall",
    "project_onto_cone",
    "solve_analytic_center",
    "solve_min_norm_qp",
    "solve_partition_lp",
]

_FIT_TOL = 1e-10

# Where the partition LP gives up: relative residuals at LP_FEAS_TOL and a
# relative gap at LP_OPT_TOL end the search with no split proven.  No
# benchmark input reaches them; every LP there ends at a proven split.
LP_FEAS_TOL = 1e-10
LP_OPT_TOL = 1e-9

# The least-distance fit's largest certified gap, relative to 1 + ||z||^2,
# and the analytic center's last Newton decrement.
OPT_TOL = 1e-8


class SolverStall(HoffboundError):
    """Iteration cap reached before the requested certificates were met."""


class InfeasibleQP(HoffboundError):
    """``{z : G z >= 1}`` is infeasible, or its minimum-norm point is beyond
    double precision; on a slack block this signals an upstream partition
    error.

    ``weights`` is the fit's ``u >= 0`` on the rows of G (zero outside its
    working set) when the fit found no point, else None.  On an infeasible
    system ``G'u`` vanishes and ``1'u = 1`` up to rounding: the Farkas
    weights that prove it infeasible.
    """

    def __init__(self, message: str, weights: np.ndarray | None = None):
        super().__init__(message)
        self.weights = weights


class NoInteriorPoint(HoffboundError):
    """No strictly positive feasible point was located."""


@dataclass(frozen=True)
class SolverConfig:
    """An empty configuration: no solver has a setting.

    It is kept only because the benchmark's ``perfbench/run.py`` builds one
    and passes it to ``bound_h0`` and ``lower_bound_monte_carlo``, which
    ignore it.
    """


def solve_partition_lp(block: TightBlock, accept: Callable[..., Any]) -> tuple[Any, dict]:
    """Search the iterates of the self-dual feasibility LP for a proven split.

    The LP, for the matrix ``A = block.A_B`` (all rows of the instance), is

        max t  s.t.  A' y = 0,  A x + s = 0,  y + s >= t 1,
                     1'y + 1's = 1,  y >= 0, s >= 0, t >= 0

    which is always feasible (y = s = uniform, t = 0 works whenever the
    normalization row can be met) and bounded by 1/m.  Strict complementarity
    of the underlying homogeneous system makes the optimal t positive, with
    the supports of y and s splitting the rows exactly.

    A enters only through A x and A'y, and the optimal (y, s, t) does not
    change under uniform positive scaling of A (x absorbs the factor), so
    the LP is solved for ``M = W V`` with the block's ``W = 2^-e A`` and
    row-space basis V (rank from the one rank rule); then
    ``x = 2^-e V x'``, exact in the power of two.  M has full column rank,
    which keeps the Newton systems of ``ipm.solve_qp_ipm`` nonsingular;
    their dimension is 2 rank(A) + 2.

    ``accept(x, y, s)`` is called on every iterate, with x in the
    coordinates of A, and the first iterate for which it returns something
    other than None ends the solve.  Returns ``(accepted, lp)``: that return
    value, or None when the iterates met ``LP_FEAS_TOL`` and ``LP_OPT_TOL``
    first, and the record of the iterate that ended the solve, its margin
    ``t``, the interior-point steps before it (``iterations``) and its raw
    LP ``residuals``.

    Raises
    ------
    SolverStall
        If the interior-point iteration diverges, meets a singular Newton
        system or reaches its cap.
    """
    V = block.V

    def accept_x(x, y, s):
        return accept(np.ldexp(V @ x, -block.exp), y, s)

    # The matrix is the third positional argument because the benchmark's
    # tracer reads the system size off args[2].shape.
    res = solve_qp_ipm(LP_FEAS_TOL, LP_OPT_TOL, block.W @ V, accept_x)
    if res.status != "converged":
        raise SolverStall(
            f"partition LP did not converge ({res.status}, "
            f"{res.iterations} iterations)"
        )

    x = np.ldexp(V @ res.x, -block.exp)
    y, s, t = res.y, res.s, res.t
    A = block.A_B
    residuals = {
        "dual_eq_inf": float(np.abs(A.T @ y).max(initial=0.0)),
        "primal_eq_inf": float(np.abs(A @ x + s).max(initial=0.0)),
        "normalization": abs(float(y.sum() + s.sum()) - 1.0),
        "coupling_violation": max(0.0, t - float((y + s).min())),
    }
    return res.accepted, {"t": t, "iterations": res.iterations, "residuals": residuals}


def _nnls(
    M: np.ndarray, b: np.ndarray, M_c: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative least-squares fit ``argmin_{x >= 0} ||M x - b||``.

    Returns x and the product ``M x``.  ``M_c``, when given, is M laid out
    C-contiguous, the layout scipy's ``nnls`` would otherwise copy M into;
    every product is formed with M itself, in M's layout.

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
        x, _ = scipy.optimize.nnls(M if M_c is None else M_c, b)
    except RuntimeError:  # the iteration cap
        x = None
    else:
        Mx = M @ x
    if x is None or float((M.T @ (b - Mx)).max()) > _FIT_TOL:
        fit = scipy.optimize.lsq_linear(M, b, bounds=(0.0, np.inf), method="bvls")
        x = np.maximum(fit.x, 0.0)
        Mx = M @ x
        if float((M.T @ (b - Mx)).max()) > _FIT_TOL:
            raise SolverStall("NNLS fit ended non-stationary after a BVLS refit")
    return x, Mx


@dataclass(frozen=True)
class MinNormSolution:
    """Feasible near-minimal-norm point of ``{z : G z >= 1}``.

    ``min_i (G z)_i`` is at least 1 in floating point; ``dual_lower`` is a
    certified lower bound on the optimal squared norm, so
    ``norm**2 - dual_lower`` bounds the optimality gap.
    """

    z: np.ndarray
    norm: float
    dual_lower: float


def _restore_feasibility(G: np.ndarray, z: np.ndarray) -> np.ndarray | None:
    """Scale z so that min(G z) >= 1 holds exactly in floating point."""
    margin = float((G @ z).min())
    if not 1e-150 < margin < np.inf:  # a NaN fails too
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


def solve_min_norm_qp(G: np.ndarray, z0: np.ndarray | None = None) -> MinNormSolution:
    """Minimum-norm point of the polyhedron ``{z : G z >= 1}``.

    This is a least-distance program, solved as in Lawson & Hanson (1974,
    ch. 23) by a nonnegative least-squares fit ``min_{u >= 0} ||M u - e||``
    with ``M = [G'; 1']`` and ``e`` the last unit vector: the residual
    ``r = M u - e`` gives the point ``r[:d] / -r[d]``, and ``u``, scaled,
    the multipliers.  The fit fixes the point only to about
    eps (1 + ||z||^2), so it is polished by the minimum-norm solution of the
    equality system on the fit's passive rows (``u > 0``), then rescaled so
    feasibility holds exactly.  Polishing makes the returned point a
    deterministic function of the active set, which keeps the result stable
    under row permutations and matrix rescalings.

    At most ``d + 1`` multipliers are positive at the optimum, so when a
    point ``z0`` is given and G has more than ``4 (d + 1)`` rows, the fit
    runs on a working set S of rows.  S starts as the ``2 (d + 1)`` rows with
    the smallest ``g_i'z0``: for ``G z0 > 0`` these bind first along z0.
    Each round then adds up to ``d + 1`` of the rows that its point violates
    most, and the loop stops on one of two exact events:

    * the point satisfies every row: it is optimal for a relaxation of the
      program and feasible for the program, so optimal for it;
    * the fit on S is infeasible: its weights, zero outside S, satisfy
      ``G'u = 0`` and ``1'u = 1`` for all of G, a Farkas certificate.

    A row outside S is violated when its multiplier in the fit of all rows
    would have a positive gradient, ``(M'(e - M u))_i > 0``: that is
    ``rho (1 - g_i'z)`` with ``rho = -r[d] > 0``, so no tolerance enters.
    z0 only orders the work: S grows until a stop rule holds, whatever z0
    is.
    Without z0, or with fewer rows, S is every row and one fit settles it.
    The polish, the restoration and the certified gap below use all rows.

    The partition calls this too, on all of A (the call ``bound_case_n``
    makes) and on a few of its rows: a point proves those rows slack, and
    the fit's weights on an infeasible system prove the rows they carry
    tight.

    Raises
    ------
    InfeasibleQP
        If the system is infeasible, or its minimum-norm point is beyond
        double precision; with the fit's weights when it found no point.
    SolverStall
        If the fit does not converge or the certified gap is too large.
    """
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
    if s <= ZERO_NORM_FLOOR:
        if not G.any():
            raise InfeasibleQP("a zero matrix cannot reach margin 1")
        raise InfeasibleQP(f"the largest row norm of G underflows ({s:.1e}); rescale G")
    Gw = G / s

    M = np.concatenate([Gw.T, np.ones((1, k))], axis=0)
    e = np.zeros(d + 1)
    e[d] = 1.0
    S = np.arange(k)
    if z0 is not None and k > 4 * (d + 1):
        S = np.sort(np.argsort(Gw @ z0, kind="stable")[: 2 * (d + 1)])
    while True:
        u = np.zeros(k)
        u[S], Mu = _nnls(M[:, S] if S.size < k else M, e)
        r = Mu - e
        rho = -float(r[d])
        if not rho > 0.0 or S.size == k:
            break
        grad = -(r @ M)  # rho (1 - g_i'z) on every row
        grad[S] = 0.0
        out = np.flatnonzero(grad > 0.0)
        if out.size == 0:
            break
        if out.size > d + 1:
            out = out[np.argpartition(grad[out], -(d + 1))[-(d + 1):]]
        S = np.union1d(S, out)
    z_best = _restore_feasibility(G, r[:d] / (rho * s)) if rho > 0.0 else None
    if z_best is None:
        raise InfeasibleQP(
            "no point with G z >= 1 was found: the system is infeasible, or "
            "its minimum-norm point is beyond double precision",
            weights=u,
        )

    with np.errstate(over="ignore"):  # an overflowing point raises below
        # Polish: the passive rows define an equality system whose minimum-norm
        # solution is the exact optimum when the active set is identified.
        active = u > 0.0
        if active.any():
            z_pol = np.linalg.lstsq(Gw[active], np.ones(active.sum()), rcond=None)[0]
            z_pol = _restore_feasibility(G, z_pol / s)
            if z_pol is not None and euclidean_norm(z_pol) < euclidean_norm(z_best):
                z_best = z_pol

        # Weak duality: every lam >= 0 gives ||z||^2 >= 1'lam - ||G'lam||^2 / 4.
        # Along lam = t u the best t gives (1'u)^2 / ||G'u||^2, which needs no
        # rho (rho = 1 - 1'u cancels as ||z|| grows).  At the optimum the bound
        # meets ||z||^2, so its rounding error is taken off: g bounds the
        # relative error of each sum and product in it.  g is a numpy scalar,
        # so the power overflows to inf here rather than raising.
        g = np.float64(gamma(2 * (k + d + 2)))
        den = euclidean_norm(G.T @ u) + g * euclidean_norm(np.abs(G).T @ u)
        dual_lower = (1.0 - g) * (float(u.sum()) / den) ** 2

        norm = euclidean_norm(z_best)
        if not np.isfinite(norm):
            raise InfeasibleQP(
                "the minimum-norm point of G z >= 1 is beyond double precision: "
                "its norm overflows"
            )
        # Written so that a NaN gap (inf - inf) fails the test.
        gap = norm**2 - dual_lower
        if not gap <= OPT_TOL * (1.0 + norm**2):
            raise SolverStall(
                f"certified optimality gap {gap:.3e} is too large for OPT_TOL"
            )
    return MinNormSolution(z=z_best, norm=norm, dual_lower=dual_lower)


@dataclass(frozen=True)
class AnalyticCenterSolution:
    """Analytic center of ``{y > 0 : A_B' y = 0, sum(y) = 1}``.

    ``grad_norm`` is the final equality residual ``||(A_B' y, 1'y - 1)||``,
    in the units of ``TightBlock.W``, before ``y`` is scaled to sum 1.
    """

    y: np.ndarray
    grad_norm: float
    iterations: int


def solve_analytic_center(block: TightBlock) -> AnalyticCenterSolution:
    """Log-barrier center of the dual slice attached to the tight rows.

    The center maximizes ``sum(log y)`` over ``{y > 0 : A_B' y = 0,
    1'y = 1}``.  Its Lagrange dual is the unconstrained program

        min over (mu, nu) of  nu - sum_i log(nu + a_i' mu),

    whose minimizer gives the center as ``y_i = 1 / (nu + a_i' mu)``; the
    gradient, ``(-A_B' y, 1 - 1'y)``, is the slice's equality residual.
    The slice does not change under scaling, so A_B is the block's ``W``,
    and only ``W mu`` matters: ``mu = V w`` with V the block's row-space
    basis.  With ``N = [W V, 1]`` the
    variable is ``z = (w, nu)``, ``y = 1 / (N z)``, and the Hessian is
    ``N' diag(y)^2 N = R'R`` for the R of a QR of ``diag(y) N``, so each
    Newton step is two triangular solves and works with the condition
    number of N, not its square.  R comes from LAPACK's ``dgeqrf`` and the
    solves from ``dtrtrs``, called directly: on problems this small the
    wrappers of ``np.linalg.qr`` and ``scipy.linalg.solve_triangular`` cost
    several times the factorization.  The solves pass ``R'`` as the lower
    triangle, the operand order ``solve_triangular`` uses for a C-ordered
    R, so the iterates are bit-identical to that code's; passing R as upper
    triangular rounds differently.  Newton starts from ``z = (0, p)``, the
    uniform y.

    The objective is self-concordant, so no line search is needed: the
    damped step ``dz / (1 + lam)``, lam the Newton decrement, stays in the
    domain and lowers the objective by a fixed amount while ``lam > 1/4``,
    and the full step converges quadratically after that.  Newton stops one
    step after ``lam <= OPT_TOL``; to first order lam bounds the relative
    distance of each ``y_i`` from the center.  A decrement below 1 proves
    that a minimizer exists (Nesterov, Introductory Lectures on Convex
    Optimization, 2004, sec. 4.1).  On an unbounded dual the decrement
    settles at 1, where rounding can dip below it, so the test for a
    minimizer is that a full step was ever taken.

    Raises
    ------
    NoInteriorPoint
        If the slice has no strictly positive point: ``N`` is rank deficient
        (then ``1 = A_B mu`` for some mu, and ``1'y = mu'A_B'y = 0`` on the
        slice), or no full step was taken by the iteration cap or before
        rounding pushed the iterate out of the domain (the dual is unbounded
        below, as for ``[[1], [0]]``).
    SolverStall
        If a full step was taken but ``lam`` stays above ``OPT_TOL``.
    NumericalFailure
        If the rank probe's SVD does not converge, or R has a zero on its
        diagonal.
    """
    M = block.WV
    p, r = M.shape
    if p == 0:
        raise ValueError("the tight set must be nonempty")

    N = np.concatenate([M, np.ones((p, 1))], axis=1)
    # The columns of M are orthogonal (M = U S from the SVD of W), so the
    # rank rule sees only the ones direction once all columns have unit norm.
    U = np.concatenate([M / row_norms(M.T), np.full((p, 1), p**-0.5)], axis=1)
    if numerical_rank(_svd(U, compute_uv=False), max(U.shape)) <= r:
        raise NoInteriorPoint("1 lies in the range of A_B, so the slice is empty")

    e = np.zeros(r + 1)
    e[r] = 1.0
    z = p * e
    y = np.full(p, 1.0 / p)
    # the optimal workspace, as numpy's QR queries it: a smaller one changes
    # dgeqrf's blocking past 128 columns, and with it the rounding
    lwork = int(dgeqrf(N, lwork=-1)[2][0])
    full_step = False
    for it in range(1, MAX_ITERS + 1):
        g = N.T @ y
        g -= e
        # dtrtrs reads only the lower triangle of L = qr[:r+1].T, which is R'
        qr = dgeqrf(y[:, None] * N, lwork=lwork)[0]
        L = np.asfortranarray(qr[: r + 1].T)  # the layout dtrtrs copies L into
        w, info = dtrtrs(L, g, lower=1)
        if info == 0:
            dz, info = dtrtrs(L, w, lower=1, trans=1)
        if info != 0:
            raise NumericalFailure(
                f"the center's Newton system is singular (dtrtrs info {info})"
            )
        lam = euclidean_norm(w)
        full_step = full_step or lam <= 0.25
        z += dz if lam <= 0.25 else dz / (1.0 + lam)
        Nz = N @ z
        if not Nz.min() > 0.0:
            break  # only rounding leaves the domain, as z runs off to infinity
        y = 1.0 / Nz
        if lam <= OPT_TOL:
            return AnalyticCenterSolution(
                y=y / y.sum(), grad_norm=euclidean_norm(N.T @ y - e), iterations=it
            )

    if not full_step:
        raise NoInteriorPoint(
            "the slice has no strictly positive point: the decrement of the "
            "center's dual never fell to 1/4"
        )
    raise SolverStall(f"analytic center Newton stalled at decrement {lam:.3e}")


@dataclass(frozen=True)
class ProjectionResult:
    """Euclidean projection onto ``{x : A x <= 0}`` with its distance bounds.

    ``distance`` is the primal value ||u - point||, an overestimate of the
    true distance whenever the point is inexact; ``distance_lower`` is a
    certified underestimate derived from the nonnegative row multipliers, so
    the true distance always lies in [distance_lower, distance].
    """

    point: np.ndarray
    distance: float
    distance_lower: float


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
    if unorm <= ZERO_NORM_FLOOR:
        return ProjectionResult(point=np.zeros(instance.n), distance=0.0,
                                distance_lower=0.0)

    # Positive row scalings leave the cone unchanged, so the constraints are
    # the instance's unit rows, for conditioning, with zero rows dropped.
    # With no rows left the cone is the whole space; the fit must not run,
    # since scipy's nnls aborts the process on a matrix with no columns.
    Aw = instance.unit_rows
    if Aw.shape[0] == 0:
        return ProjectionResult(point=u.copy(), distance=0.0, distance_lower=0.0)
    u_hat = u / unorm
    mu, polar = _nnls(Aw.T, u_hat, instance.unit_rows_t)

    # Subtracting the rescaled polar part ``Aw' mu`` (rather than rescaling
    # u_hat) keeps an interior point exactly where it is: mu = 0 there.
    x = u - polar * unorm

    # Any mu >= 0 certifies dist^2 >= 2 mu'(Aw u) - ||Aw' mu||^2.
    lb_sq = 2.0 * float(mu @ (Aw @ u_hat)) - float(polar @ polar)
    dist_lower = float(np.sqrt(max(lb_sq, 0.0))) * unorm
    distance = euclidean_norm(u - x)
    return ProjectionResult(
        point=x, distance=distance, distance_lower=min(dist_lower, distance)
    )
