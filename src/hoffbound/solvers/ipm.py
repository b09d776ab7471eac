"""Dense predictor-corrector interior-point method for the pipeline's LPs.

Solves

    minimize    0.5 v' P v + c' v
    subject to  E v = f,  v_i >= 0 for i in the cone mask

with a Mehrotra-style infeasible-start primal-dual iteration.  Each step
factorizes the regularized augmented system

    [ P + D + dp I   E'      ] [ dv ]   [ rhs_d ]
    [ E              -dd I   ] [ dy ] = [ rhs_p ]

where D carries the complementarity scaling z_i / v_i on cone components.
The factorization is reused for the corrector solve, and one pass of
iterative refinement against the unregularized matrix keeps the static
regularization from contaminating the returned residuals.

The engine takes a quadratic term P, but its one caller is the partition LP
(P = 0), whose augmented system for an m x n matrix has dimension
5m + 2n + 2 (2,082 at 400 x 40); the analytic center reaches it only through
that LP, as its phase one.  Every step runs one dense LU of the full
augmented matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ..numerics import NumericalFailure
from .config import MAX_ITERS

__all__ = ["IPMResult", "solve_qp_ipm"]

_DIV_FLOOR = 1e-300
_STALL_WINDOW = 25
_STALL_FACTOR = 0.999


@dataclass
class IPMResult:
    """Final iterate of one interior-point solve."""

    v: np.ndarray
    iterations: int
    status: str


def _starting_point(
    P: np.ndarray,
    c: np.ndarray,
    E: np.ndarray,
    f: np.ndarray,
    cone: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares starting point with the usual positivity shifts."""
    n = c.shape[0]
    v, *_ = np.linalg.lstsq(E, f, rcond=None)
    lam, *_ = np.linalg.lstsq(E.T, P @ v + c, rcond=None)
    z = np.zeros(n)
    z[cone] = (P @ v + c - E.T @ lam)[cone]

    vc = v[cone]
    zc = z[cone]
    dp = max(-1.5 * float(vc.min()), 0.0)
    dd = max(-1.5 * float(zc.min()), 0.0)
    vc = vc + dp
    zc = zc + dd
    dot = float(vc @ zc)
    sz = float(zc.sum())
    sv = float(vc.sum())
    vc = vc + (0.5 * dot / sz if sz > _DIV_FLOOR else 1.0)
    zc = zc + (0.5 * dot / sv if sv > _DIV_FLOOR else 1.0)
    vc = np.maximum(vc, 1e-1)
    zc = np.maximum(zc, 1e-1)
    v = v.copy()
    v[cone] = vc
    z[cone] = zc
    return v, lam, z


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha in [0, 1] with x + alpha dx >= 0 for positive x."""
    neg = dx < 0.0
    if not np.any(neg):
        return 1.0
    return min(1.0, float(np.min(-x[neg] / dx[neg])))


def solve_qp_ipm(
    P: np.ndarray,
    c: np.ndarray,
    E: np.ndarray,
    f: np.ndarray,
    cone: np.ndarray,
    feas_tol: float = 1e-9,
    opt_tol: float = 1e-8,
) -> IPMResult:
    """Run the predictor-corrector iteration to the requested tolerances.

    Parameters
    ----------
    P : ndarray of shape (N, N)
        Symmetric positive semidefinite quadratic term (pass zeros for LPs).
    c : ndarray of shape (N,)
        Linear objective term.
    E : ndarray of shape (M, N)
        Equality constraint matrix; must have M <= N rows.
    f : ndarray of shape (M,)
        Equality right-hand side.
    cone : boolean ndarray of shape (N,)
        Mask of componentwise-nonnegative variables, at least one; the rest
        are free.
    feas_tol, opt_tol : float
        Relative primal/dual feasibility and complementarity targets.

    Returns
    -------
    IPMResult
        Final iterate, with status ``"converged"``, or ``"stalled"`` (also
        at the ``MAX_ITERS`` cap).
    """
    N = c.shape[0]
    M = f.shape[0]
    if E.shape != (M, N):
        raise ValueError(f"E has shape {E.shape}, expected {(M, N)}")
    cone = np.asarray(cone, dtype=bool)
    k = int(cone.sum())
    if k == 0:
        raise ValueError("the cone mask must select at least one variable")

    v, lam, z = _starting_point(P, c, E, f, cone)

    scale_obj = 1.0 + float(np.abs(c).max(initial=0.0))
    reg = 1e-12 * max(
        1.0,
        float(np.abs(E).max(initial=0.0)),
        float(np.abs(P).max(initial=0.0)),
    )
    f_scale = 1.0 + float(np.abs(f).max(initial=0.0))

    best_merit = np.inf
    stall_counter = 0

    K = np.zeros((N + M, N + M))
    K[:N, N:] = E.T
    K[N:, :N] = E

    for it in range(MAX_ITERS):
        Pv = P @ v
        r_d = Pv + c - E.T @ lam - z
        r_p = f - E @ v
        mu = float(v[cone] @ z[cone]) / k

        obj = 0.5 * float(v @ Pv) + float(c @ v)
        rel_p = float(np.abs(r_p).max(initial=0.0)) / f_scale
        rel_d = float(np.abs(r_d).max(initial=0.0)) / (
            scale_obj + float(np.abs(Pv).max(initial=0.0))
        )
        gap = mu / (1.0 + abs(obj))

        merit = max(rel_p, rel_d, gap)
        if merit < best_merit:
            if merit < best_merit * _STALL_FACTOR:
                stall_counter = 0
            best_merit = merit
        else:
            stall_counter += 1

        if rel_p <= feas_tol and rel_d <= feas_tol and gap <= opt_tol:
            return IPMResult(v=v, iterations=it, status="converged")
        if stall_counter >= _STALL_WINDOW:
            break

        D = np.zeros(N)
        D[cone] = z[cone] / np.maximum(v[cone], _DIV_FLOOR)
        K[:N, :N] = P
        K[np.arange(N), np.arange(N)] += D + reg
        K[N + np.arange(M), N + np.arange(M)] = -reg

        try:
            lu = scipy.linalg.lu_factor(K, check_finite=False)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise NumericalFailure(f"augmented system factorization failed: {exc}")

        def solve_kkt(rd_mod: np.ndarray, rp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            rhs = np.concatenate([rd_mod, rp])
            sol = scipy.linalg.lu_solve(lu, rhs, check_finite=False)
            # One refinement pass against the unregularized matrix.
            top = (P @ sol[:N]) + D * sol[:N] + E.T @ sol[N:]
            bot = E @ sol[:N]
            resid = rhs - np.concatenate([top, bot])
            sol = sol + scipy.linalg.lu_solve(lu, resid, check_finite=False)
            return sol[:N], sol[N:]

        # Predictor: pure Newton step toward complementarity zero.
        rc_aff = np.zeros(N)
        rc_aff[cone] = -v[cone] * z[cone]
        rhs_d = -r_d + rc_aff / np.where(cone, np.maximum(v, _DIV_FLOOR), 1.0)
        dv_aff, y_aff = solve_kkt(rhs_d, r_p)
        dlam_aff = -y_aff
        dz_aff = np.zeros(N)
        dz_aff[cone] = (rc_aff[cone] - z[cone] * dv_aff[cone]) / np.maximum(
            v[cone], _DIV_FLOOR
        )

        a_p = _max_step(v[cone], dv_aff[cone])
        a_d = _max_step(z[cone], dz_aff[cone])
        mu_aff = float(
            (v[cone] + a_p * dv_aff[cone]) @ (z[cone] + a_d * dz_aff[cone])
        ) / k
        sigma = (mu_aff / mu) ** 3 if mu > 0.0 else 0.0
        sigma = min(max(sigma, 0.0), 1.0)

        # Corrector: recenter and cancel the second-order term.
        rc = np.zeros(N)
        rc[cone] = sigma * mu - v[cone] * z[cone] - dv_aff[cone] * dz_aff[cone]
        rhs_d = -r_d + rc / np.where(cone, np.maximum(v, _DIV_FLOOR), 1.0)
        dv, y = solve_kkt(rhs_d, r_p)
        dlam = -y
        dz = np.zeros(N)
        dz[cone] = (rc[cone] - z[cone] * dv[cone]) / np.maximum(v[cone], _DIV_FLOOR)

        eta = min(0.9995, max(0.995, 1.0 - 10.0 * mu))
        a_p = min(1.0, eta * _max_step(v[cone], dv[cone]))
        a_d = min(1.0, eta * _max_step(z[cone], dz[cone]))

        v = v + a_p * dv
        lam = lam + a_d * dlam
        z = z + a_d * dz
        v[cone] = np.maximum(v[cone], _DIV_FLOOR)
        z[cone] = np.maximum(z[cone], _DIV_FLOOR)

    return IPMResult(v=v, iterations=it, status="stalled")
