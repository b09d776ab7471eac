"""Primal-dual interior-point method for the row-partition LP.

The partition LP of ``programs.solve_partition_lp`` depends on its matrix
only through the row space, so it is solved for an ``m x r`` matrix ``M`` of
full column rank (the matrix in orthonormal row-space coordinates):

    maximize    t
    subject to  M' y = 0,  1'y - 1'M x = 1,
                y >= 0,  s = -M x >= 0,  w = y - M x - t 1 >= 0,  t >= 0

over ``x`` in R^r (free), ``y`` in R^m and ``t``.  The slack ``s`` and the
coupling slack ``w`` are kept as positive variables with the residuals
``M x + s`` and ``y - M x - t 1 - w``, so the iteration starts infeasible,
from a fixed point.

Each Mehrotra predictor-corrector step solves the Newton system

    [ F'DF   G' ] [  du ]   [ R1 ]
    [ G      0  ] [ -dl ] = [ R2 ]

for ``u = (x, t, y)``, where ``F u = (y, s, w, t)`` lists the inequality rows,
``D`` is the diagonal of dual over primal slack, and ``G u = (M'y,
1'y - 1'M x)`` holds the equalities.  In ``F'DF`` the y-block is diagonal;
eliminating it leaves a symmetric system of dimension ``2r + 2`` in
``(dx, dt, -dl)``, built from four weighted Gram products of ``[M, 1]``:
O(m r^2) flops per step and no array larger than O(m r).  Full column rank
of ``M`` makes ``F'DF`` positive definite and ``G`` of full row rank, so the
system is nonsingular without regularization; in floating point its LU can
still meet a zero pivot once ``D`` spans too many decades, and the solve
then ends at the last iterate with status ``"singular"``.

Near the optimum ``D`` spans more than 16 decades.  A slack step computed
as ``F du`` then carries rounding that ``D`` amplifies into the dual step,
so each solve is refined once against the unreduced system (slack and dual
steps, complementarity and both residual blocks), and the correction is
applied to the slack and dual steps directly.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy.linalg

from ..numerics import NumericalFailure

__all__ = ["MAX_ITERS", "IPMResult", "solve_qp_ipm"]

# Iteration cap of the interior-point method and of the center's Newton.
MAX_ITERS = 500

_DIV_FLOOR = 1e-300

_GETRF, _GETRS = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (np.empty(0),))


@dataclass
class IPMResult:
    """Final iterate of one interior-point solve.

    ``x`` has the r coordinates of the reduced problem; ``y``, ``s`` and ``t``
    are the multipliers, the slacks and the margin, with ``s > 0`` and
    ``M x + s`` the primal residual.  ``accepted`` is what ``accept``
    returned at the iterate that stopped the solve, else None.
    """

    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    t: float
    iterations: int
    status: str
    accepted: Any


def _max_step(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest alpha in [0, 1] with x + alpha dx >= 0 for positive x."""
    neg = dx < 0.0
    return min(1.0, float((x[neg] / -dx[neg]).min(initial=1.0)))


class _Newton:
    """The Newton system at one iterate, factored in dimension 2r + 2.

    Vectors over ``u`` are laid out as ``(x, t, y)`` and vectors over the
    inequality rows as ``g = (y, s, w, t)``, with ``D`` in that order.
    """

    def __init__(self, N: np.ndarray, colsum: np.ndarray, D: np.ndarray) -> None:
        m, r1 = N.shape
        r = r1 - 1
        self.N = N
        Dy, Ds, Dw = D[:m], D[m : 2 * m], D[2 * m : 3 * m]
        self.Dw = Dw
        # Eliminating dy divides by Dy + Dw.
        self.ie = ie = 1.0 / (Dy + Dw)
        q = Dw * ie
        self.qi = np.stack((q, ie))
        # Gram products N' diag(c) N for c = Dy Dw / (Dy + Dw), q, ie, Ds.
        W = np.stack((Dy * q, q, ie, Ds), axis=1)
        P = N.T @ (W[:, :, None] * N[:, None, :]).reshape(m, 4 * r1)
        P = P.reshape(r1, 4, r1)
        K = np.empty((2 * r1, 2 * r1))
        K[:r1, :r1] = P[:, 0]
        K[:r, :r] += P[:r, 3, :r]
        K[r, r] += D[3 * m]
        B = K[:r1, r1:]
        B[...] = P[:, 1]
        B[:r, r] -= colsum
        K[r1:, :r1] = B.T
        K[r1:, r1:] = -P[:, 2]
        # Symmetric diagonal scaling: the blocks differ by up to the span of
        # D, and LU is accurate only relative to the largest entry.
        self.sc = sc = 1.0 / np.sqrt(np.abs(np.diagonal(K)))
        self.lu, self.piv, info = _GETRF(K * np.outer(sc, sc), overwrite_a=True)
        if info != 0:
            raise NumericalFailure(f"Newton system is singular (getrf info {info})")

    def solve(self, R1: np.ndarray,
              R2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``du``, ``-dl`` and the products ``M dx`` and ``N (-dl)``."""
        N = self.N
        r1 = N.shape[1]
        Ry = R1[r1:]
        T = (self.qi * Ry) @ N
        rhs = np.concatenate((R1[:r1] + T[0], R2 - T[1]))
        sol = self.sc * _GETRS(self.lu, self.piv, self.sc * rhs)[0]
        dt = sol[r1 - 1]
        # M dx is formed without dt: the difference N (dx, dt) - dt would
        # lose the digits that a tiny slack step needs.
        sol[r1 - 1] = 0.0
        V = sol.reshape(2, r1) @ N.T
        sol[r1 - 1] = dt
        du = np.concatenate((sol[:r1], (Ry + self.Dw * (V[0] + dt) - V[1]) * self.ie))
        return du, sol[r1:], V


@np.errstate(over="ignore", invalid="ignore")
def solve_qp_ipm(feas_tol: float, gap_tol: float, M: np.ndarray,
                 accept: Callable[..., Any]) -> IPMResult:
    """Run the predictor-corrector iteration to the requested tolerances.

    Parameters
    ----------
    feas_tol, gap_tol : float
        Relative primal/dual feasibility and complementarity targets.
    M : ndarray of shape (m, r)
        The LP's matrix in row-space coordinates, of full column rank r
        (r = 0 is allowed).
    accept : callable
        Called as ``accept(x, y, s)`` on every finite iterate, the starting
        point included, before the convergence test.  The first iterate for
        which it returns something other than None ends the solve as
        ``"converged"``, with the return value as ``accepted``.

    Returns
    -------
    IPMResult
        Final iterate.  A solve ends at the first of five events, and the
        status names it: an accepted iterate, or one that meets both
        tolerances (``"converged"``, with ``accepted`` None in the second
        case); an iterate that overflowed to inf or NaN (``"diverged"``);
        an iterate whose Newton system has an LU with a zero pivot
        (``"singular"``); or the ``MAX_ITERS`` cap (``"stalled"``), at
        the iterate after the last step, which ``accept`` and the
        convergence test have seen.  ``iterations`` counts the Newton steps
        taken, so a capped solve reports ``MAX_ITERS``.  No test of
        progress ends a solve early.  numpy's warnings for that
        overflow are silenced, since it is detected and ends the solve.
    """
    m, r = M.shape
    r1 = r + 1
    k = 3 * m + 1
    N = np.empty((m, r1))
    N[:, :r] = M
    N[:, r] = 1.0
    colsum = M.sum(axis=0)
    h = np.zeros(r1)
    h[r] = 1.0
    c = np.zeros(r1 + m)
    c[r] = -1.0

    # The operators of the LP over u = (x, t, y) and the rows (y, s, w, t).
    def F(u: np.ndarray, Mx: np.ndarray) -> np.ndarray:
        y = u[r1:]
        return np.concatenate((y, -Mx, y - Mx - u[r], u[r:r1]))

    def F_T(v: np.ndarray) -> np.ndarray:
        vw = v[2 * m : 3 * m]
        return np.concatenate((-((v[m : 2 * m] + vw) @ M),
                               (v[3 * m] - float(vw.sum()),), v[:m] + vw))

    def G(u: np.ndarray) -> np.ndarray:
        Gu = u[r1:] @ N
        Gu[r] -= float(colsum @ u[:r])
        return Gu

    def G_T(lam: np.ndarray, Nlam: np.ndarray) -> np.ndarray:
        return np.concatenate((-colsum * lam[r], (0.0,), Nlam))

    # Fixed infeasible start: every slack and dual at one, x and l at zero.
    x = np.zeros(r)
    lam = np.zeros(r1)
    g = np.ones(k)
    z = np.ones(k)

    status = "stalled"
    found = None
    for it in range(MAX_ITERS + 1):
        t = float(g[3 * m])
        u = np.concatenate((x, g[3 * m :], g[:m]))
        Mx, Nlam = np.stack((np.append(x, 0.0), lam)) @ N.T
        # Residuals; r_g = F u - g is zero on the rows of y and t.
        rg = F(u, Mx) - g
        rp = h - G(u)
        rd = c - G_T(lam, Nlam) - F_T(z)
        mu = float(g @ z) / k

        rel_p = max(float(np.abs(rp).max()), float(np.abs(rg).max())) / 2.0
        rel_d = float(np.abs(rd).max()) / 2.0
        gap = mu / (1.0 + t)

        if not math.isfinite(rel_p + rel_d + gap):
            status = "diverged"
            break
        found = accept(x, g[:m], g[m : 2 * m])
        if found is not None:
            status = "converged"
            break
        if rel_p <= feas_tol and rel_d <= feas_tol and gap <= gap_tol:
            status = "converged"
            break
        if it == MAX_ITERS:
            break

        D = z / g
        Drg = D * rg
        try:
            newton = _Newton(N, colsum, D)
        except NumericalFailure:
            status = "singular"
            break

        def direction(rc: np.ndarray):
            du, nu, V = newton.solve(F_T(rc / g - Drg) - rd, rp)
            dg = F(du, V[0]) + rg
            dz = (rc - z * dg) / g
            # Refine against the unreduced system with what a full step
            # would leave of the residuals, r_d - G'dl - F'dz and r_p - G du.
            cu, cnu, cV = newton.solve(F_T(dz) - G_T(nu, V[1]) - rd, rp - G(du))
            # Added to dg and dz, not redone from du: a dz formed from
            # F du where g << z would carry its rounding times D.
            Fc = F(cu, cV[0])
            return du[:r] + cu[:r], nu + cnu, dg + Fc, dz - D * Fc

        # Predictor: pure Newton step toward complementarity zero.
        rc = -g * z
        _, _, dg_aff, dz_aff = direction(rc)
        a_p = _max_step(g, dg_aff)
        a_d = _max_step(z, dz_aff)
        mu_aff = float((g + a_p * dg_aff) @ (z + a_d * dz_aff)) / k
        sigma = (mu_aff / mu) ** 3 if mu > 0.0 else 0.0
        sigma = min(max(sigma, 0.0), 1.0)

        # Corrector: recenter and cancel the second-order term.
        rc += sigma * mu - dg_aff * dz_aff
        dx, nu, dg, dz = direction(rc)

        eta = min(0.9995, max(0.995, 1.0 - 10.0 * mu))
        a_p = min(1.0, eta * _max_step(g, dg))
        a_d = min(1.0, eta * _max_step(z, dz))

        x = x + a_p * dx
        g = np.maximum(g + a_p * dg, _DIV_FLOOR)
        lam = lam - a_d * nu
        z = np.maximum(z + a_d * dz, _DIV_FLOOR)

    return IPMResult(x=x, y=g[:m].copy(), s=g[m : 2 * m].copy(),
                     t=float(g[3 * m]), iterations=it, status=status, accepted=found)
