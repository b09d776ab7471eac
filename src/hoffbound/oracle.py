"""Sampling lower bounds on the homogeneous error constant.

Every point u with a positive worst row violation yields the valid lower
bound dist_2(u, P) / max_i (A u)_i^+ <= H0(A), so sampling candidate
directions and keeping the best ratio sandwiches the certified upper bound
from below.  Two candidate families are used: a deterministic directed
family built from the problem geometry (negated normalized rows, the negated
interior witness, and pairwise combinations of those), and counter-based
Gaussian draws that make the stream reproducible for any seed and
independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HoffboundError, ProblemInstance, euclidean_norm, pos_part_inf_norm
from .solvers import SolverConfig, project_onto_cone

__all__ = [
    "OracleResult",
    "directed_candidates",
    "lower_bound_monte_carlo",
    "ratio_at",
]

_VIOLATION_FLOOR = 1e-12
_MAX_BASE = 64
_MAX_PAIR_VECTORS = 128
# relative slack on a candidate's cap before it is pruned (see the Notes of
# lower_bound_monte_carlo for why it multiplies the cap, not the best ratio)
_CAP_MARGIN = 1e-9


@dataclass(frozen=True)
class OracleResult:
    """Best ratio found by sampling, with the witness that achieved it.

    Of the ``samples_used`` candidates, ``pruned`` were never evaluated
    because their cap could not beat the best ratio, ``screened_feasible``
    were scored 0 by ``ratio_at`` without a projection, ``failed`` raised in
    their projection, and the rest were projected.
    """

    lower_bound: float
    best_u: np.ndarray | None
    samples_used: int
    screened_feasible: int
    pruned: int
    failed: int
    seed: int

    def __post_init__(self) -> None:
        if self.best_u is not None:
            self.best_u.setflags(write=False)


def ratio_at(instance: ProblemInstance, u: np.ndarray) -> float:
    """Lower-bound ratio dist_2(u, P) / max row violation at one point.

    Points with no meaningful violation contribute 0: the violation floor is
    ``1e-12 ||A||_F ||u||``, so feasible points are screened out without a
    projection at any scale of A or u.  The numerator is the certified
    distance underestimate from the projection's multipliers, valid for any
    mu >= 0, so an NNLS fit that stops early can only make the reported ratio
    smaller, never unsound; a fit that fails raises ``SolverStall``.
    """
    u = np.asarray(u, dtype=float)
    viol = pos_part_inf_norm(instance.A @ u)
    floor = _VIOLATION_FLOOR * instance.frobenius_scale * euclidean_norm(u)
    if viol <= floor:
        return 0.0
    proj = project_onto_cone(instance, u)
    return proj.distance_lower / viol


def directed_candidates(
    instance: ProblemInstance, x_hat: np.ndarray | None = None
) -> list[np.ndarray]:
    """Deterministic unit candidates aimed at the cone boundary.

    The base family holds the negated normalized rows of A (the steepest
    single-row violation directions) and, when supplied, the negated
    interior witness of the slack rows.  All pairwise sums and differences
    of base members are appended in index order, capped to keep the family
    small; the combinations matter because the best ratio often lives where
    two constraints interact rather than along a single row normal.
    """
    A = instance.A
    base: list[np.ndarray] = []
    for i in range(min(instance.m, _MAX_BASE)):
        nrm = euclidean_norm(A[i])
        if nrm > 1e-300:
            base.append(-A[i] / nrm)
    if x_hat is not None:
        x_hat = np.asarray(x_hat, dtype=float)
        nrm = euclidean_norm(x_hat)
        if nrm > 1e-300:
            base.append(-x_hat / nrm)

    out = list(base)
    emitted = 0
    for i in range(len(base)):
        if emitted >= _MAX_PAIR_VECTORS:
            break
        for j in range(i + 1, len(base)):
            if emitted >= _MAX_PAIR_VECTORS:
                break
            for sign in (1.0, -1.0):
                combo = base[i] + sign * base[j]
                nrm = euclidean_norm(combo)
                if nrm > 1e-8:
                    out.append(combo / nrm)
                    emitted += 1
    return out


def lower_bound_monte_carlo(
    instance: ProblemInstance,
    num_samples: int = 64,
    seed: int = 0,
    *,
    x_hat: np.ndarray | None = None,
    cfg: SolverConfig | None = None,
) -> OracleResult:
    """Best sampled lower bound on H0(A).

    Parameters
    ----------
    instance : ProblemInstance
        Problem data.
    num_samples : int
        Number of Gaussian draws appended to the directed family.
    seed : int
        Stream seed.  Draw k is generated from a counter-based generator
        keyed by (seed, k), so results are bit-reproducible for a given
        seed and sample count regardless of evaluation order.
    x_hat : ndarray, optional
        Interior witness from the row partition; its negation is a strong
        candidate because it violates every slack row at once.
    cfg : SolverConfig, optional
        Ignored: the projections are NNLS fits with no tolerances to set.  It
        is accepted so one configuration can be passed to every stage.

    Returns
    -------
    OracleResult
        ``lower_bound`` is 0 when no candidate produced a violation (for a
        zero matrix the cone is everything and no point has one).

    Notes
    -----
    Candidates are evaluated best-bound-first and the loop stops once none
    can win.  With ``viol(u) = max_i (A u)_i^+`` from one product over all
    candidates, each gets the cap ``||u|| / viol(u)`` (0 when viol(u) = 0).
    The cap bounds ``ratio_at(u)``: it is 0, or ``d(u) / viol(u)`` where the
    certified distance bound ``d(u) <= dist(u, P) <= ||u||`` because P
    contains 0.  A stable sort orders the candidates by cap, highest first,
    ties in candidate order.  The loop stops at the first candidate with
    ``cap (1 + 1e-9) <= best``.  Every later candidate v has
    ``cap(v) <= cap``, so ``ratio_at(v) <= cap(v) (1 + 1e-9) <= best``, and
    since ``best`` is replaced only by a strictly larger ratio, no later
    candidate can change it.  Hence ``lower_bound`` is the maximum of
    ``ratio_at`` over all candidates, exactly what evaluating every one of
    them gives, and ``best_u`` can differ from that only among candidates
    tied at the maximum.

    The factor ``1 + 1e-9`` covers rounding: ``d(u)`` can exceed ``||u||``
    by an ulp, and ``ratio_at`` recomputes the violation with its own
    product, which can differ from the batched one in the last bits.  The
    margin must enlarge the cap; written as ``cap <= best (1 + 1e-9)`` the
    test would prune a candidate whose cap lies a hair above ``best``, and
    such a candidate can still win by an ulp.  A candidate with viol(u) = 0
    in the batched product is scored 0 by ``ratio_at`` too: the two products
    differ by at most about ``n 2.2e-16 ||A||_F ||u||``, below its screening
    floor ``1e-12 ||A||_F ||u||`` for n up to about 4,500.
    """
    if num_samples < 0:
        raise ValueError("num_samples must be nonnegative")
    n = instance.n

    candidates = directed_candidates(instance, x_hat)
    for k in range(num_samples):
        gen = np.random.Generator(np.random.Philox(key=[seed % 2**64, k]))
        u = gen.standard_normal(n)
        nrm = euclidean_norm(u)
        if nrm > 1e-300:
            u = u / nrm
        candidates.append(u)

    U = np.array(candidates, dtype=float).reshape(len(candidates), n)
    viol = np.max(U @ instance.A.T, axis=1, initial=0.0)
    cap = np.zeros(len(candidates))
    np.divide(np.linalg.norm(U, axis=1), viol, out=cap, where=viol > 0.0)
    order = np.argsort(-cap, kind="stable")

    best = 0.0
    best_u: np.ndarray | None = None
    screened = failed = 0
    evaluated = len(candidates)
    for rank, k in enumerate(order):
        if cap[k] * (1.0 + _CAP_MARGIN) <= best:
            evaluated = rank
            break
        u = candidates[k]
        try:
            r = ratio_at(instance, u)
        except HoffboundError:
            # a candidate whose projection fails costs a sample, not the run
            failed += 1
            continue
        if r == 0.0:
            screened += 1
        elif r > best:
            best = r
            best_u = u
    return OracleResult(
        lower_bound=best,
        best_u=None if best_u is None else best_u.copy(),
        samples_used=len(candidates),
        screened_feasible=screened,
        pruned=len(candidates) - evaluated,
        failed=failed,
        seed=seed,
    )
