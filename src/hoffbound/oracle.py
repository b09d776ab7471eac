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


@dataclass(frozen=True)
class OracleResult:
    """Best ratio found by sampling, with the witness that achieved it."""

    lower_bound: float
    best_u: np.ndarray | None
    samples_used: int
    skipped: int
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

    best = 0.0
    best_u: np.ndarray | None = None
    skipped = 0
    for u in candidates:
        try:
            r = ratio_at(instance, u)
        except HoffboundError:
            # a candidate whose projection fails costs a sample, not the run
            skipped += 1
            continue
        if r == 0.0:
            skipped += 1
            continue
        if r > best:
            best = r
            best_u = u
    return OracleResult(
        lower_bound=best,
        best_u=None if best_u is None else best_u.copy(),
        samples_used=len(candidates),
        skipped=skipped,
        seed=seed,
    )
