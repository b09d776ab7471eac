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

from .core import (
    ZERO_NORM_FLOOR,
    HoffboundError,
    ProblemInstance,
    euclidean_norm,
)
from .solvers.programs import SolverConfig, project_onto_cone

__all__ = [
    "OracleResult",
    "directed_candidates",
    "lower_bound_monte_carlo",
    "ratio_at",
]

_VIOLATION_FLOOR = 1e-12
_EPS = float(np.finfo(float).eps)
_MAX_BASE = 64
_MAX_PAIR_VECTORS = 128
# relative slack on a candidate's cap before it is pruned (see the Notes of
# lower_bound_monte_carlo for why it multiplies the cap, not the best ratio)
_CAP_MARGIN = 1e-9


@dataclass(frozen=True)
class OracleResult:
    """Best ratio found by sampling, with the witness that achieved it.

    Of the ``samples_used`` candidates, ``pruned`` were never evaluated,
    because their cap could not beat the best ratio or they repeat, byte for
    byte, a candidate evaluated before them; ``screened_feasible`` were
    scored 0 by ``ratio_at`` without a projection, ``failed`` raised in
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
    # the sup-norm distance from A u to the nonpositive orthant
    viol = float(max(0.0, (instance.A @ u).max()))
    floor = _VIOLATION_FLOOR * instance.frobenius_scale * euclidean_norm(u)
    if viol <= floor:
        return 0.0
    proj = project_onto_cone(instance, u)
    return proj.distance_lower / viol


def _norms(C: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``C``, rounded as ``euclidean_norm``
    rounds it: each row's ``c . c`` is one dot product, as in
    ``np.linalg.norm`` of a vector, whereas ``np.linalg.norm(C, axis=1)``
    sums the squares in another order and can differ by an ulp."""
    return np.sqrt((C[:, None, :] @ C[:, :, None])[:, 0, 0])


def _unit(C: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``C`` whose norm exceeds ``floor`` divided by that norm, and
    the boolean mask of those rows."""
    norms = _norms(C)
    keep = norms > floor
    return C[keep] / norms[keep, None], keep


def directed_candidates(
    instance: ProblemInstance, x_hat: np.ndarray | None = None
) -> np.ndarray:
    """Deterministic unit candidates aimed at the cone boundary, one per row.

    The base family holds the negated normalized nonzero rows among the
    first 64 of A (the steepest single-row violation directions) and, when
    supplied, the negated normalized interior witness of the slack rows.
    Then come the sum and the difference of each pair ``i < j`` of base
    members, in index order, each normalized and kept when its norm exceeds
    1e-8; the combinations matter because the best ratio often lives where
    two constraints interact rather than along a single row normal.  The
    cap of 128 pair vectors is checked before each pair, so a pair that
    starts at 127 adds both of its vectors and the family can hold 129.

    Returns
    -------
    ndarray, shape (k, n)
        The base members, then the pair vectors.
    """
    rows = instance.A[:_MAX_BASE]
    if x_hat is not None:
        rows = np.vstack([rows, np.asarray(x_hat, dtype=float).reshape(1, instance.n)])
    base = _unit(-rows, ZERO_NORM_FLOOR)[0]

    # Unit a, b have |a + b|^2 + |a - b|^2 = 4, so every pair adds at least
    # one vector and the cap is reached within its first 128 pairs.
    i, j = np.triu_indices(len(base), k=1)
    i, j = i[:_MAX_PAIR_VECTORS], j[:_MAX_PAIR_VECTORS]
    pairs = np.stack([base[i] + base[j], base[i] - base[j]], axis=1)
    pairs, keep = _unit(pairs.reshape(-1, instance.n), 1e-8)
    per_pair = keep.reshape(-1, 2).sum(axis=1)
    emitted_before = np.cumsum(per_pair) - per_pair
    open_pairs = np.repeat(emitted_before < _MAX_PAIR_VECTORS, 2)[keep]
    return np.vstack([base, pairs[open_pairs]])


def _gaussian_draws(seed: int, out: np.ndarray) -> None:
    """Fill row k of ``out`` with a unit Gaussian direction from the Philox
    stream keyed by ``(seed mod 2^64, k)``.

    One bit generator serves every row: before row k its state is reset to
    that of ``Philox(key=[seed mod 2^64, k])``, so the rows equal fresh
    generators' draws without building one per row.
    """
    bitgen = np.random.Philox(key=[seed % 2**64, 0])
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # zero counter, empty buffer
    key = state["state"]["key"]
    for k in range(len(out)):
        key[1] = k
        bitgen.state = state
        gen.standard_normal(out=out[k])
    norms = _norms(out)
    np.divide(out, norms[:, None], out=out, where=norms[:, None] > ZERO_NORM_FLOOR)


def _distance_caps(
    instance: ProblemInstance, U: np.ndarray, x_hat: np.ndarray | None
) -> np.ndarray:
    """Upper bounds on ``dist(u, P)`` for the rows u of ``U``: ``||u||``, or
    ``min(||u||, dist(u, K) + 4 (n + 2) eps ||u||)`` when the interior
    witness proves the cone K of ``lower_bound_monte_carlo``'s Notes."""
    norms = np.linalg.norm(U, axis=1)
    if x_hat is None:
        return norms
    gamma = _EPS * (instance.n + 2)
    x = np.asarray(x_hat, dtype=float).reshape(instance.n)
    with np.errstate(all="ignore"):  # a zero or non-finite witness gives NaN
        e = x / euclidean_norm(x)
        # no rows: P is the whole space, and every cap is 0 anyway
        sin_t = float((-(instance.unit_rows @ e)).min(initial=1.0))
    sin_t = sin_t * (1.0 - gamma) - 2.0 * gamma
    if not sin_t > 0.0:
        return norms
    cos_t = np.sqrt(1.0 - sin_t * sin_t)
    c = U @ e
    s = _norms(U - c[:, None] * e)
    dist = np.where(c * cos_t + s * sin_t >= 0.0,
                    np.maximum(s * cos_t - c * sin_t, 0.0), norms)
    return np.minimum(norms, dist + 4.0 * gamma * norms)


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
        keyed by (seed mod 2^64, k), so results are bit-reproducible for a
        given seed and sample count regardless of evaluation order.
    x_hat : ndarray, optional
        Interior witness from the row partition; its negation is a strong
        candidate because it violates every slack row at once.  When it is
        strictly interior to P (every nonzero row slack), it also tightens
        the candidates' caps (see the Notes).
    cfg : SolverConfig, optional
        Ignored: the projections are NNLS fits with no tolerances to set.  It
        is accepted only because the benchmark's ``perfbench/run.py`` passes
        a ``SolverConfig()``.

    Returns
    -------
    OracleResult
        ``lower_bound`` is 0 when no candidate produced a violation (for a
        zero matrix the cone is everything and no point has one).

    Notes
    -----
    Candidates are evaluated best-bound-first and the loop stops once none
    can win.  With ``viol(u) = max_i (A u)_i^+`` from one product over all
    candidates, each gets the cap ``D(u) / viol(u)`` (0 when viol(u) = 0),
    where ``D(u) >= dist(u, P)`` is ``||u||`` or the witness cone's bound
    below.  The cap bounds ``ratio_at(u)``: it is 0, or ``d(u) / viol(u)``
    where the certified distance bound ``d(u) <= dist(u, P) <= D(u)``.  A
    stable sort orders the candidates by cap, highest first, ties in
    candidate order.  The loop stops at the first candidate with
    ``cap (1 + 1e-9) <= best``.  Every later candidate v has
    ``cap(v) <= cap``, so ``ratio_at(v) <= cap(v) (1 + 1e-9) <= best``, and
    since ``best`` is replaced only by a strictly larger ratio, no later
    candidate can change it.  A candidate whose bytes equal those of one
    evaluated before it has the same ratio, which cannot replace ``best``
    either, so it is skipped and counted as pruned.  Hence ``lower_bound``
    is the maximum of ``ratio_at`` over all candidates, exactly what
    evaluating every one of them gives, and ``best_u`` can differ from that
    only among candidates tied at the maximum.

    The witness cone.  P, here the cone of the unit rows ``w_i`` the
    projections use, contains 0, so ``dist(u, P) <= ||u||``.  With a witness,
    let ``e = x_hat / ||x_hat||`` and ``delta = min_i -w_i'e``.  The ball of
    radius delta about e lies in P, since ``w_i'(e + h) <= w_i'e + ||h||``,
    and so, P being a cone, does the cone K over that ball: the circular
    cone about e with half-angle ``theta = asin(delta)``.  Hence
    ``dist(u, P) <= dist(u, K)``.  Write ``c = u'e`` and
    ``s = ||u - c e||``; u makes the angle phi with e where
    ``(c, s) = ||u|| (cos phi, sin phi)``.  If ``phi <= theta`` u lies in K;
    if ``theta < phi < theta + pi/2`` its nearest point in K lies on the
    boundary ray in the plane of u and e, at distance
    ``||u|| sin(phi - theta) = s cos(theta) - c sin(theta)``; otherwise it
    is the apex 0.  The first two cases are
    ``c cos(theta) + s sin(theta) >= 0``, where the distance is
    ``max(0, s cos(theta) - c sin(theta))``; the third gives ``||u||``.  So
    ``D(u) = min(||u||, dist(u, K) + 4 (n + 2) eps ||u||)``.  In floating
    point ``w_i`` and e have unit norm within ``gamma = (n + 2) eps``, and
    each computed ``w_i'e`` is within gamma of the exact one, so the
    computed minimum, times ``1 - gamma``, less ``2 gamma``, is at most the
    exact ``min_i -w_i'e / (||w_i|| ||e||)``, as in
    ``partition.slack_margin``; that is the delta used.  The slack
    ``4 (n + 2) eps ||u||`` covers the rounding in c, s and the closed form,
    each a few gamma ``||u||``.  When delta is not positive (NaN included,
    as for a zero witness, or the witness of a mixed split, which lies on
    the tight rows' hyperplanes) ``D(u) = ||u||``, as it is without one.

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
    directed = directed_candidates(instance, x_hat)
    U = np.empty((len(directed) + num_samples, instance.n))
    U[: len(directed)] = directed
    _gaussian_draws(seed, U[len(directed):])

    viol = np.max(U @ instance.A.T, axis=1, initial=0.0)
    cap = np.zeros(len(U))
    np.divide(_distance_caps(instance, U, x_hat), viol, out=cap, where=viol > 0.0)
    order = np.argsort(-cap, kind="stable")

    best = 0.0
    best_u: np.ndarray | None = None
    screened = failed = repeats = 0
    evaluated = len(U)
    seen: set[bytes] = set()
    for rank, k in enumerate(order):
        if cap[k] * (1.0 + _CAP_MARGIN) <= best:
            evaluated = rank
            break
        u = U[k]
        key = u.tobytes()
        if key in seen:
            repeats += 1
            continue
        seen.add(key)
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
        samples_used=len(U),
        screened_feasible=screened,
        pruned=len(U) - evaluated + repeats,
        failed=failed,
        seed=seed,
    )
