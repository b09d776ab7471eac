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

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    EPS,
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


@functools.cache
def _pair_index(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The first 128 pairs ``i < j`` of a base family of ``size`` members, in
    the order of ``np.triu_indices(size, 1)``: ``i`` ascending, then ``j``.
    Copied out of the full index arrays, so a cached entry holds 2 KB at
    most."""
    i, j = (idx[:_MAX_PAIR_VECTORS].copy() for idx in np.triu_indices(size, 1))
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _directed_family(
    instance: ProblemInstance, x_hat: np.ndarray | None, extra: int
) -> tuple[np.ndarray, int]:
    """The family of ``directed_candidates`` in the first rows of a new
    array, followed by ``extra`` rows left unfilled; returns the array and
    the family's length.

    Each stage writes into the array itself: the negated rows and witness,
    normalized with the zero rows dropped; the pair sums and differences
    right after the base, the vectors taken normalized and packed to the
    front of their stage.
    """
    n = instance.n
    A = instance.A[:_MAX_BASE]
    rows = len(A) + (x_hat is not None)
    # room for the pair vectors of the base before zero rows are dropped,
    # which is at least what the base after it forms
    buf = np.empty((rows + 2 * min(rows * (rows - 1) // 2, _MAX_PAIR_VECTORS) + extra, n))
    np.negative(A, out=buf[: len(A)])
    if x_hat is not None:
        np.negative(np.asarray(x_hat, dtype=float).reshape(n), out=buf[len(A)])
    norms = _norms(buf[:rows])
    keep = norms > ZERO_NORM_FLOOR
    size = int(np.count_nonzero(keep))
    buf[:size] = buf[:rows][keep] / norms[keep, None]

    # Unit a, b have |a + b|^2 + |a - b|^2 = 4, so every pair adds at least
    # one vector and the cap is reached within its first 128 pairs.
    i, j = _pair_index(size)
    bi, bj = buf[i], buf[j]
    pairs = buf[size : size + 2 * len(i)]
    np.add(bi, bj, out=pairs[0::2])
    np.subtract(bi, bj, out=pairs[1::2])
    norms = _norms(pairs)
    keep = norms > 1e-8
    per_pair = keep.reshape(-1, 2).sum(axis=1)
    emitted_before = np.cumsum(per_pair) - per_pair
    take = np.repeat(emitted_before < _MAX_PAIR_VECTORS, 2) & keep
    count = int(np.count_nonzero(take))
    pairs[:count] = pairs[take] / norms[take, None]
    return buf[: size + count + extra], size + count


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
    return _directed_family(instance, x_hat, 0)[0]


def _gaussian_draws(seed: int, out: np.ndarray) -> None:
    """Fill the rows of ``out`` with unit Gaussian directions, in order, from
    one Philox stream keyed by ``seed mod 2^64``.

    The integer key is taken exactly as the key words ``(seed mod 2^64, 0)``
    (a list key passes through float64, which maps every negative seed to 0
    and merges seeds above 2^63), so every seed mod 2^64 has its own stream,
    and a numpy integer seed draws what the equal Python integer draws.  The
    generator is built per call, so no state is shared between calls or
    threads, and the first k rows are the same for any number of rows.
    """
    gen = np.random.Generator(np.random.Philox(key=operator.index(seed) % 2**64))
    gen.standard_normal(out=out)
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
    gamma = EPS * (instance.n + 2)
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

    The candidates are one array built in place: the directed family of
    ``directed_candidates``, then ``num_samples`` rows that the Gaussian
    draws fill.  The draws come from a Philox generator built for the call,
    so threads may run the oracle at once and each gets what a run alone
    gives.

    Parameters
    ----------
    instance : ProblemInstance
        Problem data.
    num_samples : int
        Number of Gaussian draws appended to the directed family.
    seed : int
        Stream seed.  The draws are the successive Gaussians of one
        counter-based Philox stream keyed by seed mod 2^64, so results are
        bit-reproducible for a given seed regardless of evaluation order or
        thread, the first k draws do not depend on ``num_samples``, and
        distinct seeds mod 2^64 (negative ones included) draw distinct
        streams.
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
    U, family = _directed_family(instance, x_hat, num_samples)
    _gaussian_draws(seed, U[family:])

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
