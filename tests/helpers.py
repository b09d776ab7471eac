"""Shared instance generators for the test suite.

All generators are seed-deterministic so every test run sees the same
matrices.  The degenerate family cycles five shapes of rank deficiency
and row duplication that exercise the partition and stitching paths.
"""

import numpy as np

from hoffbound import ProblemInstance


def gaussian_matrix(seed: int, max_m: int = 20, max_n: int = 10) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(1, max_n + 1))
    return rng.standard_normal((m, n))


def degenerate_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 15))
    n = int(rng.integers(1, 9))
    style = seed % 5
    if style == 0:
        # exact duplicated rows
        half = rng.standard_normal((max(1, m // 2), n))
        return np.vstack([half, half])[:m]
    if style == 1:
        # low-rank product
        r = max(1, min(m, n) // 2)
        return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    if style == 2:
        # zero rows mixed into a dense matrix
        A = rng.standard_normal((m, n))
        A[rng.integers(0, m)] = 0.0
        A[rng.integers(0, m)] = 0.0
        return A
    if style == 3:
        # opposing row pairs, forcing a nonempty tight block
        half = rng.standard_normal((max(1, m // 2), n))
        return np.vstack([half, -half])[:m]
    # scaled copies of a single row plus one independent row
    base = rng.standard_normal(n)
    A = np.outer(rng.uniform(0.5, 2.0, size=m), base)
    if m > 1:
        A[-1] = rng.standard_normal(n)
    return A


def planted_mixed_matrix(seed: int, m: int, n: int) -> np.ndarray:
    """Mixed-branch matrix with a planted split, rows in shuffled order.

    A unit direction d lies in the cone.  Pairs of rows +r, -r with r
    orthogonal to d are tight; every other row has a'd < 0 and is slack.
    """
    return planted_mixed_split(seed, m, n)[0]


def planted_mixed_split(seed: int, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``planted_mixed_matrix`` together with the boolean mask of its slack rows."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    perp = np.eye(n) - np.outer(d, d)
    pairs = min(m // 5, n // 2)
    R = rng.standard_normal((pairs, n)) @ perp
    G = rng.standard_normal((m - 2 * pairs, n)) @ perp
    slack = G - rng.uniform(0.2, 1.0, size=(G.shape[0], 1)) * d[None, :]
    order = rng.permutation(m)
    return np.vstack([R, -R, slack])[order], order >= 2 * pairs


def instance(A) -> ProblemInstance:
    return ProblemInstance.from_matrix(np.asarray(A, dtype=float))
