"""Seeded instance generators for the benchmark workloads.

Each workload is a fixed list of base matrices.  The workload seed gives
every matrix a random orthogonal change of coordinates and a random row
order, and it seeds the oracle's sample stream.  H0 is unchanged by both
transforms, so a seed changes every input bit and the oracle's search but
not how hard the problems are; that keeps the gap ratios and the timings
comparable from seed to seed.  Seed 0 applies no transform.

* ``suite``: the acceptance mix, 100 Gaussian matrices of at most 20x10 and
  20 degenerate ones in five styles.  At seed 0 the matrices and the oracle
  seeds are those of the acceptance test (generator seeds 5000+k, 6000+k).
* ``ladder``: planted mixed-branch instances from 25x10 to 400x40 with a known
  tight/slack split, run without the oracle.
* ``tall``: 40-80 rows by 6-12 columns, alternating Gaussian matrices (every
  row tight) with planted mixed-branch ones, run with the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("suite", "ladder", "tall")
SIZES = ("full", "smoke")

# Gaussian oracle draws per instance, as in the acceptance suite.
ORACLE_SAMPLES = 16

_LADDER_SHAPES = ((25, 10), (50, 10), (100, 20), (200, 40), (400, 40))
_TALL_COUNT = 12


@dataclass(frozen=True)
class Case:
    """One input of a workload.

    ``planted`` holds the tight and slack row indices the generator built in,
    or None when the split is not known in advance.  ``oracle_seed`` is None
    when the workload runs without the sampling oracle.
    """

    name: str
    A: np.ndarray
    oracle_seed: int | None
    planted: tuple[tuple[int, ...], tuple[int, ...]] | None = None


# _gaussian and _degenerate are frozen copies of gaussian_matrix and
# degenerate_matrix in tests/helpers.py, kept here on purpose so that a change
# to the tests cannot change the benchmark's inputs.  smoke.py asserts that
# seed-0 suite still equals the acceptance suite built from tests/helpers.py.
def _gaussian(key: int) -> np.ndarray:
    rng = np.random.default_rng(key)
    m = int(rng.integers(1, 21))
    n = int(rng.integers(1, 11))
    return rng.standard_normal((m, n))


def _degenerate(key: int) -> np.ndarray:
    rng = np.random.default_rng(key)
    m = int(rng.integers(2, 15))
    n = int(rng.integers(1, 9))
    style = key % 5
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


def planted_mixed(rng: np.random.Generator, m: int, n: int):
    """Mixed-branch matrix with a known split, rows in shuffled order.

    A unit direction d lies in the cone.  Pairs of rows +r, -r with r
    orthogonal to d are tight; every other row has a'd < 0 and is slack,
    with d as its witness.  Returns (A, B, N) with sorted index tuples.
    """
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    perp = np.eye(n) - np.outer(d, d)
    pairs = min(m // 5, n // 2)
    R = rng.standard_normal((pairs, n)) @ perp
    G = rng.standard_normal((m - 2 * pairs, n)) @ perp
    slack = G - rng.uniform(0.2, 1.0, size=(G.shape[0], 1)) * d[None, :]
    order = rng.permutation(m)
    A = np.vstack([R, -R, slack])[order]
    tight = order < 2 * pairs
    B = tuple(int(i) for i in np.flatnonzero(tight))
    N = tuple(int(i) for i in np.flatnonzero(~tight))
    return A, B, N


def _transform(case: Case, seed: int, key: int) -> Case:
    """Rotate the columns and permute the rows of a base case by seed."""
    if seed == 0:
        return case
    rng = np.random.default_rng([seed, key])
    m, n = case.A.shape
    # Haar-distributed orthogonal matrix: QR of a Gaussian with the signs of
    # R's diagonal moved into Q.
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.where(np.diag(R) < 0.0, -1.0, 1.0)
    perm = rng.permutation(m)
    # Row by row, so equal rows stay bitwise equal and opposite rows stay
    # exact negations, as the degenerate styles need.
    A = np.array([row @ Q for row in case.A[perm]])
    planted = None
    if case.planted is not None:
        tight = set(case.planted[0])
        B = tuple(i for i in range(m) if perm[i] in tight)
        N = tuple(i for i in range(m) if perm[i] not in tight)
        planted = (B, N)
    return Case(case.name, A, case.oracle_seed, planted)


def _suite_base(size: str) -> list[Case]:
    gauss, degen = (100, 20) if size == "full" else (8, 5)
    cases = [Case(f"gaussian-{k}", _gaussian(5000 + k), k) for k in range(gauss)]
    cases += [Case(f"degenerate-{k}", _degenerate(6000 + k), gauss + k)
              for k in range(degen)]
    return cases


def _ladder_base(size: str) -> list[Case]:
    shapes = _LADDER_SHAPES if size == "full" else _LADDER_SHAPES[:2]
    cases = []
    for k, (m, n) in enumerate(shapes):
        A, B, N = planted_mixed(np.random.default_rng(200 + k), m, n)
        cases.append(Case(f"mixed-{m}x{n}", A, None, (B, N)))
    return cases


def _tall_base(size: str) -> list[Case]:
    count = _TALL_COUNT if size == "full" else 2
    cases = []
    for k in range(count):
        m = 40 + round(40 * k / (_TALL_COUNT - 1))
        n = 6 + round(6 * k / (_TALL_COUNT - 1))
        rng = np.random.default_rng(300 + k)
        if k % 2 == 0:
            cases.append(Case(f"gaussian-{m}x{n}", rng.standard_normal((m, n)), k))
        else:
            A, B, N = planted_mixed(rng, m, n)
            cases.append(Case(f"mixed-{m}x{n}", A, k, (B, N)))
    return cases


_BASES = {"suite": _suite_base, "ladder": _ladder_base, "tall": _tall_base}


def make_cases(workload: str, seed: int, size: str = "full") -> list[Case]:
    """The inputs of one workload; the same arguments give the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    cases = []
    for key, base in enumerate(_BASES[workload](size)):
        oracle_seed = None if base.oracle_seed is None else 1000 * seed + base.oracle_seed
        base = Case(base.name, base.A, oracle_seed, base.planted)
        cases.append(_transform(base, seed, key))
    return cases
