"""Shared instance generators for the test suite.

All generators are seed-deterministic so every test run sees the same
matrices.  The degenerate family cycles five shapes of rank deficiency
and row duplication that exercise the partition and stitching paths.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from hoffbound import ProblemInstance
from hoffbound.numerics import row_norms

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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


def closed_form_H0(A: np.ndarray) -> float | None:
    """Exact constant for the few shapes that admit one, else None.

    Supported shapes: the zero matrix (0 by convention), a single nonzero
    row among zero rows (1 over its Euclidean norm; the distance to a
    halfspace is the violation over the normal's length, and zero rows
    change nothing), and a strictly negative diagonal (the cone is the
    nonnegative orthant; pushing each coordinate to violation 1 costs
    1/|a_ii| per axis, accumulated in quadrature).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    m, n = A.shape

    if float(np.abs(A).max(initial=0.0)) == 0.0:
        return 0.0

    norms = row_norms(A)
    nonzero = np.flatnonzero(norms > 0.0)
    if nonzero.size == 1:
        return 1.0 / float(norms[nonzero[0]])

    if m == n:
        diag = np.diag(A)
        off = A - np.diag(diag)
        if np.all(diag < 0.0) and float(np.abs(off).max(initial=0.0)) == 0.0:
            return float(np.sqrt(np.sum(1.0 / diag**2)))

    return None


def instance(A) -> ProblemInstance:
    return ProblemInstance.from_matrix(np.asarray(A, dtype=float))


def benchmark_matrix(workload: str, seed: int, name: str) -> np.ndarray:
    """The matrix of one case of the benchmark's ``make_cases``."""
    return benchmark_case(workload, seed, name).A


def benchmark_case(workload: str, seed: int, name: str):
    """One case of the benchmark's ``make_cases``: name, matrix, oracle seed.

    ``perfbench/workloads.py`` is loaded in place and never written to: no
    bytecode cache is left next to it.
    """
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return next(c for c in module.make_cases(workload, seed) if c.name == name)
