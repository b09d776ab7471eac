"""Shared instance generators for the test suite.

All generators are seed-deterministic so every test run sees the same
matrices.  The degenerate family cycles five shapes of rank deficiency
and row duplication that exercise the partition and stitching paths.
"""

import importlib.resources
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from hoffbound import ProblemInstance
from hoffbound.core import euclidean_norm, row_norms
from hoffbound.numerics import TightBlock
from hoffbound.solvers.programs import project_onto_cone, solve_partition_lp

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"

# Two tight rows +-e_1 and one slack row -e_2: B = (0, 1), N = (2,).
C4 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])


def eps_block(eps: float) -> np.ndarray:
    """Four tight rows +-e_1, +-eps e_2: P = {0}, and u = e_2 gives H0 >= 1/eps."""
    return np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, eps], [0.0, -eps]])


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
    return planted_mixed_witness(seed, m, n)[:2]


def planted_mixed_witness(
    seed: int, m: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``planted_mixed_split`` together with the planted unit direction d:
    the slack rows have ``a'd < 0`` and the tight rows ``a'd = 0``."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    perp = np.eye(n) - np.outer(d, d)
    pairs = min(m // 5, n // 2)
    R = rng.standard_normal((pairs, n)) @ perp
    G = rng.standard_normal((m - 2 * pairs, n)) @ perp
    slack = G - rng.uniform(0.2, 1.0, size=(G.shape[0], 1)) * d[None, :]
    order = rng.permutation(m)
    return np.vstack([R, -R, slack])[order], order >= 2 * pairs, d


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


def exact_H0(A: np.ndarray, max_rows: int = 18, max_rank: int = 8) -> tuple[float, float]:
    """H0(A) by vertex enumeration: a ``(lower, upper)`` pair around it.

    H0(A) is the largest ``dist(v, P)`` over the vertices v of
    ``{u in row(A) : A u <= 1}``.  By homogeneity H0 is the supremum of
    ``dist(u, P)`` over ``A u <= 1``, and u may be taken in row(A), since
    null(A) lies in P and in -P and moves neither the distance nor the
    violation.  In row-space coordinates ``u = V c`` the set
    ``{M c <= 1}``, ``M = A V``, is pointed; ``dist(., P)`` is convex and
    does not grow along its recession cone, which lies in P, so its maximum
    is at a vertex (Rockafellar, *Convex Analysis*, 1970, sec. 32).

    A vertex solves ``M_I c = 1`` for r independent rows I (r the rank of
    ``TightBlock(A)``), and every r-subset is solved.  Each basic solution
    within 1e-6 of ``M c <= 1`` is scored by ``dist(u, P) / max(A u)``:
    that ratio is at most H0 at any u, so a near-feasible point that is not
    a vertex cannot raise the maximum.  ``project_onto_cone`` gives the
    distance's certified lower end (``distance_lower``) and its upper end
    (``distance``); ``lower`` is at most H0 at any rounding, and ``upper``
    is at least H0 up to the rounding of the vertices.  Raises
    ``ValueError`` above ``max_rows`` rows or ``max_rank``, where the
    C(m, r) solves grow out of a test's budget.
    """
    A = np.asarray(A, dtype=float)
    block = TightBlock(A)
    r, m = block.rank, A.shape[0]
    if m > max_rows or r > max_rank:
        raise ValueError(f"{m} rows of rank {r} exceed the caps {max_rows} and {max_rank}")
    if r == 0:
        return 0.0, 0.0
    M = A @ block.V
    bases = M[np.array(list(itertools.combinations(range(m), r)))]
    s = np.linalg.svd(bases, compute_uv=False)
    bases = bases[s[:, -1] > 1e-10 * s[:, 0]]
    C = np.linalg.solve(bases, np.ones((bases.shape[0], r, 1)))[..., 0]
    C = np.unique(C[(C @ M.T).max(axis=1) <= 1.0 + 1e-6], axis=0)
    inst = ProblemInstance.from_matrix(A)
    lower = upper = 0.0
    for u in C @ block.V.T:
        viol = float((A @ u).max())
        proj = project_onto_cone(inst, u)
        lower = max(lower, proj.distance_lower / viol)
        upper = max(upper, proj.distance / viol)
    return lower, upper


def directed_candidates_loop(A: np.ndarray, x_hat: np.ndarray | None = None) -> list[np.ndarray]:
    """Reference directed family, one vector at a time.

    The family as ``hoffbound.directed_candidates`` defined it when it was a
    loop: the negated unit rows among the first 64 of A, the negated unit
    ``x_hat``, then the unit sum and difference of each pair ``i < j`` with
    norm above 1e-8, in index order, with the cap of 128 pair vectors
    checked before each pair.  Each norm is one ``euclidean_norm`` call.
    """
    base = []
    for v in list(A[:64]) + ([] if x_hat is None else [np.asarray(x_hat, dtype=float)]):
        nrm = euclidean_norm(v)
        if nrm > 1e-300:
            base.append(-v / nrm)
    out = list(base)
    emitted = 0
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            if emitted >= 128:
                return out
            for sign in (1.0, -1.0):
                combo = base[i] + sign * base[j]
                nrm = euclidean_norm(combo)
                if nrm > 1e-8:
                    out.append(combo / nrm)
                    emitted += 1
    return out


def instance(A) -> ProblemInstance:
    return ProblemInstance.from_matrix(np.asarray(A, dtype=float))


def optimal_lp(A):
    """The partition LP of A run to its give-up targets by an ``accept``
    that never accepts: the record of its last iterate, and that iterate's
    y and s."""
    last = []

    def never(x, y, s):
        last[:] = y.copy(), s.copy()

    accepted, lp = solve_partition_lp(TightBlock(A), never)
    assert accepted is None
    return lp, *last


def benchmark_matrix(workload: str, seed: int, name: str) -> np.ndarray:
    """The matrix of one case of the benchmark's ``make_cases``."""
    return benchmark_case(workload, seed, name).A


def benchmark_case(workload: str, seed: int, name: str):
    """One case of the benchmark's ``make_cases``: name, matrix, oracle seed."""
    module = load_file_module("perfbench_workloads", WORKLOADS_PATH)
    return next(c for c in module.make_cases(workload, seed) if c.name == name)


def report_schema() -> dict:
    """The JSON schema shipped with the package for reports."""
    path = importlib.resources.files("hoffbound") / "schemas" / "report-v1.schema.json"
    return json.loads(path.read_text())


def load_file_module(name: str, path: Path):
    """Execute the Python file at ``path`` as a module called ``name``.

    The file is read, never written: no bytecode cache is left next to it.
    """
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[name] = module
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[name]
    return module


def record_svd_inputs(monkeypatch) -> list[np.ndarray]:
    """Route ``np.linalg.svd`` through a wrapper for the rest of the test;
    returns the list each call's input matrix is appended to."""
    inputs: list[np.ndarray] = []
    svd = np.linalg.svd

    def recording(M, *args, **kwargs):
        inputs.append(np.array(M))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return inputs


def count_scaled_copies(matrices: list[np.ndarray], M: np.ndarray) -> int:
    """How many of ``matrices`` equal ``c M`` for some scalar ``c > 0``, up
    to the rounding of the scaling (exact for a power of two)."""
    k = np.unravel_index(np.argmax(np.abs(M)), M.shape)
    count = 0
    for X in matrices:
        if X.shape == M.shape:
            c = X[k] / M[k]
            count += bool(c > 0.0 and np.allclose(X, c * M, rtol=1e-14, atol=0.0))
    return count
