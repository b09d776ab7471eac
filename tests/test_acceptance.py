"""End-to-end acceptance checks.

Each criterion is one test that prints a single PASS/FAIL line with the
measured quantities before asserting.  Module-scoped fixtures share the
randomized suites between criteria, so the audit and determinism checks
run against exactly the instances the sandwich checks saw.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from hoffbound import audit_report, bound_h0, canonical_report_json
from hoffbound.cli import pipeline

from helpers import C4, closed_form_H0, degenerate_matrix, gaussian_matrix, instance

SQRT5 = 2.23606797749979
TWO_SQRT2 = 2.8284271247461903
SIX_SQRT2 = 8.485281374238571
SQRT2 = 1.4142135623730951

C2 = np.array([[3.0, 4.0]])
C3 = np.array([[1.0], [-1.0]])

SUITE_SEEDS = ([("gaussian", 5000 + k) for k in range(100)]
               + [("degenerate", 6000 + k) for k in range(20)])


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run(A, *, samples, seed):
    """The command line's pipeline on A: (instance, report, audit, oracle,
    payload)."""
    inst = instance(A)
    return (inst, *pipeline(inst, samples, seed))


def _exact_products(A, x):
    """``A x`` in exact rational arithmetic on the stored floats."""
    xs = [Fraction(v) for v in x.tolist()]
    return [sum((Fraction(a) * v for a, v in zip(row, xs)), Fraction(0))
            for row in A.tolist()]


def _exact_sq_norm(x):
    """``||x||^2`` in exact rational arithmetic on the stored floats."""
    return sum((Fraction(v) ** 2 for v in x.tolist()), Fraction(0))


def _suite_matrix(kind, seed):
    return gaussian_matrix(seed) if kind == "gaussian" else degenerate_matrix(seed)


def _run_suite():
    t0 = time.perf_counter()
    rows = [_run(_suite_matrix(kind, seed), samples=16, seed=k)
            for k, (kind, seed) in enumerate(SUITE_SEEDS)]
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sandwich_suite():
    return _run_suite()


@pytest.fixture(scope="module")
def scaling_runs():
    runs = []
    for k in range(20):
        A = gaussian_matrix(7000 + k)
        runs.append([(alpha, instance(alpha * A), bound_h0(instance(alpha * A)))
                     for alpha in (0.01, 1.0, 100.0)])
    return runs


@pytest.fixture(scope="module")
def perm_runs():
    runs = []
    for k in range(20):
        A = gaussian_matrix(8000 + k)
        base_inst = instance(A)
        base_rep = bound_h0(base_inst)
        prng = np.random.default_rng(9000 + k)
        variants = []
        for _ in range(5):
            perm = prng.permutation(A.shape[0])
            inst = instance(A[perm])
            variants.append((perm, inst, bound_h0(inst)))
        runs.append((base_inst, base_rep, variants))
    return runs


def test_criterion_01_tight_orthant_instance():
    t0 = time.perf_counter()
    inst, rep, _, orc, _ = _run(-np.eye(5), samples=8, seed=0)
    elapsed = time.perf_counter() - t0
    err = abs(rep.total - SQRT5)
    lower_err = abs(orc.lower_bound - SQRT5)
    gap = rep.total / orc.lower_bound
    ok = (err <= 1e-6 and lower_err <= 1e-6 and gap <= 1.0 + 1e-6
          and elapsed < 1.0)
    _line(1, ok, f"total={rep.total!r} (err {err:.1e}), lower={orc.lower_bound!r} "
                 f"(err {lower_err:.1e}), gap-1={gap - 1.0:.1e}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_single_row_closed_form():
    inst, rep, *_ = _run(C2, samples=4, seed=0)
    cf = closed_form_H0(inst.A)
    err = abs(rep.total - 0.2)
    ok = err <= 1e-6 and cf is not None and abs(rep.total - cf) <= 1e-12
    _line(2, ok, f"total={rep.total!r} (err {err:.1e}), closed form {cf!r}, "
                 f"diff {abs(rep.total - cf):.1e}")


def test_criterion_03_lineality_only_instance():
    inst, rep, _, orc, payload = _run(C3, samples=8, seed=0)
    err = abs(rep.total - TWO_SQRT2)
    lower_err = abs(orc.lower_bound - 1.0)
    ok = (rep.partition.B == (0, 1) and rep.partition.N == ()
          and err <= 1e-6 and lower_err <= 1e-6 and payload["sandwich"]["ok"])
    _line(3, ok, f"B={rep.partition.B} N={rep.partition.N}, total={rep.total!r} "
                 f"(err {err:.1e}), lower={orc.lower_bound!r} (err {lower_err:.1e})")


def test_criterion_04_mixed_instance():
    inst, rep, _, orc, payload = _run(C4, samples=8, seed=0)
    comp_errs = (abs(rep.case_n.value - 1.0),
                 abs(rep.case_b.value - TWO_SQRT2),
                 abs(rep.stitch.value - 3.0))
    total_err = abs(rep.total - SIX_SQRT2)
    ok = (rep.partition.B == (0, 1) and rep.partition.N == (2,)
          and max(comp_errs) <= 1e-6 and total_err <= 1e-3
          and orc.lower_bound >= SQRT2 - 1e-3 and payload["sandwich"]["ok"])
    _line(4, ok, f"B={rep.partition.B} N={rep.partition.N}, components "
                 f"({rep.case_n.value!r}, {rep.case_b.value!r}, {rep.stitch.value!r}), "
                 f"total={rep.total!r} (err {total_err:.1e}), lower={orc.lower_bound!r}")


def test_criterion_05_randomized_sandwich_suite(sandwich_suite):
    rows, elapsed = sandwich_suite
    violations = [k for k, (*_, payload) in enumerate(rows)
                  if not payload["sandwich"]["ok"]]
    ok = len(rows) == 120 and not violations and elapsed < 60.0
    _line(5, ok, f"{len(rows)} instances (100 gaussian + 20 degenerate), "
                 f"{len(violations)} sandwich violations, {elapsed:.1f} s")


def test_criterion_06_scaling_law(scaling_runs):
    worst = 0.0
    for per_alpha in scaling_runs:
        base_total = next(rep.total for alpha, _, rep in per_alpha if alpha == 1.0)
        for alpha, _, rep in per_alpha:
            worst = max(worst, abs(rep.total * alpha - base_total) / base_total)
    ok = worst <= 1e-6
    _line(6, ok, f"20 instances x alpha in (0.01, 1, 100), worst rel err {worst:.2e}")


def test_criterion_07_permutation_invariance(perm_runs):
    worst = 0.0
    mismatches = 0
    for base_inst, base_rep, variants in perm_runs:
        B0, N0 = set(base_rep.partition.B), set(base_rep.partition.N)
        for perm, _, rep in variants:
            Bp = {int(perm[i]) for i in rep.partition.B}
            Np = {int(perm[i]) for i in rep.partition.N}
            if (Bp, Np) != (B0, N0):
                mismatches += 1
            worst = max(worst, abs(rep.total - base_rep.total) / base_rep.total)
    ok = mismatches == 0 and worst <= 1e-8
    _line(7, ok, f"20 instances x 5 permutations, {mismatches} partition mismatches, "
                 f"worst total rel err {worst:.2e}")


def test_criterion_08_certificate_audit(sandwich_suite, scaling_runs, perm_runs):
    # the closed-form and suite reports carry the pipeline's own audit
    audits = [_run(A, samples=0, seed=0)[2] for A in (-np.eye(5), C2, C3, C4)]
    audits += [audit for _, _, audit, _, _ in sandwich_suite[0]]
    reports = [(inst, rep) for per_alpha in scaling_runs for _, inst, rep in per_alpha]
    for base_inst, base_rep, variants in perm_runs:
        reports += [(base_inst, base_rep)] + [(inst, rep) for _, inst, rep in variants]
    audits += [audit_report(inst, rep) for inst, rep in reports]
    failures = [res.failures for res in audits if not res.ok]
    _line(8, not failures, f"{len(audits)} reports re-verified by the solver-free "
                           f"audit, {len(failures)} failures")


def test_criterion_09_determinism(sandwich_suite):
    rows, _ = sandwich_suite
    rerun, _ = _run_suite()
    mismatches = sum(1 for a, b in zip(rows, rerun)
                     if canonical_report_json(a[-1]) != canonical_report_json(b[-1]))
    ok = len(rerun) == len(rows) and mismatches == 0
    _line(9, ok, f"{len(rows)} canonical reports recomputed, "
                 f"{mismatches} byte-level mismatches")


def test_the_partition_lp_runs_only_on_mixed_splits(sandwich_suite):
    # least-squares witnesses and the least-distance stage prove every
    # one-sided split of the suite; the LP, which leaves residuals on the
    # certificate, decides exactly the mixed ones
    rows, _ = sandwich_suite
    ran = [rep.partition.lp is not None for _, rep, *_ in rows]
    mixed = [bool(rep.partition.B and rep.partition.N) for _, rep, *_ in rows]
    print(f"partition LP ran on {sum(ran)} of {len(rows)} suite inputs, "
          f"{sum(mixed)} of them mixed")
    assert ran == mixed
    assert sum(mixed) == 4


def test_the_partition_witnesses_hold_in_exact_arithmetic(sandwich_suite):
    # x_hat and y_bar prove strict inequalities, evaluated here on their
    # stored floats with no rounding: A_N x_hat < 0 and y_bar > 0
    rows, _ = sandwich_suite
    failures = []
    for k, (inst, rep, *_) in enumerate(rows):
        part = rep.partition
        if part.N and not max(_exact_products(inst.A[list(part.N)], part.x_hat)) < 0:
            failures.append(f"{k}: A_N x_hat")
        if rep.case_b is not None and not all(Fraction(y) > 0 for y in rep.case_b.y_bar.tolist()):
            failures.append(f"{k}: y_bar")
    print(f"{len(rows)} suite reports, {len(failures)} exact witness failures")
    assert failures == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="case N's and the stitch's witnesses and values are "
                          "computed in floating point, and some miss what they "
                          "claim by ~1e-15 (ROADMAP item 21)")
def test_the_value_witnesses_hold_in_exact_arithmetic(sandwich_suite):
    # case N: min(A_N x_bar) >= 1 and value >= ||x_bar|| / min(A_N x_bar);
    # the stitch: a_i'w_bar >= ||a_i|| on each slack row and
    # value >= 1 + 2 ||w_bar|| / min_i (a_i'w_bar / ||a_i||).  Each holds in
    # exact rational arithmetic on the stored floats, squared to keep the
    # norms rational.
    rows, _ = sandwich_suite
    failures = []
    for k, (inst, rep, *_) in enumerate(rows):
        A_N = inst.A[list(rep.partition.N)]
        if rep.case_n is not None:
            x = rep.case_n.x_bar
            low = min(_exact_products(A_N, x))
            if not low >= 1:
                failures.append(f"{k}: case-N margin misses 1 by {float(1 - low):.1e}")
            if not (low > 0 and Fraction(rep.case_n.value) ** 2 * low**2 >= _exact_sq_norm(x)):
                failures.append(f"{k}: case-N value")
        if rep.stitch is not None:
            w = rep.stitch.w_bar
            dots = _exact_products(A_N, w)
            rows_sq = [_exact_sq_norm(a) for a in A_N]
            if not all(d > 0 and d * d >= r for d, r in zip(dots, rows_sq)):
                failures.append(f"{k}: stitch margin")
            half = (Fraction(rep.stitch.value) - 1) / 2
            low_sq = min(d * d / r for d, r in zip(dots, rows_sq))
            if not (min(dots) > 0 and half >= 0 and half**2 * low_sq >= _exact_sq_norm(w)):
                failures.append(f"{k}: stitch value")
    print(f"{len(rows)} suite reports, {len(failures)} exact witness failures:",
          *failures, sep="\n")
    assert failures == []
