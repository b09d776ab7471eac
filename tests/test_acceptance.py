"""End-to-end acceptance checks.

Each criterion is one test that prints a single PASS/FAIL line with the
measured quantities before asserting.  Module-scoped fixtures share the
randomized suites between criteria, so the audit and determinism checks
run against exactly the instances the sandwich checks saw.
"""

import time

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
