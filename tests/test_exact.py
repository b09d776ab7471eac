"""Exact H0 by vertex enumeration as the yardstick of both bounds.

``helpers.exact_H0`` brackets H0 on inputs of at most 18 rows and rank 8.
The certified upper bound must not fall below its lower end, and the
oracle's sampled lower bound must not rise above its upper end.
"""

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoffbound import HoffboundError, bound_h0, lower_bound_monte_carlo
from hoffbound.io import SANDWICH_RTOL

from helpers import (
    C4,
    closed_form_H0,
    degenerate_matrix,
    eps_block,
    exact_H0,
    gaussian_matrix,
    instance,
    planted_mixed_matrix,
)


def _bracketed(lower: float, exact: tuple[float, float], upper: float) -> bool:
    """``lower <= H0 <= upper`` against the two ends of ``exact_H0``, each
    within the command line's sandwich slack."""
    low_end, high_end = exact
    return (lower <= high_end + SANDWICH_RTOL * (1.0 + high_end)
            and low_end <= upper + SANDWICH_RTOL * (1.0 + upper))


@pytest.mark.parametrize("A, h0", [
    (np.zeros((2, 3)), 0.0),
    (np.array([[3.0, 4.0]]), 0.2),
    (np.array([[0.0, 0.0], [0.0, -2.0]]), 0.5),
    (-np.eye(5), np.sqrt(5.0)),
    (-np.diag([1.0, 2.0, 3.0]), np.sqrt(1.0 + 1.0 / 4.0 + 1.0 / 9.0)),
    (np.array([[1.0], [-1.0]]), 1.0),
    (C4, np.sqrt(2.0)),
    (eps_block(1e-3), np.hypot(1.0, 1e3)),
], ids=["zero", "row", "zero_row", "orthant", "diagonal", "pair", "C4", "eps_block"])
def test_exact_h0_meets_the_known_values(A, h0):
    # closed_form_H0 where it has a value, and the hand-derived H0 of the
    # tight pair, C4 (u = (1, -1)) and the eps block (u = (1, 1 / eps))
    cf = closed_form_H0(A)
    assert cf is None or cf == pytest.approx(h0, rel=1e-15)
    low, high = exact_H0(A)
    assert low <= high
    assert low == pytest.approx(h0, rel=1e-12) and high == pytest.approx(h0, rel=1e-12)


def test_exact_h0_refuses_inputs_beyond_its_caps():
    with pytest.raises(ValueError, match="exceed the caps"):
        exact_H0(np.random.default_rng(0).standard_normal((19, 3)))
    with pytest.raises(ValueError, match="exceed the caps"):
        exact_H0(np.random.default_rng(0).standard_normal((12, 9)))


_INPUTS = st.one_of(
    st.builds(planted_mixed_matrix, st.integers(0, 2**16),
              st.integers(5, 14), st.integers(2, 6)),
    st.builds(gaussian_matrix, st.integers(0, 2**16), st.just(12), st.just(6)),
    st.builds(degenerate_matrix, st.integers(0, 2**16)),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(A=_INPUTS)
def test_the_bounds_bracket_exact_h0(A):
    # small planted mixed, Gaussian and degenerate inputs of every branch;
    # upper / exact says how loose the certificate is, exact / lower how
    # loose the oracle
    inst = instance(A)
    try:
        rep = bound_h0(inst)
    except HoffboundError:
        return
    low = lower_bound_monte_carlo(inst, num_samples=16, seed=0,
                                  x_hat=rep.partition.x_hat).lower_bound
    exact = exact_H0(A)
    ratios = (f"upper/exact {rep.total / exact[0]:.3g}, exact/lower {exact[1] / low:.3g}"
              if exact[0] > 0.0 and low > 0.0 else f"exact {exact[1]!r}")
    print(f"{rep.branch} {A.shape[0]}x{A.shape[1]}: {ratios}")
    assert _bracketed(low, exact, rep.total), (low, exact, rep.total)


# planted general inputs: 12x6 for seeds 0-7, 16x6 for 0-5 and 18x8 for 0-3,
# each drawn from default_rng([seed, m, n])
_SMALL_GENERAL = [(s, m, n) for m, n, count in ((12, 6, 8), (16, 6, 6), (18, 8, 4))
                  for s in range(count)]


def test_the_general_total_lies_between_exact_h0_and_the_papers_product():
    # the decomposition bound lowers the general total, never below H0:
    # upper/exact p50/p90 1.74/3.09 (min 1.04), against 7.45/13.3 for the
    # paper's stitch * max(case N, case B); with the ball and box forms of
    # tau alone they were 2.89/4.46 (min 1.53)
    totals, papers = [], []
    for s, m, n in _SMALL_GENERAL:
        A = planted_mixed_matrix([s, m, n], m, n)
        rep = bound_h0(instance(A))
        assert rep.branch == "general", (s, m, n)
        low = exact_H0(A)[0]
        paper = rep.stitch.value * max(rep.case_n.value, rep.case_b.value)
        assert low <= rep.total <= paper, (s, m, n, low, rep.total, paper)
        totals.append(rep.total / low)
        papers.append(paper / low)
    for name, ratios in (("total", totals), ("paper", papers)):
        p50, p90 = (statistics.quantiles(ratios, n=100, method="inclusive")[q - 1]
                    for q in (50, 90))
        print(f"{name}/exact over {len(ratios)} general inputs: min {min(ratios):.3g}, "
              f"p50 {p50:.3g}, p90 {p90:.3g}")
        if name == "total":
            assert p50 <= 1.8 and p90 <= 3.2, (p50, p90)


def test_a_forged_upper_bound_below_exact_is_caught():
    # the report of eps = 1e-6 with its total forged to the 2.83 that a
    # second rank cut once gave (test_audit), where H0 is 1e6
    A = eps_block(1e-6)
    exact = exact_H0(A)
    assert _bracketed(1.0, exact, bound_h0(instance(A)).total)
    assert not _bracketed(1.0, exact, 2.0 * np.sqrt(2.0))
    assert not _bracketed(1.0, exact, exact[0] * (1.0 - 1e-5))
