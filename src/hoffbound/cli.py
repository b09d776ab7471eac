"""Command-line entry point.

``hoffbound compute --input matrix.csv`` loads a matrix, certifies the upper
bound, optionally runs the sampling oracle, and prints either a text summary
or a JSON payload.  Exit codes: 0 on success (including a run with the
oracle disabled by ``--samples 0``), 2 when the sampled lower bound
contradicts the certified upper bound, 1 on input or solver errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import bound_h0
from .core import HoffboundError, ProblemInstance
from .io import canonical_report_json, load_matrix, report_to_dict
from .oracle import lower_bound_monte_carlo

__all__ = ["build_parser", "main", "run"]

SANDWICH_RTOL = 1e-6

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SANDWICH = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoffbound",
        description=(
            "Certified upper bound on the homogeneous error constant of the "
            "system A x <= 0, with an optional sampling lower bound."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="bound one matrix loaded from a file"
    )
    compute.add_argument("--input", required=True, help="path to the matrix file")
    compute.add_argument(
        "--format",
        default="auto",
        choices=("auto", "csv", "mtx"),
        help="input format (default: detect from extension/header)",
    )
    compute.add_argument(
        "--samples",
        type=int,
        default=64,
        help="number of Gaussian oracle samples; 0 disables the oracle (default 64)",
    )
    compute.add_argument("--seed", type=int, default=0, help="oracle seed")
    compute.add_argument(
        "--output",
        default="text",
        choices=("text", "json"),
        help="output format (default text)",
    )
    compute.add_argument(
        "--canonical",
        action="store_true",
        help="with --output json, print the canonical byte-stable form",
    )
    return parser


def run(args: argparse.Namespace) -> int:
    """Execute the run described by parsed ``compute`` arguments; returns
    the exit code."""
    if args.samples < 0:
        raise ValueError("--samples must be at least 0")
    A = load_matrix(args.input, args.format)
    instance = ProblemInstance.from_matrix(A)

    report = bound_h0(instance)
    oracle = None
    if args.samples > 0:
        oracle = lower_bound_monte_carlo(
            instance, num_samples=args.samples, seed=args.seed,
            x_hat=report.partition.x_hat,
        )

    payload = report_to_dict(report, oracle, sandwich_rtol=SANDWICH_RTOL)

    if args.output == "json":
        if args.canonical:
            print(canonical_report_json(payload))
        else:
            print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _print_text(payload)

    if payload["sandwich"] is not None and not payload["sandwich"]["ok"]:
        print(
            "error: sampled lower bound exceeds the certified upper bound",
            file=sys.stderr,
        )
        return EXIT_SANDWICH
    return EXIT_OK


def _print_text(payload: dict) -> None:
    part = payload["partition"]
    bounds = payload["bounds"]
    print(f"branch: {payload['branch']}")
    print(f"tight rows B: {part['B']}")
    print(f"slack rows N: {part['N']}")
    lp = part["lp"]
    if lp is not None:
        print(f"margin t of the certified LP iterate: {lp['t']:.6e}")
        print(f"partition LP: {lp['iterations']} iterations to the certified split")
    else:
        print("partition LP: not run, the split was proven before it")
    for key, label in (("case_N", "slack-block bound"),
                       ("case_B", "tight-block bound"),
                       ("stitch", "restriction factor")):
        block = bounds[key]
        if block is not None:
            print(f"{label}: {block['value']:.12g}")
    print(f"total upper bound: {bounds['total']:.12g}")
    oracle = payload["oracle"]
    if oracle is not None:
        projected = oracle["samples_used"] - oracle["screened_feasible"] \
            - oracle["pruned"] - oracle["failed"]
        print(f"sampled lower bound: {oracle['lower_bound']:.12g} "
              f"({oracle['samples_used']} candidates: {projected} projected, "
              f"{oracle['pruned']} pruned, {oracle['screened_feasible']} "
              f"screened feasible, {oracle['failed']} failed; seed {oracle['seed']})")
        sandwich = payload["sandwich"]
        verdict = "consistent" if sandwich["ok"] else "VIOLATED"
        print(f"sandwich check: {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (HoffboundError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
