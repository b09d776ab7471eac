#!/usr/bin/env python3
"""End-to-end benchmark of hoffbound, with a traced run for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

One run builds the workload's inputs from ``--seed``, warms up, and then runs
whole passes over every instance until ``--seconds`` is spent (at least one
pass).  Each instance goes through the command line's pipeline: ``bound_h0``
and ``audit_report`` (certify), then ``lower_bound_monte_carlo`` unless the
workload skips the oracle, then ``report_to_dict`` and
``canonical_report_json``.  The outputs are checked: the audit passes, the
sandwich holds within the command line's tolerance, planted tight/slack splits
are recovered, and canonical reports repeat byte for byte across passes.

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
hooks the package's public functions from outside (see ``spans.py``) and
prints the per-layer metrics instead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans, the environment and the determinism records are written
under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

from spans import Tracer, layer_metrics, percentile, phase_disagreement, span_cost  # noqa: E402
from workloads import ORACLE_SAMPLES, SIZES, WORKLOADS, make_cases  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# Set-up is timed in this process and in this many more fresh processes;
# setup_s is the median of all of them.
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "gap_ratio_p50": "ratio",
    "gap_ratio_p90": "ratio",
    "peak_rss_mb": "MB",
}

# Speed calibration.  On a shared host the machine's speed drifts: an
# unchanged Python loop took between 1x and 2x its fastest time within 90 s.
# On SPEED_SCALED_WORKLOAD, each timed instance is followed by about
# CALIBRATION_SHARE of its time spent on a fixed reference kernel of
# interpreted arithmetic and 60x60 LU solves, the regime of that workload's
# small programs (KKT dimension at most ~122).  Its run times are reported at
# nominal speed: divided by the kernel's mean time over NOMINAL_S, the
# median of that mean over runs on a 2-CPU Xeon host with 2 OpenBLAS threads.
# The other workloads are reported unscaled: ladder spends ~98% of its time
# in LU factorisations of dimension ~2,000 and tall's projections reach KKT
# dimension ~420, and the kernel does not track their speed.
SPEED_SCALED_WORKLOAD = "suite"
CALIBRATION_SHARE = 0.05
NOMINAL_S = 3.6e-3

# Quantities that must repeat exactly on one seed, within a run and across
# runs; the determinism guard compares them.
GUARDED_COUNTS = ("oracle.candidates", "oracle.projections",
                  "solvers.ipm_iters.partition", "solvers.ipm_iters.min_norm",
                  "solvers.ipm_iters.center", "solvers.ipm_iters.projection")


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50") or name.endswith("_ms_p99"):
        return "ms"
    if name.endswith("_s") or name == "audit.s" or ".ipm_s." in name:
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="smoke runs a few instances of each workload")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time as JSON and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import hoffbound from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "hoffbound" / "__init__.py").is_file():
        raise SystemExit(f"error: no hoffbound sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hoffbound

    origin = Path(hoffbound.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: hoffbound was imported from {origin}, not {SRC}")
    return hoffbound


def blas_libraries() -> list[dict]:
    """OpenBLAS builds loaded in this process, with their thread counts."""
    import ctypes

    paths = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path).lower():
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                entry["threads"] = int(threads())
                entry["config"] = config().decode()
                break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def environment(args: argparse.Namespace) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def row_normal_lower(A) -> float:
    """Sound lower bound on H0 from the row normals, without any solver.

    For u = a_i / ||a_i||, P lies in every halfspace a_j' x <= 0, so
    dist(u, P) >= max_j (a_j' u)_+ / ||a_j||, and the violation is
    max_j (a_j' u)_+ >= ||a_i|| > 0.  Used as the lower side of the sandwich
    on the workload that skips the oracle.
    """
    norms = np.linalg.norm(A, axis=1)
    rows = A[norms > 0.0]
    norms = norms[norms > 0.0]
    if rows.shape[0] == 0:
        return 0.0
    V = np.maximum(rows @ (rows / norms[:, None]).T, 0.0)
    dist = (V / norms[:, None]).max(axis=0)
    return float((dist / V.max(axis=0)).max())


class ReferenceKernel:
    """Fixed work that is slowed down the way the small programs are.

    Interpreted arithmetic and 60x60 LU solves, the per-call regime of
    ``suite``.  It never calls hoffbound, so no change to the package can
    move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((60, 60)) + 8.0 * np.eye(60)
        self.v = rng.standard_normal(60)
        self.times: list[float] = []
        self._owed = 0.0

    def _once(self) -> None:
        clock, linalg = time.perf_counter, scipy.linalg
        t0 = clock()
        x = self.v
        for _ in range(48):
            lu = linalg.lu_factor(self.small, check_finite=False)
            x = linalg.lu_solve(lu, x, check_finite=False)
            x = np.concatenate([x[30:], x[:30]]) / max(1.0, float(np.abs(x).max()))
        acc = 0.0
        for i in range(18000):
            acc += i * 0.5
        self.times.append(clock() - t0)

    def warm_up(self) -> None:
        for _ in range(3):
            self._once()
        self.times.clear()

    def sample(self, busy_s: float) -> float:
        """Run the kernel until CALIBRATION_SHARE of ``busy_s`` (plus what
        earlier calls left owing) is spent; returns the seconds spent."""
        clock = time.perf_counter
        self._owed += CALIBRATION_SHARE * busy_s
        start = clock()
        while self._owed > 0.0:
            t0 = clock()
            self._once()
            self._owed -= clock() - t0
        return clock() - start

    def scale(self) -> float:
        """Factor that converts this run's seconds to nominal-speed seconds."""
        return NOMINAL_S / statistics.fmean(self.times)


@dataclass
class Outcome:
    name: str
    certify_s: float
    sandwich_s: float
    upper: float | None
    lower: float | None
    digest: str | None
    failure: str | None


class Bench:
    """Inputs, package handles and the pass loop of one benchmark run."""

    def __init__(self, args: argparse.Namespace):
        hoffbound = import_package()
        from hoffbound import audit, bounds, cli, io, oracle

        self.bounds, self.audit, self.oracle, self.io = bounds, audit, oracle, io
        self.sandwich_rtol = cli.SANDWICH_RTOL
        self.cfg = hoffbound.SolverConfig()
        self.cases = make_cases(args.workload, args.seed, args.size)
        self.instances = [hoffbound.ProblemInstance.from_matrix(c.A) for c in self.cases]
        self.row_bounds = [None if c.oracle_seed is not None else row_normal_lower(c.A)
                           for c in self.cases]
        self.tracer = None
        # The traced run reports unscaled per-layer seconds, so it skips the
        # calibration.
        self.scaled = args.workload == SPEED_SCALED_WORKLOAD and not args.trace
        self.reference = ReferenceKernel()
        self._warm_up(hoffbound)
        if self.scaled:
            self.reference.warm_up()

    def _warm_up(self, hoffbound) -> None:
        """Pay first-call costs now: lazy imports, BLAS thread pools, caches.

        One small mixed instance runs through every stage, and both BLAS
        libraries (numpy's and scipy's) factor matrices large enough to use
        all their threads.
        """
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        inst = hoffbound.ProblemInstance.from_matrix(A)
        self._solve(inst, oracle_seed=0)
        rng = np.random.default_rng(0)
        M = rng.standard_normal((600, 600))
        for _ in range(3):
            scipy.linalg.lu_factor(M, check_finite=False)
            np.linalg.svd(M[:300], full_matrices=False)
            M @ M

    def _solve(self, inst, oracle_seed):
        """The timed pipeline of one instance; returns its products and times."""
        clock = time.perf_counter
        t0 = clock()
        report = self.bounds.bound_h0(inst, self.cfg)
        verdict = self.audit.audit_report(inst, report)
        t1 = clock()
        orc = None
        if oracle_seed is not None:
            x_hat = report.partition.x_hat if report.partition is not None else None
            orc = self.oracle.lower_bound_monte_carlo(
                inst, num_samples=ORACLE_SAMPLES, seed=oracle_seed, x_hat=x_hat, cfg=self.cfg)
        payload = self.io.report_to_dict(report, orc, sandwich_rtol=self.sandwich_rtol)
        text = self.io.canonical_report_json(payload)
        t2 = clock()
        return report, verdict, orc, payload, text, t1 - t0, t2 - t0

    def run_case(self, index: int) -> Outcome:
        case, inst = self.cases[index], self.instances[index]
        try:
            report, verdict, orc, payload, text, certify_s, sandwich_s = self._solve(
                inst, case.oracle_seed)
        except Exception as exc:  # a failed instance is counted, not fatal
            detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
            return Outcome(case.name, 0.0, 0.0, None, None, None, f"raised {detail}")

        upper = float(report.total)
        failure = None
        if orc is not None:
            lower = float(orc.lower_bound)
            if not payload["sandwich"]["ok"]:
                failure = f"sandwich broken: lower {lower!r} > upper {upper!r}"
        else:
            lower = self.row_bounds[index]
            if lower > upper + self.sandwich_rtol * (1.0 + upper):
                failure = f"sandwich broken: row-normal bound {lower!r} > upper {upper!r}"
        if not verdict.ok:
            failure = f"audit failed: {'; '.join(verdict.failures)}"
        if case.planted is not None and report.partition is not None:
            split = (report.partition.B, report.partition.N)
            if split != case.planted:
                failure = "planted tight/slack split not recovered"
        digest = hashlib.sha256(text.encode()).hexdigest()
        return Outcome(case.name, certify_s, sandwich_s, upper, lower, digest, failure)

    def run_pass(self, pass_index: int) -> tuple[list[Outcome], float]:
        """Outcomes of every instance, and the seconds spent calibrating."""
        outcomes = []
        calibrating = 0.0
        for index, case in enumerate(self.cases):
            if self.tracer is not None:
                self.tracer.instance = f"{pass_index}:{case.name}"
            outcome = self.run_case(index)
            outcomes.append(outcome)
            if self.scaled:
                calibrating += self.reference.sample(outcome.sandwich_s)
        return outcomes, calibrating


def setup_in_children(args: argparse.Namespace) -> list[float]:
    """Set-up times of fresh processes, run one after another."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--size", args.size, "--setup-probe"]
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return times


def gap_ratios(outcomes: list[Outcome]) -> list[float]:
    """upper / lower per instance; instances with no lower bound are left out."""
    return [o.upper / o.lower for o in outcomes
            if o.failure is None and o.lower is not None and o.lower > 0.0]


def end_to_end(passes: list[tuple[float, list[Outcome]]], setup: list[float],
               scale: float | None) -> dict:
    """End-to-end metrics; run times are scaled to nominal speed by ``scale``
    unless it is None.

    Per-instance latencies are printed but not returned as metrics: on
    ``ladder`` and ``tall`` single instances jitter by 2-5x from run to run
    (mid-size LU factorizations on two BLAS threads), more than any bound.
    """
    ok = [o for _, outs in passes for o in outs if o.failure is None]
    gaps = gap_ratios(passes[0][1])
    wall = statistics.median(dt for dt, _ in passes)
    if scale is None:
        print(f"speed scale: not applied; wall_s {wall:.6g} s")
        scale = 1.0
    else:
        print(f"speed scale: {scale:.4f}; wall_s before scaling {wall:.6g} s")
    latencies = {
        "certify_s": [o.certify_s * scale for o in ok],
        "sandwich_s": [o.sandwich_s * scale for o in ok],
    }
    for name, values in latencies.items():
        print(f"{name}_p50 = {percentile(values, 50):.6g} s, {name}_p90 = {percentile(values, 90):.6g} s "
              f"(per instance, {len(values)} samples)")
    print(f"samples: {len(passes)} passes, {len(ok)} timed instances, "
          f"{len(gaps)} gap ratios, {len(setup)} set-ups")
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall * scale,
        "gap_ratio_p50": percentile(gaps, 50),
        "gap_ratio_p90": percentile(gaps, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}


def per_layer(spans, bounds_by_pass, cost) -> tuple[dict, list[str]]:
    """Per-pass layer metrics, checked to repeat exactly where they must."""
    per_pass = [layer_metrics(spans, lo, hi, cost) for lo, hi in bounds_by_pass]
    flags = []
    for key in GUARDED_COUNTS:
        seen = {m[key] for m in per_pass}
        if len(seen) > 1:
            flags.append(f"{key} differs between passes: {sorted(seen)}")
    merged = {}
    for key, first in per_pass[0].items():
        vals = [m[key] for m in per_pass]
        merged[key] = statistics.median(vals) if isinstance(first, float) else first
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in merged.items()}, flags


def source_digest() -> str:
    """Hash of the code a run measures: the package's and the benchmark's
    Python sources, with their relative paths."""
    h = hashlib.sha256()
    files = sorted((SRC / "hoffbound").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def check_across_runs(args, gaps: list[float], counts: dict | None) -> list[str]:
    """Compare this run's deterministic quantities with earlier runs of the
    same code on the seed.

    The first run on a seed records them under ``.perfbench/determinism``,
    keyed by ``source_digest()``; later runs of the same code, traced or not,
    must reproduce them exactly.  Changed code starts a fresh record.
    """
    name = f"{args.workload}-{args.size}-seed{args.seed}-{source_digest()}.json"
    path = OUT_DIR / "determinism" / name
    record = json.loads(path.read_text()) if path.is_file() else {}
    flags = []
    if "gap_ratios" in record and record["gap_ratios"] != gaps:
        flags.append("gap ratios differ from an earlier run of this code on this seed")
    if counts is not None and "counts" in record and record["counts"] != counts:
        changed = [k for k in counts if record["counts"].get(k) != counts[k]]
        flags.append(f"{', '.join(changed)} differ from an earlier run of this code on this seed")
    if not flags:
        record.setdefault("gap_ratios", gaps)
        if counts is not None:
            record.setdefault("counts", counts)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        os.replace(tmp, path)
    return flags


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    bench = Bench(args)
    setup_here = time.perf_counter() - _START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_here}))
        return 0

    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))
    setup = [setup_here]
    if not args.trace:
        setup += setup_in_children(args)

    if args.trace:
        bench.tracer = Tracer()
        bench.tracer.install()
    passes: list[tuple[float, list[Outcome]]] = []
    bounds_by_pass = []
    begin = time.perf_counter()
    try:
        while True:
            lo = len(bench.tracer.spans) if bench.tracer else 0
            t0 = time.perf_counter()
            outcomes, calibrating = bench.run_pass(len(passes))
            dt = time.perf_counter() - t0
            passes.append((dt - calibrating, outcomes))
            bounds_by_pass.append((lo, len(bench.tracer.spans) if bench.tracer else 0))
            if time.perf_counter() - begin + dt > args.seconds:
                break
    finally:
        if bench.tracer is not None:
            bench.tracer.uninstall()

    attempted = sum(len(outs) for _, outs in passes)
    failures = [(o.name, o.failure) for _, outs in passes for o in outs if o.failure]
    for name, why in failures[:20]:
        print(f"FAILED {name}: {why}")
    print(f"failed_frac: {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")

    flags = []
    first = [o.digest for o in passes[0][1]]
    for k, (_, outs) in enumerate(passes[1:], start=1):
        if [o.digest for o in outs] != first:
            flags.append(f"canonical reports of pass {k} differ from pass 0")

    gaps = gap_ratios(passes[0][1])
    counts = None
    if args.trace:
        print("traced pass seconds: " + ", ".join(f"{dt:.6g}" for dt, _ in passes))
        metrics, pass_flags = per_layer(bench.tracer.spans, bounds_by_pass, span_cost())
        flags += pass_flags
        counts = {k: metrics[k]["value"] for k in GUARDED_COUNTS}
        gap, where = phase_disagreement(bench.tracer.spans)
        print(f"phase timings vs spans: largest disagreement {gap * 1e6:.1f} us ({where})")
        write_trace(args, env, bench.tracer.spans, bounds_by_pass)
    else:
        metrics = end_to_end(passes, setup, bench.reference.scale() if bench.scaled else None)
        ref = bench.reference
        print(f"reference kernel: {statistics.fmean(ref.times) * 1e3:.3f} ms mean, "
              f"{statistics.median(ref.times) * 1e3:.3f} ms median, {len(ref.times)} samples"
              if bench.scaled else "reference kernel: not run")
    flags += check_across_runs(args, gaps, counts)
    for flag in flags:
        print(f"DETERMINISM FLAG: {flag}")
    print(f"determinism: {'FLAGGED' if flags else 'ok'}")

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not failures and not flags, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def write_trace(args, env, spans, bounds_by_pass) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"environment": env, "passes": bounds_by_pass,
                   "fields": ["name", "start", "end", "parent", "instance", "attrs"],
                   "spans": [s.to_json() for s in spans]}, fh)


if __name__ == "__main__":
    sys.exit(main())
