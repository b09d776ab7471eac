"""Outside-in tracing of hoffbound's layers for the benchmark's traced run.

The tracer replaces public functions at the module attributes their callers
look up (``hoffbound.bounds.compute_partition``, ``hoffbound.oracle.ratio_at``
and so on) with wrappers that record one span per call: name, start, end,
parent span and instance id, plus a few attributes read off the arguments or
the result.  Nothing inside ``hoffbound`` changes, and the wrappers are
installed only for the traced run and removed afterwards.

Spans are kept in memory.  ``layer_metrics`` folds them into the per-layer
numbers; a span's self time is its duration minus the time covered by its
children.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field

# IPM calls are charged to the program that issued them: the nearest
# enclosing span with one of these names.
IPM_PROGRAMS = {
    "solvers.partition_lp": "partition",
    "solvers.min_norm": "min_norm",
    "solvers.center": "center",
    "oracle.projection": "projection",
}


def _ipm_attrs(args, kwargs, res):
    E = args[2]
    return {"kkt_dim": int(E.shape[0] + E.shape[1]), "iters": int(res.iterations),
            "stalled": res.status != "converged"}


def _iters_attrs(args, kwargs, res):
    return {"iters": int(res.iterations)}


def _ratio_attrs(args, kwargs, res):
    return {"ratio": float(res)}


def _audit_attrs(args, kwargs, res):
    return {"ok": bool(res.ok)}


def _timings_attrs(args, kwargs, res):
    return {"timings": dict(res.diagnostics.get("timings", {}))}


# (module, attribute, span name, attributes read from the call).  Each entry
# is the attribute a caller looks up at call time, so wrapping it there is
# what routes that caller through the tracer.
HOOKS = (
    ("hoffbound.bounds", "bound_h0", "bounds.bound_h0", _timings_attrs),
    ("hoffbound.bounds", "compute_partition", "partition.compute_partition", None),
    ("hoffbound.partition", "solve_partition_lp", "solvers.partition_lp", None),
    ("hoffbound.bounds", "bound_case_n", "bounds.case_n", None),
    ("hoffbound.bounds", "bound_case_b", "bounds.case_b", None),
    ("hoffbound.bounds", "bound_stitch", "bounds.stitch", None),
    ("hoffbound.bounds", "solve_min_norm_qp", "solvers.min_norm", None),
    ("hoffbound.bounds", "solve_analytic_center", "solvers.center", _iters_attrs),
    ("hoffbound.bounds", "smallest_positive_singular_value", "numerics.svd", None),
    ("hoffbound.bounds", "orthonormal_null_basis", "numerics.svd", None),
    ("hoffbound.solvers.programs", "orthonormal_null_basis", "numerics.svd", None),
    ("hoffbound.solvers.programs", "solve_qp_ipm", "solvers.ipm", _ipm_attrs),
    ("hoffbound.oracle", "lower_bound_monte_carlo", "oracle.lower_bound", None),
    ("hoffbound.oracle", "ratio_at", "oracle.ratio_at", _ratio_attrs),
    ("hoffbound.oracle", "project_onto_cone", "oracle.projection", None),
    ("hoffbound.audit", "audit_report", "audit.audit_report", _audit_attrs),
    ("hoffbound.io", "report_to_dict", "io.report_to_dict", None),
    ("hoffbound.io", "canonical_report_json", "io.canonical_json", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    instance: str | None
    self_s: float
    children: int
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.instance,
                self.attrs or None]


class Tracer:
    """Records spans around the hooked functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance: str | None = None
        self._stack: list[list] = []  # [span index, child seconds, child count]
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, read in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, read))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, read):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else None
            span = Span(name, 0.0, 0.0, parent, self.instance, 0.0, 0)
            spans.append(span)
            frame = [index, 0.0, 0]
            stack.append(frame)
            span.start = clock()
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                dur = span.end - span.start
                span.self_s = dur - frame[1]
                span.children = frame[2]
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += 1
            if read is not None:
                span.attrs.update(read(args, kwargs, res))
            return res

        traced.__wrapped__ = fn
        return traced


def span_cost(samples: int = 20000) -> float:
    """Seconds one traced call adds over a direct call, measured here.

    A throwaway tracer wraps a no-op; the median of five timed batches
    against the same batches of direct calls gives the per-span cost.
    """
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap(noop, "noop", None)
    costs = []
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / samples)
    return max(statistics.median(costs), 0.0)


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[Span], lo: int, hi: int,
                  cost_per_span: float) -> dict[str, float]:
    """Per-layer numbers over ``spans[lo:hi]``: counts, seconds, ratios."""
    window = spans[lo:hi]
    by_name: dict[str, list[Span]] = {}
    for s in window:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name, attr="dur"):
        return sum(getattr(s, attr) for s in named(name))

    def program_of(span):
        p = span.parent
        while p is not None:
            owner = IPM_PROGRAMS.get(spans[p].name)
            if owner is not None:
                return owner
            p = spans[p].parent
        return None

    ipm = named("solvers.ipm")
    ipm_s = dict.fromkeys(IPM_PROGRAMS.values(), 0.0)
    ipm_iters = dict.fromkeys(IPM_PROGRAMS.values(), 0)
    for s in ipm:
        prog = program_of(s)
        if prog is not None:
            ipm_s[prog] += s.dur
            ipm_iters[prog] += s.attrs.get("iters", 0)

    # Oracle bookkeeping mirrors lower_bound_monte_carlo: a candidate either
    # raises (failed), returns 0 without a projection (screened as feasible),
    # or is projected; a ratio above its instance's running best improves it.
    ratios = named("oracle.ratio_at")
    screened = sum(1 for s in ratios
                   if s.children == 0 and s.attrs.get("ratio") == 0.0)
    best: dict[int | None, float] = {}
    improved = 0
    for s in ratios:
        r = s.attrs.get("ratio", 0.0)
        if r > best.get(s.parent, 0.0):
            best[s.parent] = r
            improved += 1
    projections = named("oracle.projection")
    proj_ms = [1e3 * s.dur for s in projections]

    lp_calls = len(named("solvers.partition_lp"))
    calls = len(named("partition.compute_partition"))
    out = {
        "partition.calls": calls,
        "partition.lp_calls": lp_calls,
        "partition.retries": lp_calls - calls,
        "partition.self_s": total("partition.compute_partition", "self_s")
        + total("solvers.partition_lp", "self_s"),
        "solvers.ipm_calls": len(ipm),
        "solvers.ipm_stalled": sum(1 for s in ipm if s.attrs.get("stalled")),
        "solvers.kkt_dim_max": max((s.attrs.get("kkt_dim", 0) for s in ipm), default=0),
    }
    out.update({f"solvers.ipm_s.{k}": v for k, v in ipm_s.items()})
    out.update({f"solvers.ipm_iters.{k}": v for k, v in ipm_iters.items()})
    out.update({
        "solvers.min_norm_self_s": total("solvers.min_norm", "self_s"),
        "solvers.center_s": total("solvers.center"),
        "solvers.center_iters": sum(s.attrs.get("iters", 0)
                                    for s in named("solvers.center")),
        "bounds.self_s": sum(total(n, "self_s") for n in
                             ("bounds.bound_h0", "bounds.case_n", "bounds.case_b",
                              "bounds.stitch")),
        "numerics.svd_s": total("numerics.svd"),
        "numerics.svd_calls": len(named("numerics.svd")),
        "oracle.candidates": len(ratios),
        "oracle.screened_feasible": screened,
        "oracle.projections": len(projections),
        "oracle.failed": sum(1 for s in ratios if "error" in s.attrs),
        "oracle.improve_frac": improved / len(projections) if projections else 0.0,
        "oracle.self_s": total("oracle.lower_bound", "self_s")
        + total("oracle.ratio_at", "self_s"),
        "oracle.projection_self_s": total("oracle.projection", "self_s"),
        "oracle.projection_ms_p50": percentile(proj_ms, 50),
        "oracle.projection_ms_p99": percentile(proj_ms, 99),
        "audit.s": total("audit.audit_report"),
        "audit.failures": sum(1 for s in named("audit.audit_report")
                              if not s.attrs.get("ok", True)),
        "io.report_s": total("io.report_to_dict") + total("io.canonical_json"),
        "trace.overhead_s": len(window) * cost_per_span,
    })
    return out


def phase_disagreement(spans: list[Span]) -> tuple[float, str]:
    """Largest gap between bound_h0's own phase timings and the spans.

    ``bound_h0`` reports ``diagnostics["timings"]``; the same phases appear
    here as child spans of its span.  Returns (seconds, where).
    """
    phase_span = {
        "partition_s": "partition.compute_partition",
        "case_n_s": "bounds.case_n",
        "case_b_s": "bounds.case_b",
        "stitch_s": "bounds.stitch",
    }
    children: dict[int, dict[str, float]] = {}
    for s in spans:
        if s.parent is not None and spans[s.parent].name == "bounds.bound_h0":
            children.setdefault(s.parent, {})[s.name] = s.dur
    worst, where = -1.0, "no bound_h0 spans"
    for index, s in enumerate(spans):
        if s.name != "bounds.bound_h0":
            continue
        timings = s.attrs.get("timings", {})
        measured = {k: children.get(index, {}).get(v) for k, v in phase_span.items()}
        measured["total_s"] = s.dur
        for phase, reported in timings.items():
            spanned = measured.get(phase)
            # A phase the report times but no span covers is a disagreement
            # of its whole length.
            gap = abs(reported - (spanned or 0.0))
            if gap > worst:
                worst, where = gap, f"{phase} of {s.instance}"
    return max(worst, 0.0), where
