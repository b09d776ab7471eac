"""The benchmark's traced run hooks module attributes that must keep resolving.

``perfbench/spans.py`` wraps functions at the attributes their callers look
up at call time and reads attributes off their arguments and results.  This
test installs that tracer, runs the pipeline once, and checks that every hook
found its attribute and that the spans carry what the per-layer numbers read.
``perfbench/run.py`` also copies the command line's pipeline in call shapes
of its own, which must keep working and give ``hoffbound.cli.pipeline``'s
audit and report.
"""

import hoffbound
import hoffbound.cli as cli
from hoffbound import (
    ProblemInstance,
    audit_report,
    bound_h0,
    canonical_report_json,
    lower_bound_monte_carlo,
    report_to_dict,
)

from helpers import ROOT, load_file_module, planted_mixed_matrix


def _owner(spans, span, programs):
    p = span.parent
    while p is not None:
        if spans[p].name in programs:
            return spans[p].name
        p = spans[p].parent
    return None


def test_traced_pipeline_resolves_every_hook():
    spans_mod = load_file_module("perfbench_spans", ROOT / "perfbench" / "spans.py")
    inst = ProblemInstance.from_matrix(planted_mixed_matrix(3, 30, 8))
    tracer = spans_mod.Tracer()
    tracer.install()
    try:
        assert len(tracer._saved) == len(spans_mod.HOOKS)
        for module, attr, original in tracer._saved:
            assert getattr(module, attr).__wrapped__ is original, attr
        report = bound_h0(inst)
        x_hat = report.partition.x_hat
        lower_bound_monte_carlo(inst, num_samples=8, seed=0, x_hat=x_hat)
    finally:
        tracer.uninstall()
    assert report.branch == "general"

    spans = tracer.spans
    ipm = [s for s in spans if s.name == "solvers.ipm"]
    assert ipm
    for s in ipm:
        assert s.attrs["kkt_dim"] > 0
        assert _owner(spans, s, spans_mod.IPM_PROGRAMS) is not None

    centers = [s for s in spans if s.name == "solvers.center"]
    assert centers
    assert all(isinstance(s.attrs.get("iters"), int) for s in centers)
    assert any(s.name == "oracle.projection" for s in spans)


def test_the_benchmarks_call_shapes_give_the_plain_report():
    # run.py copies the command line's pipeline, passing an (empty)
    # SolverConfig to bound_h0 and to the oracle, and the command line's
    # sandwich tolerance to report_to_dict
    inst = ProblemInstance.from_matrix(planted_mixed_matrix(3, 30, 8))
    _, plain_audit, _, plain = cli.pipeline(inst, 8, 0)

    cfg = hoffbound.SolverConfig()
    report = bound_h0(inst, cfg)
    verdict = audit_report(inst, report)
    orc = lower_bound_monte_carlo(inst, num_samples=8, seed=0,
                                  x_hat=report.partition.x_hat, cfg=cfg)
    payload = report_to_dict(report, orc, sandwich_rtol=cli.SANDWICH_RTOL)
    assert report.branch == "general"
    assert (verdict.ok, verdict.failures) == (plain_audit.ok, plain_audit.failures)
    assert verdict.metrics == plain_audit.metrics
    assert canonical_report_json(payload) == canonical_report_json(plain)
