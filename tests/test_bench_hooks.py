"""The benchmark's traced run hooks module attributes that must keep resolving.

``perfbench/spans.py`` wraps functions at the attributes their callers look
up at call time and reads attributes off their arguments and results.  This
test installs that tracer, runs the pipeline once, and checks that every hook
found its attribute and that the spans carry what the per-layer numbers read.
"""

import importlib.util
import sys
from pathlib import Path

from hoffbound import ProblemInstance, bound_h0, lower_bound_monte_carlo

from helpers import planted_mixed_matrix

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    # perfbench/ is read, never written: no bytecode cache next to spans.py
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _owner(spans, span, programs):
    p = span.parent
    while p is not None:
        if spans[p].name in programs:
            return spans[p].name
        p = spans[p].parent
    return None


def test_traced_pipeline_resolves_every_hook(monkeypatch):
    spans_mod = _load_spans(monkeypatch)
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
