"""Repair-path tracing: per-round and sweep spans are recorded, the
trace exports as valid Chrome JSON, and tracing never changes what gets
computed."""

import pytest

from repro.observability import Tracer
from repro.observability.export import (
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.regalloc.repair import repair_color, verify_coloring
from repro.workloads.synth import generate_graph

slow = pytest.mark.slow

K = 16
DENSITY = 8.0
SEED = 9


def span_names(tracer):
    return [e["name"] for e in tracer.events if e.get("ph") == "B"]


class TestSmallGraphTracing:
    """Fast checks on a 2000-node graph."""

    def test_round_and_sweep_spans_recorded(self):
        # k=4 on a density-8 graph cannot converge in the rounds alone,
        # so the settling sweep (and its span) must run.
        graph = generate_graph(2000, DENSITY, seed=SEED)
        tracer = Tracer()
        outcome = repair_color(graph.adjacency, 4, tracer=tracer)
        names = span_names(tracer)
        assert "repair-round" in names
        assert "repair-sweep" in names
        assert tracer.counters["repair.finalized"] >= 1
        assert tracer.counters["repair.spilled"] == len(outcome.spilled)
        verify_coloring(graph.adjacency, outcome.colors, 4,
                        outcome.spilled)

    def test_tracing_is_purely_observational(self):
        graph = generate_graph(2000, DENSITY, seed=SEED)
        traced = repair_color(graph.adjacency, K, tracer=Tracer())
        plain = repair_color(graph.adjacency, K)
        assert traced.colors == plain.colors
        assert traced.spilled == plain.spilled
        assert traced.rounds == plain.rounds

    def test_trace_is_valid_chrome_json(self, tmp_path):
        # Balanced B/E per lane, metadata for every lane.
        graph = generate_graph(2000, DENSITY, seed=SEED)
        tracer = Tracer()
        repair_color(graph.adjacency, 4, tracer=tracer)
        out = tmp_path / "repair.json"
        write_chrome_trace(tracer, out)
        stats = validate_chrome_trace(out)
        assert stats["spans"] > 0
        assert stats["counters"] > 0


class TestTracingAt1e5:
    """The acceptance-scale case: 10^5 nodes, traced and untraced."""

    @slow
    def test_traced_equals_untraced(self):
        graph = generate_graph(100_000, DENSITY, seed=SEED)
        tracer = Tracer()
        traced = repair_color(graph.adjacency, K, tracer=tracer)
        plain = repair_color(graph.adjacency, K)

        assert traced.colors == plain.colors
        assert traced.spilled == plain.spilled
        verify_coloring(graph.adjacency, traced.colors, K, traced.spilled)
        assert "repair-round" in span_names(tracer)
