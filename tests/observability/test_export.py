"""Tests for the trace/metrics exporters and the unified stats schema."""

import json

import pytest

from repro.frontend import compile_source
from repro.machine.target import rt_pc
from repro.observability import (
    Tracer,
    metrics_document,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.observability.export import chrome_trace_events
from repro.regalloc import allocate_module
from repro.regalloc.stats import AllocationStats, PassStats

from tests.observability.test_trace import SOURCE, small_target


class FakeClock:
    """Deterministic clock: each call advances one millisecond."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        self.now += 0.001
        return self.now


def traced_allocation():
    module = compile_source(SOURCE, "probe")
    tracer = Tracer()
    allocation = allocate_module(
        module, small_target(), "briggs", tracer=tracer
    )
    return allocation, tracer


class TestChromeTrace:
    def test_timestamps_rebased_to_zero_in_microseconds(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        events = chrome_trace_events(tracer)
        payload = [e for e in events if e["ph"] != "M"]
        assert payload[0]["ts"] == 0
        # the fake clock ticks 1 ms per call: B, B, E, E.
        assert [e["ts"] for e in payload] == [0, 1000.0, 2000.0, 3000.0]

    def test_lane_metadata_precedes_events(self):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        events = chrome_trace_events(tracer)
        assert events[0]["ph"] == "M"
        assert events[0]["name"] == "process_name"
        assert events[0]["args"]["name"] == "allocator"

    def test_written_file_validates(self, tmp_path):
        _, tracer = traced_allocation()
        path = write_chrome_trace(tracer, tmp_path / "trace.json")
        summary = validate_chrome_trace(path)
        assert summary["spans"] > 0
        assert summary["counters"] > 0
        assert summary["lanes"] == 1
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"

    def test_validator_rejects_unbalanced_spans(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [
            {"ph": "B", "name": "open", "cat": "phase", "ts": 0,
             "pid": 1, "tid": 0},
        ]}))
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace(path)

    def test_validator_rejects_non_object_file(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="not a trace-event object"):
            validate_chrome_trace(path)


class TestMetricsDocument:
    def test_schema_and_totals(self):
        allocation, tracer = traced_allocation()
        document = metrics_document(allocation, tracer=tracer,
                                    meta={"workload": "probe"})
        assert document["schema"] == "repro-metrics/1"
        assert document["totals"]["functions"] == len(allocation.results)
        assert document["totals"]["live_ranges"] > 0
        assert document["meta"] == {"workload": "probe"}
        assert document["counters"]["live_ranges"] > 0
        assert document["failures"] == []

    def test_every_pass_stats_field_is_exported(self):
        """The drift the unified schema exists to prevent: every PassStats
        slot — including reused and webs_split — appears in the document."""
        allocation, _ = traced_allocation()
        document = metrics_document(allocation)
        for entry in document["functions"].values():
            for pass_dict in entry["stats"]["passes"]:
                for slot in PassStats.__slots__:
                    assert slot in pass_dict, slot

    def test_json_roundtrip(self, tmp_path):
        allocation, tracer = traced_allocation()
        document = metrics_document(allocation, tracer=tracer)
        path = write_metrics_json(document, tmp_path / "metrics.json")
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(document)
        )


class TestStatsRoundTrip:
    def make_stats(self):
        stats = AllocationStats("briggs", "probe")
        first = PassStats(1)
        first.build_time = 0.25
        first.live_ranges = 12
        first.spilled_count = 2
        first.spilled_cost = 9.0
        first.coalesced = 3
        first.webs_split = 1
        first.reused = ("loops",)
        second = PassStats(2)
        second.ran_select = True
        second.reused = ("loops", "renumber", "coalesce")
        stats.passes = [first, second]
        return stats

    def test_pass_stats_roundtrip(self):
        original = self.make_stats().passes[0]
        restored = PassStats.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert restored.to_dict() == original.to_dict()
        assert restored.reused == original.reused

    def test_allocation_stats_roundtrip_preserves_totals(self):
        original = self.make_stats()
        restored = AllocationStats.from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert restored.to_dict() == original.to_dict()
        assert restored.registers_spilled == 2
        assert restored.total_time == original.total_time

    def test_figure7_rows_read_the_unified_schema(self):
        """figure7's table path and the export path agree on the same
        per-pass numbers (the drift satellite)."""
        stats = self.make_stats()
        rows = stats.phase_rows()
        dumped = stats.to_dict()["passes"]
        for row, pass_dict in zip(rows, dumped):
            assert row["build"] == pass_dict["build_time"]
            assert row["spilled"] == pass_dict["spilled_count"]


def test_live_allocation_target_metadata():
    allocation, _ = traced_allocation()
    document = metrics_document(allocation)
    assert document["target"]["int_regs"] == 6
    assert document["target"]["float_regs"] == 4
    assert document["method"] == "briggs"
