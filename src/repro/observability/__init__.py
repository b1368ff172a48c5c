"""Structured observability for the Build–Simplify–Select pipeline.

Zero-dependency tracing and metrics, threaded through the allocator:

* :mod:`trace` — :class:`Tracer` records hierarchical spans (module →
  function → pass → phase) on an explicit monotonic clock, plus counters
  and gauges; :data:`NULL_TRACER` is the no-op used on the production hot
  path so instrumentation costs nothing measurable when disabled;
* :mod:`export` — writers for Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) and for the JSON metrics document
  built from :class:`repro.regalloc.stats.AllocationStats`;
* :mod:`hist` — log-bucketed streaming histograms backing the service's
  server-side p50/p95/p99 (``/metrics``, ``/metrics?format=prom``);
* :mod:`events` — the bounded-ring structured event log behind
  ``GET /events`` and ``repro tail``.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and file formats.
"""

from repro.observability.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    coerce_tracer,
)
from repro.observability.hist import (
    HIST_BASE,
    LogHistogram,
    prometheus_text,
    validate_prometheus_text,
)
from repro.observability.events import (
    EVENTS_SCHEMA,
    EventLog,
    format_event,
    parse_ndjson,
)
from repro.observability.export import (
    metrics_document,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "coerce_tracer",
    "metrics_document",
    "write_chrome_trace",
    "write_metrics_json",
    "validate_chrome_trace",
    "HIST_BASE",
    "LogHistogram",
    "prometheus_text",
    "validate_prometheus_text",
    "EVENTS_SCHEMA",
    "EventLog",
    "format_event",
    "parse_ndjson",
]
