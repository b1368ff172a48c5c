"""Trace and metrics file writers.

Two artifact families:

* **Chrome trace-event JSON** (:func:`write_chrome_trace`) — the
  ``{"traceEvents": [...]}`` object format, loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Timestamps are
  rebased to the earliest event and converted to microseconds; process
  and thread lanes get ``M`` metadata names so a parallel (``jobs=N``)
  allocation renders one lane per worker pid.
* **metrics documents** (:func:`metrics_document`,
  :func:`write_metrics_json`) — schema ``repro-metrics/1``:
  per-function :class:`~repro.regalloc.stats.AllocationStats` dumps
  (via the unified ``to_dict`` layer, so every ``PassStats`` field —
  including ``reused`` and ``webs_split`` — is exported, never a
  hand-maintained field list), whole-module totals, and the tracer's
  accumulated counters.  ``repro allocate --json`` and ``repro trace
  --metrics`` write one.

The schemas are documented for humans in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import pathlib

#: Schema tag stamped on every metrics document this module writes.
METRICS_SCHEMA = "repro-metrics/1"

#: Microseconds per perf-counter second (trace-event ``ts`` unit).
_US = 1_000_000.0


# ----------------------------------------------------------------------
# Chrome trace events
# ----------------------------------------------------------------------


def chrome_trace_events(tracer) -> list:
    """Convert a tracer's event buffer to finished trace-event dicts:
    timestamps rebased to zero and in microseconds, plus process/thread
    name metadata for every lane seen."""
    events = tracer.events if hasattr(tracer, "events") else tracer
    if not events:
        return []
    base = min(event["ts"] for event in events)
    lanes = []
    seen = set()
    out = []
    for event in events:
        converted = dict(event)
        converted["ts"] = round((event["ts"] - base) * _US, 3)
        out.append(converted)
        lane = (event["pid"], event["tid"])
        if lane not in seen:
            seen.add(lane)
            lanes.append(lane)
    meta = []
    main_pid = lanes[0][0]
    for pid, tid in lanes:
        label = "allocator" if pid == main_pid else f"worker {pid}"
        meta.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": tid,
            "ts": 0, "args": {"name": label},
        })
        meta.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "ts": 0, "args": {"name": f"tid {tid}"},
        })
    return meta + out


def write_chrome_trace(tracer, path) -> pathlib.Path:
    """Write ``tracer`` (or a raw event list) as a Chrome trace file."""
    path = pathlib.Path(path)
    document = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, sort_keys=True) + "\n")
    return path


def validate_chrome_trace(path) -> dict:
    """Structural validation of a written trace file (used by CI).

    Asserts the object format, that every event has the required keys
    for its phase, and that begin/end events balance per (pid, tid)
    lane.  Returns summary counts; raises ``ValueError`` on violation.
    """
    document = json.loads(pathlib.Path(path).read_text())
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError(f"{path}: not a trace-event object file")
    events = document["traceEvents"]
    if not isinstance(events, list) or not events:
        raise ValueError(f"{path}: empty traceEvents")
    open_spans: dict = {}
    spans = counters = 0
    for index, event in enumerate(events):
        for key in ("ph", "name", "pid", "tid"):
            if key not in event:
                raise ValueError(f"{path}: event {index} missing {key!r}")
        ph = event["ph"]
        if ph not in ("B", "E", "X", "C", "M", "i"):
            raise ValueError(f"{path}: event {index} has unknown ph {ph!r}")
        if ph != "M" and "ts" not in event:
            raise ValueError(f"{path}: event {index} missing 'ts'")
        lane = (event["pid"], event["tid"])
        if ph == "B":
            spans += 1
            open_spans.setdefault(lane, []).append(event["name"])
        elif ph == "E":
            stack = open_spans.get(lane)
            if not stack:
                raise ValueError(
                    f"{path}: event {index} ends "
                    f"{event['name']!r} with no open span on lane {lane}"
                )
            stack.pop()
        elif ph == "C":
            counters += 1
    unbalanced = {lane: stack for lane, stack in open_spans.items() if stack}
    if unbalanced:
        raise ValueError(f"{path}: unclosed spans {unbalanced}")
    return {
        "events": len(events),
        "spans": spans,
        "counters": counters,
        "lanes": len({(e["pid"], e["tid"]) for e in events}),
    }


# ----------------------------------------------------------------------
# Metrics documents
# ----------------------------------------------------------------------


def pool_diagnostics() -> dict | None:
    """Worker-pool and response-cache counters for the current process,
    or ``None`` when no persistent pool was ever used.

    The pool (:mod:`repro.regalloc.pool`) is process-global state, so
    these numbers cover every ``allocate_module(jobs>1)`` call so far —
    dispatch counts, warm starts and restarts per pool, and the
    content-addressed cache's hit/miss tallies.
    """
    from repro.durability.journal import journal_counters
    from repro.regalloc.pool import RESPONSE_CACHE, active_pools

    pools = [pool.stats() for pool in active_pools()]
    cache = RESPONSE_CACHE.stats()
    journal = journal_counters()
    if not pools and not (cache["hits"] or cache["misses"]) \
            and not any(journal.values()):
        return None
    diagnostics = {"pools": pools, "response_cache": cache}
    if any(journal.values()):
        diagnostics["journal"] = journal
    return diagnostics


def metrics_document(allocation, tracer=None, meta=None,
                     service=None) -> dict:
    """The full ``repro-metrics/1`` document for one module allocation.

    ``allocation`` is a :class:`repro.regalloc.driver.ModuleAllocation`;
    ``tracer`` (optional) contributes its accumulated counters; ``meta``
    (optional dict) is carried through verbatim (workload name, seed,
    command line, ...).  When the allocation used the persistent worker
    pool, a ``pool`` section (:func:`pool_diagnostics`) records dispatch,
    warm-start, restart, and cache-hit counters.  ``service`` (optional
    dict, :meth:`repro.service.AllocationService.service_section`)
    carries the daemon's admission/deadline/breaker counters.
    """
    from repro.regalloc.export import allocation_to_dict

    functions = {
        name: allocation_to_dict(result)
        for name, result in sorted(allocation.results.items())
    }
    totals = {
        "functions": len(functions),
        "passes": 0,
        "live_ranges": 0,
        "registers_spilled": 0,
        "total_registers_spilled": 0,
        "spill_cost": 0.0,
        "build_time": 0.0,
        "simplify_time": 0.0,
        "select_time": 0.0,
        "spill_time": 0.0,
        "total_time": 0.0,
    }
    for entry in functions.values():
        stats_totals = entry["stats"]["totals"]
        totals["passes"] += stats_totals["pass_count"]
        totals["live_ranges"] += stats_totals["live_ranges"]
        totals["registers_spilled"] += stats_totals["registers_spilled"]
        totals["total_registers_spilled"] += (
            stats_totals["total_registers_spilled"]
        )
        totals["spill_cost"] += stats_totals["spill_cost"]
        totals["total_time"] += stats_totals["total_time"]
        for phase in ("build", "simplify", "select", "spill"):
            totals[f"{phase}_time"] += sum(
                p[f"{phase}_time"] for p in entry["stats"]["passes"]
            )
    document = {
        "schema": METRICS_SCHEMA,
        "method": allocation.method,
        "target": {
            "name": allocation.target.name,
            "int_regs": allocation.target.int_regs,
            "float_regs": allocation.target.float_regs,
        },
        "functions": functions,
        "totals": totals,
        "failures": [f.as_dict() for f in allocation.failures],
    }
    if allocation.parallel_fallback:
        document["parallel_fallback"] = allocation.parallel_fallback
    diagnostics = pool_diagnostics()
    if diagnostics is not None:
        document["pool"] = diagnostics
    if service:
        document["service"] = dict(service)
    if tracer is not None and getattr(tracer, "counters", None):
        document["counters"] = dict(sorted(tracer.counters.items()))
    if meta:
        document["meta"] = dict(meta)
    return document


def write_metrics_json(document: dict, path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
