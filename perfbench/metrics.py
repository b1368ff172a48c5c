"""Metric definitions and how each is computed from a run's raw data.

``END_TO_END`` are the metrics every workload reports with ``--trace 0``
and that ``BENCHMARK.json`` bounds: each is defined on all three
workloads and is never zero.  ``REPORTED`` are printed with them but not
bounded, because on some workload they are zero or undefined (an
``error_rate`` of 0 is the goal; a coloring has no code size).
``PER_LAYER`` are the traced run's metrics, printed for every workload;
a layer a workload does not reach reads 0.  Per-operation values divide
by the operations of the pass they were measured in.
"""

from __future__ import annotations

from perfbench.common import (
    geomean,
    median,
    percentile,
    samples_beyond,
    tail_percentile,
)
from perfbench.inputs import SUITE_PROGRAMS

#: (name, unit, better, definition)
END_TO_END = (
    ("throughput_rps", "1/s", "higher",
     "operations completed per second of the timed window"),
    ("latency_geomean_ms", "ms", "lower",
     "geometric mean over the run's distinct inputs of each input's "
     "median operation latency"),
    ("setup_s", "s", "lower",
     "median over fresh starts of interpreter start, imports, pool spawn "
     "or server start until /readyz, and one warm-up operation"),
    ("peak_rss_mb", "MiB", "lower",
     "peak resident set of the processes doing the work, summed"),
)

#: (name, unit, better): printed where they apply, not bounded.
REPORTED = (
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("error_rate", "fraction", "lower"),
    ("spilled_ranges", "count", "lower"),
    ("code_bytes", "bytes", "lower"),
    ("sim_cycles", "cycles", "lower"),
)

_MS = "ms"
_COUNT = "count"
_RATIO = "ratio"

#: (name, unit) in print order.
PER_LAYER = (
    ("frontend.self_ms", _MS), ("frontend.ir_instrs", _COUNT),
    ("webs.self_ms", _MS), ("webs.split", _COUNT),
    ("coalesce.self_ms", _MS), ("coalesce.rounds", _COUNT),
    ("coalesce.copies_removed", _COUNT),
    ("coalesce.useful_round_ratio", _RATIO),
    ("liveness.self_ms", _MS), ("liveness.solves", _COUNT),
    ("interference.self_ms", _MS), ("interference.builds", _COUNT),
    ("interference.builds_per_pass", _RATIO),
    ("interference.edges", _COUNT),
    ("spill_costs.self_ms", _MS), ("simplify.self_ms", _MS),
    ("select.self_ms", _MS), ("spill.self_ms", _MS),
    ("driver.passes", _COUNT), ("driver.self_ms", _MS),
    ("wire.encode_ms", _MS), ("wire.decode_ms", _MS),
    ("wire.bytes", "bytes"),
    ("pool.dispatch_ms", _MS), ("pool.tasks", _COUNT),
    ("cache.hit_ratio", _RATIO),
    ("service.queue_wait_ms", _MS), ("service.dispatch_ms", _MS),
    ("service.e2e_ms", _MS), ("service.client_overhead_ms", _MS),
    ("matula.order_ms", _MS),
    ("repair.rounds", _COUNT), ("repair.parallel_rounds", _COUNT),
    ("repair.useful_ratio", _RATIO), ("repair.dispatch_ms", _MS),
) + tuple((f"suite.{name}.ms", _MS) for name in SUITE_PROGRAMS) + (
    ("trace.coverage", _RATIO), ("trace.residual_ms", _MS),
    ("trace.overhead_rps", "1/s"),
)

#: Layers whose self time counts as "named" in the coverage line.
SUITE_NAMED = ("frontend", "webs", "coalesce", "liveness", "interference",
               "spill_costs", "simplify", "select", "spill")
GRAPH_NAMED = ("repair", "matula", "pool", "pool.wait")
SERVER_NAMED = ("frontend", "wire.encode", "wire.decode", "cache", "pool",
                "pool.wait")


def ok_latencies(latencies, failed) -> list:
    failed = set(failed)
    return [value for index, value in enumerate(latencies)
            if index not in failed and value is not None]


def per_input_geomean_ms(names, latencies, failed) -> float:
    """Geometric mean over distinct inputs of each one's median latency."""
    failed = set(failed)
    by_input: dict = {}
    for index, (name, value) in enumerate(zip(names, latencies)):
        if index not in failed and value is not None:
            by_input.setdefault(name, []).append(value)
    return 1000.0 * geomean(median(values) for values in by_input.values())


def end_to_end(workload: str, run: dict, setups: list):
    """``run`` holds ``names``, ``latencies`` (seconds), ``failed``
    (indices), ``window`` (seconds), ``peak_rss_mb`` and ``checks``.
    Returns the bounded metrics and the unbounded ones."""
    good = ok_latencies(run["latencies"], run["failed"])
    attempted = len(run["names"])
    values = {
        "throughput_rps": len(good) / run["window"],
        "latency_geomean_ms": per_input_geomean_ms(
            run["names"], run["latencies"], run["failed"]),
        "setup_s": median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    reported = {
        "latency_p50_ms": 1000.0 * median(good),
        "error_rate": (attempted - len(good)) / attempted,
        "spilled_ranges": run["checks"]["spilled_ranges"],
    }
    if workload == "serve":
        reported["latency_p95_ms"] = 1000.0 * percentile(good, 95)
    if workload == "suite":
        reported["code_bytes"] = run["checks"]["code_bytes"]
        reported["sim_cycles"] = run["checks"]["sim_cycles"]
    return values, reported


def tail_note(latencies) -> str:
    """The highest percentile with ten samples beyond it, and the count."""
    q = tail_percentile(latencies)
    if q is None:
        return f"no percentile above p50 has 10 samples beyond it " \
               f"({len(latencies)} samples)"
    return (f"p{q:g} = {1000.0 * percentile(latencies, q):.2f} ms "
            f"({len(latencies)} samples, "
            f"{samples_beyond(latencies, q)} beyond)")


def zero_layers() -> dict:
    return {name: 0.0 for name, _unit in PER_LAYER}


def _ms(probe, layers, ops) -> float:
    return 1000.0 * sum(probe["self_s"].get(layer, 0.0)
                        for layer in layers) / ops


def _allocator_counts(out: dict, counts: dict, ops: int) -> None:
    """Counts shared by ``suite`` (its own probe) and ``serve`` (the
    probed reference allocations)."""
    rounds = counts.get("coalesce.rounds", 0)
    passes = counts.get("driver.passes", 0)
    builds = counts.get("interference.builds", 0)
    out["webs.split"] = counts.get("webs.split", 0) / ops
    out["coalesce.rounds"] = rounds / ops
    out["coalesce.copies_removed"] = counts.get(
        "coalesce.copies_removed", 0) / ops
    # coalesce_copies stops after its first round that removes nothing,
    # so every call has exactly one useless round.
    useful = max(0.0, rounds - counts.get("coalesce.calls", 0))
    out["coalesce.useful_round_ratio"] = useful / rounds if rounds else 0.0
    out["liveness.solves"] = counts.get("liveness.solves", 0) / ops
    out["interference.builds"] = builds / ops
    out["interference.builds_per_pass"] = builds / passes if passes else 0.0
    out["interference.edges"] = counts.get("interference.edges", 0) / ops
    out["driver.passes"] = passes / ops


def coverage(out: dict, named_s: float, total_s: float, ops: int) -> None:
    out["trace.coverage"] = named_s / total_s if total_s else 0.0
    out["trace.residual_ms"] = 1000.0 * (total_s - named_s) / ops


def suite_layers(untraced: dict, traced: dict) -> dict:
    out = zero_layers()
    probe = traced["probe"]
    ops = len(traced["names"])
    for layer in SUITE_NAMED + ("driver",):
        out[f"{layer}.self_ms"] = _ms(probe, (layer,), ops)
    out["frontend.ir_instrs"] = probe["counts"].get(
        "frontend.ir_instrs", 0) / ops
    _allocator_counts(out, probe["counts"], ops)
    by_program: dict = {}
    for index, (name, value) in enumerate(zip(untraced["names"],
                                              untraced["latencies"])):
        if index not in set(untraced["failed"]):
            by_program.setdefault(name, []).append(value)
    for name, values in by_program.items():
        out[f"suite.{name}.ms"] = 1000.0 * median(values)
    named = sum(probe["self_s"].get(layer, 0.0) for layer in SUITE_NAMED)
    coverage(out, named, sum(traced["latencies"]), ops)
    return out


def graph_layers(untraced: dict, traced: dict) -> dict:
    out = zero_layers()
    probe = traced["probe"]
    counts = probe["counts"]
    ops = len(traced["names"])
    out["matula.order_ms"] = _ms(probe, ("matula",), ops)
    out["pool.dispatch_ms"] = _ms(probe, ("pool", "pool.wait"), ops)
    out["pool.tasks"] = probe["calls"].get("pool", 0) / ops
    out["repair.rounds"] = counts.get("repair.rounds", 0) / ops
    out["repair.parallel_rounds"] = counts.get(
        "repair.parallel_rounds", 0) / ops
    nodes = counts.get("repair.nodes", 0)
    out["repair.useful_ratio"] = nodes / (
        nodes + counts.get("repair.conflicts", 0)) if nodes else 0.0
    out["repair.dispatch_ms"] = 1000.0 * traced["checks"][
        "repair_dispatch_s"] / ops
    named = sum(probe["self_s"].get(layer, 0.0) for layer in GRAPH_NAMED)
    coverage(out, named, sum(traced["latencies"]), ops)
    return out


def serve_layers(untraced: dict, probed: dict, lanes: dict,
                 ref_counts: dict) -> dict:
    """``untraced``: the plain measured run (client latencies and the
    server's own ``/metrics``); ``probed``: the run against the wrapped
    server; ``lanes``: worker-lane self seconds summed over the
    ``"trace": true`` replies; ``ref_counts``: allocator counts summed
    over the probed reference allocations of the same request sequence.
    """
    out = zero_layers()
    probe = probed["probe"]
    ops = len(probed["names"])
    counts = probe["counts"]
    out["frontend.self_ms"] = _ms(probe, ("frontend",), ops)
    out["frontend.ir_instrs"] = counts.get("frontend.ir_instrs", 0) / ops
    out["wire.encode_ms"] = _ms(probe, ("wire.encode",), ops)
    out["wire.decode_ms"] = _ms(probe, ("wire.decode",), ops)
    out["wire.bytes"] = counts.get("wire.bytes", 0) / ops
    out["pool.dispatch_ms"] = _ms(probe, ("pool", "pool.wait"), ops)
    out["pool.tasks"] = probe["calls"].get("pool", 0) / ops
    lookups = counts.get("cache.lookups", 0)
    out["cache.hit_ratio"] = counts.get("cache.hits", 0) / lookups \
        if lookups else 0.0
    # Means from the server's own histogram sums and counts: their
    # quantiles are log-bucket edges, too coarse to subtract.
    service = {op: 1000.0 * hist["sum"] / hist["count"]
               for op, hist in untraced["service"].items()}
    out["service.queue_wait_ms"] = service["queue_wait"]
    out["service.dispatch_ms"] = service["dispatch"]
    out["service.e2e_ms"] = service["e2e"]
    client = ok_latencies(untraced["latencies"], untraced["failed"])
    out["service.client_overhead_ms"] = \
        1000.0 * sum(client) / len(client) - service["e2e"]
    traced_ops = lanes["ops"]
    for layer in ("webs", "coalesce", "liveness", "interference",
                  "spill_costs", "simplify", "select", "spill", "driver"):
        out[f"{layer}.self_ms"] = 1000.0 * lanes["self_s"].get(
            layer, 0.0) / traced_ops
    _allocator_counts(out, ref_counts, traced_ops)
    named = sum(probe["self_s"].get(layer, 0.0) for layer in SERVER_NAMED)
    coverage(out, named, sum(ok_latencies(probed["latencies"],
                                          probed["failed"])), ops)
    return out
