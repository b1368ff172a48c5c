#!/usr/bin/env python
"""Allocator hot-path benchmark harness.

Times the Build–Simplify–Select phases and full module allocation on the
two workloads the paper leans on hardest — CEDETA's generated GRADNT
routine (the long-live-range stress case) and SVD (the motivating
example) — plus a whole-registry sweep and the wire-vs-pickle transport
comparison, and writes the results to a ``BENCH_*.json`` file so future
PRs can track the perf trajectory::

    PYTHONPATH=src python benchmarks/run_bench.py            # -> BENCH_PR6.json
    PYTHONPATH=src python benchmarks/run_bench.py --runs 9 --out BENCH_PR7.json

Schema: ``repro-bench/1`` — ``{"schema": ..., "phases": {phase:
{"median_s": float, "runs": int}}}``, written through
:mod:`repro.observability.export` so ``repro bench-diff`` reads it
natively (it also still reads the PR-1-era flat files).

The document also carries a ``noise`` section: a pinned probe (the seed
build over SVD — frozen code that no PR optimizes) is timed in
interleaved A/B pairs at the start and again at the end of the bench,
and the larger of the within-pair scatter and the start-to-end drift is
recorded as ``noise.rel``.  ``repro bench-diff`` widens its timing gate
by that fraction, so a comparison across machines (or a machine having
a bad day) does not read as a code regression.  ``--noise-samples 0``
skips the probe.

Phases
------

``build_<wl>``
    Fused dual-class interference-graph build (one backward walk for both
    register classes, O(popcount) kernels).
``build_seed_<wl>``
    Reference reimplementation of the *seed* build for comparison: one
    walk per register class, per-bit ``live_nodes`` iteration at every
    definition point, and the O(nodes x max_id) bit-by-bit ``freeze``.
    The speedup claim of PR 1 is ``build_seed_X / build_X``.
``simplify_<wl>`` / ``select_<wl>``
    The Briggs phases over the prebuilt first-pass graphs.
``alloc_<wl>``
    Full serial ``allocate_module`` (fresh compile each run).
``alloc_<wl>_jobs<N>``
    Same, through the persistent warm worker pool (``--jobs``, default 2;
    0 skips).  The first sample pays the pool warm-up; later samples hit
    the warm pool and the content-addressed response cache, which is the
    point — the median reports the steady state a compile server sees.
``alloc_registry_all_jobs1`` / ``alloc_registry_all_jobs<N>``
    Every registry workload allocated back-to-back, serial vs pooled
    (``jobs=1`` never leaves the process).
    ``alloc_registry_all_jobs<N>_nocache`` repeats the pooled sweep with
    the response cache disabled — warm-pool dispatch cost, honestly.
``wire_encode_registry`` / ``wire_decode_registry`` /
``pickle_encode_registry`` / ``pickle_decode_registry``
    The transport codecs over every registry function; payload sizes land
    in the document's top-level ``wire`` section.
``repair_synth_<size>`` / ``seqcolor_synth_<size>`` /
``greedy_synth_<size>`` / ``briggs_synth_1e4``
    Coloring at graph scale on seeded ``generate_graph`` instances
    (density 8, k=16) at 10^4/10^5/10^6 nodes: the PR-9 conflict-repair
    engine, the sequential single-chunk baseline (plain-graph
    briggs-degree semantics: one first-fit sweep in reversed
    smallest-last order), and unbounded Matula–Beck greedy.  Full
    bit-matrix Briggs additionally runs at 10^4 — its O(n^2)-bit graphs
    stop being representable much past that, which is the point of the
    plain-graph engine.  ``--synth-max-nodes`` caps the tier (default
    10^5 so CI stays fast; the committed BENCH_PR9.json was produced
    with 10^6).  Per-size structural facts (edges, rounds, conflicts,
    spills, greedy color count) land in the top-level ``synth`` section.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.analysis.cfg import CFG  # noqa: E402
from repro.analysis.liveness import Liveness  # noqa: E402
from repro.regalloc import allocate_module  # noqa: E402
from repro.regalloc.interference import (  # noqa: E402
    InterferenceGraph,
    build_interference_graphs,
)
from repro.regalloc.simplify import simplify  # noqa: E402
from repro.regalloc.select import select_colors  # noqa: E402
from repro.regalloc.spill_costs import compute_spill_costs  # noqa: E402
from repro.ir.values import RClass  # noqa: E402
from repro.machine.target import rt_pc  # noqa: E402
from repro.observability.export import BENCH_SCHEMA, write_metrics_json  # noqa: E402

#: (workload module, routine used for the phase benchmarks)
WORKLOADS = (
    ("cedeta", "gradnt"),
    ("svd", "svd"),
)

_CLASSES = (RClass.INT, RClass.FLOAT)


# ----------------------------------------------------------------------
# Seed-reference build (the pre-PR-1 algorithm, kept for the trajectory)
# ----------------------------------------------------------------------


def _seed_freeze(graph: InterferenceGraph) -> None:
    """The seed's bit-by-bit freeze: O(num_nodes * max_node_id)."""
    graph.adj_list = []
    for node in range(graph.num_nodes):
        mask = graph.adj_mask[node]
        neighbors = []
        index = 0
        while mask:
            if mask & 1:
                neighbors.append(index)
            mask >>= 1
            index += 1
        graph.adj_list.append(neighbors)


def seed_build_interference_graph(function, rclass, target, liveness):
    """The seed implementation of the build phase, one register class per
    backward walk, with per-bit live-set iteration at every def point."""
    k = target.regs(rclass)
    graph = InterferenceGraph(rclass, k)
    class_mask = 0
    for vreg in function.vregs:
        if vreg.rclass == rclass:
            class_mask |= 1 << vreg.id
    by_id = {v.id: v for v in function.vregs}
    caller_saved = sorted(target.caller_saved(rclass))

    class_params = [p for p in function.params if p.rclass == rclass]
    for param in class_params:
        graph.ensure_node(param)
    for index, first in enumerate(class_params):
        for second in class_params[index + 1 :]:
            graph.add_edge(graph.ensure_node(first), graph.ensure_node(second))
    entry_live = liveness.live_in[function.entry.label] & class_mask
    masked = entry_live
    while masked:
        low = masked & -masked
        masked ^= low
        vreg = by_id[low.bit_length() - 1]
        node = graph.ensure_node(vreg)
        for param in class_params:
            graph.add_edge(node, graph.ensure_node(param))
    for _block, _index, instr in function.instructions():
        for vreg in instr.defs:
            if vreg.rclass == rclass:
                graph.ensure_node(vreg)
        for vreg in instr.uses:
            if vreg.rclass == rclass:
                graph.ensure_node(vreg)

    def live_nodes(mask):
        masked = mask & class_mask
        while masked:
            low = masked & -masked
            masked ^= low
            yield graph.ensure_node(by_id[low.bit_length() - 1])

    for block in function.blocks:
        live = liveness.live_out[block.label]
        for instr in reversed(block.instrs):
            defs_mask = 0
            for d in instr.defs:
                defs_mask |= 1 << d.id
            if instr.is_call:
                across = live & ~defs_mask
                for node in live_nodes(across):
                    for color in caller_saved:
                        graph.add_edge(node, color)
            copy_source_mask = 0
            if instr.is_copy:
                copy_source_mask = 1 << instr.uses[0].id
            for d in instr.defs:
                if d.rclass != rclass:
                    continue
                d_node = graph.ensure_node(d)
                interfering = live & ~(1 << d.id) & ~copy_source_mask
                for node in live_nodes(interfering):
                    graph.add_edge(d_node, node)
            live = live & ~defs_mask
            for u in instr.uses:
                live |= 1 << u.id

    _seed_freeze(graph)
    return graph


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def _median_time(fn, runs: int) -> float:
    samples = []
    for _ in range(runs):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _load(workload_name: str):
    import importlib

    module = importlib.import_module(f"repro.workloads.{workload_name}")
    return module.workload()


def bench_workload(workload_name: str, routine: str, runs: int, jobs: int,
                   results: dict) -> None:
    target = rt_pc()
    workload = _load(workload_name)
    module = workload.compile()
    function = module.function(routine)

    liveness = Liveness(function, CFG(function))

    def fused_build():
        return build_interference_graphs(function, target, liveness)

    def seed_build():
        for rclass in _CLASSES:
            seed_build_interference_graph(function, rclass, target, liveness)

    results[f"build_{workload_name}"] = {
        "median_s": _median_time(fused_build, runs),
        "runs": runs,
    }
    results[f"build_seed_{workload_name}"] = {
        "median_s": _median_time(seed_build, runs),
        "runs": runs,
    }

    graphs = build_interference_graphs(function, target, liveness)
    costs = compute_spill_costs(function)

    def run_simplify():
        for graph in graphs.values():
            simplify(graph, costs, optimistic=True)

    stacks = {
        rclass: simplify(graph, costs, optimistic=True).stack
        for rclass, graph in graphs.items()
    }

    def run_select():
        for rclass, graph in graphs.items():
            select_colors(graph, stacks[rclass], target.color_order(rclass))

    results[f"simplify_{workload_name}"] = {
        "median_s": _median_time(run_simplify, runs),
        "runs": runs,
    }
    results[f"select_{workload_name}"] = {
        "median_s": _median_time(run_select, runs),
        "runs": runs,
    }

    def full_alloc():
        allocate_module(workload.compile(), target, "briggs")

    results[f"alloc_{workload_name}"] = {
        "median_s": _median_time(full_alloc, runs),
        "runs": runs,
    }

    if jobs > 1:
        def parallel_alloc():
            allocate_module(workload.compile(), target, "briggs", jobs=jobs)

        results[f"alloc_{workload_name}_jobs{jobs}"] = {
            "median_s": _median_time(parallel_alloc, runs),
            "runs": runs,
        }


def bench_registry(runs: int, jobs: int, results: dict) -> None:
    """Whole-registry sweep: serial, pooled, and pooled-without-cache."""
    from repro.regalloc.pool import RESPONSE_CACHE, shutdown_pools
    from repro.workloads import all_workloads

    target = rt_pc()
    workloads = [all_workloads()[name] for name in sorted(all_workloads())]

    def sweep(sweep_jobs: int, cache: bool = True):
        for workload in workloads:
            allocate_module(
                workload.compile(), target, "briggs",
                jobs=sweep_jobs, cache=cache,
            )

    results["alloc_registry_all_jobs1"] = {
        "median_s": _median_time(lambda: sweep(1), runs),
        "runs": runs,
    }
    if jobs > 1:
        shutdown_pools()
        RESPONSE_CACHE.clear()
        results[f"alloc_registry_all_jobs{jobs}"] = {
            "median_s": _median_time(lambda: sweep(jobs), runs),
            "runs": runs,
        }
        RESPONSE_CACHE.clear()
        results[f"alloc_registry_all_jobs{jobs}_nocache"] = {
            "median_s": _median_time(lambda: sweep(jobs, cache=False), runs),
            "runs": runs,
        }


def bench_wire(runs: int, results: dict) -> dict:
    """Wire codec vs pickle over every registry function: encode/decode
    medians as phases, payload sizes returned for the ``wire`` section."""
    import pickle

    from repro.ir.wire import decode_function, encode_function
    from repro.workloads import all_workloads

    functions = [
        function
        for name in sorted(all_workloads())
        for function in all_workloads()[name].compile()
    ]
    wire_texts = [encode_function(f) for f in functions]
    pickles = [pickle.dumps(f) for f in functions]

    results["wire_encode_registry"] = {
        "median_s": _median_time(
            lambda: [encode_function(f) for f in functions], runs),
        "runs": runs,
    }
    results["pickle_encode_registry"] = {
        "median_s": _median_time(
            lambda: [pickle.dumps(f) for f in functions], runs),
        "runs": runs,
    }
    results["wire_decode_registry"] = {
        "median_s": _median_time(
            lambda: [decode_function(t) for t in wire_texts], runs),
        "runs": runs,
    }
    results["pickle_decode_registry"] = {
        "median_s": _median_time(
            lambda: [pickle.loads(b) for b in pickles], runs),
        "runs": runs,
    }

    wire_bytes = sum(len(t.encode()) for t in wire_texts)
    pickle_bytes = sum(len(b) for b in pickles)
    return {
        "functions": len(functions),
        "wire_bytes": wire_bytes,
        "pickle_bytes": pickle_bytes,
        "pickle_to_wire_ratio": round(pickle_bytes / wire_bytes, 2),
    }


SYNTH_SIZES = (10_000, 100_000, 1_000_000)
SYNTH_LABELS = {10_000: "1e4", 100_000: "1e5", 1_000_000: "1e6"}
SYNTH_DENSITY = 8.0
SYNTH_K = 16
SYNTH_SEED = 9


def bench_synth(runs: int, max_nodes: int, results: dict) -> dict:
    """Graph-scale coloring phases; returns the ``synth`` info section."""
    from repro.regalloc.matula import greedy_color  # noqa: E402
    from repro.regalloc.repair import (  # noqa: E402
        repair_color,
        verify_coloring,
    )
    from repro.workloads.synth import generate_graph  # noqa: E402

    info: dict = {"density": SYNTH_DENSITY, "k": SYNTH_K,
                  "seed": SYNTH_SEED, "sizes": {}}
    for n in SYNTH_SIZES:
        if n > max_nodes:
            continue
        label = SYNTH_LABELS[n]
        graph = generate_graph(n, SYNTH_DENSITY, seed=SYNTH_SEED)
        n_runs = max(1, min(runs, 3)) if n <= 10_000 else 1
        latest: dict = {}

        def run_repair():
            latest["repair"] = repair_color(graph.adjacency, SYNTH_K)

        results[f"repair_synth_{label}"] = {
            "median_s": _median_time(run_repair, n_runs),
            "runs": n_runs,
        }
        repair = latest["repair"]
        verify_coloring(graph.adjacency, repair.colors, SYNTH_K,
                        repair.spilled)

        def run_seq():
            latest["seq"] = repair_color(
                graph.adjacency, SYNTH_K, chunk_size=max(1, n),
                max_rounds=1,
            )

        results[f"seqcolor_synth_{label}"] = {
            "median_s": _median_time(run_seq, n_runs),
            "runs": n_runs,
        }

        def run_greedy():
            latest["greedy"] = greedy_color(graph.adjacency)

        results[f"greedy_synth_{label}"] = {
            "median_s": _median_time(run_greedy, n_runs),
            "runs": n_runs,
        }

        size_info = {
            "n": n,
            "edges": graph.edges,
            "repair_rounds": repair.rounds,
            "repair_conflicts": repair.conflicts,
            "repair_spilled": len(repair.spilled),
            "seqcolor_spilled": len(latest["seq"].spilled),
            "greedy_colors": max(latest["greedy"], default=-1) + 1,
        }

        if n <= 10_000:
            from repro.regalloc import BriggsAllocator  # noqa: E402
            from repro.robustness.fuzz import (  # noqa: E402
                GraphSpec,
                build_graph,
            )

            edges = [(a, b) for a in range(n)
                     for b in graph.adjacency[a] if a < b]
            spec = GraphSpec(n, SYNTH_K, edges, [1.0] * n)
            igraph, costs = build_graph(spec)

            def run_briggs():
                latest["briggs"] = BriggsAllocator().allocate_class(
                    igraph, costs)

            results[f"briggs_synth_{label}"] = {
                "median_s": _median_time(run_briggs, n_runs),
                "runs": n_runs,
            }
            size_info["briggs_spilled"] = len(
                latest["briggs"].spilled_vregs)
        info["sizes"][label] = size_info
    return info


def make_noise_probe():
    """The machine-noise probe: one timed execution of the *seed* build
    over SVD.  Pinned on purpose — the seed reimplementation above is
    frozen reference code no PR optimizes, so any run-to-run variation
    in its timing is the machine, not the patch under test."""
    workload = _load("svd")
    function = workload.compile().function("svd")
    target = rt_pc()
    liveness = Liveness(function, CFG(function))

    def probe() -> float:
        started = time.perf_counter()
        for rclass in _CLASSES:
            seed_build_interference_graph(function, rclass, target,
                                          liveness)
        return time.perf_counter() - started

    return probe


def sample_noise_block(probe, pairs: int) -> list:
    """Back-to-back A/B samples: ``[(a_s, b_s), ...]``.  Interleaving
    means each pair sees the same instantaneous machine state, so the
    within-pair spread isolates scheduling jitter from slow drift."""
    probe()  # warm-up: page cache, allocator pools, branch predictors
    return [(probe(), probe()) for _ in range(pairs)]


def estimate_noise(start_block, end_block) -> dict:
    """The ``noise`` document section from the two probe blocks.

    ``rel`` — the headline number bench-diff consumes — is the larger
    of the median within-pair relative spread (fast jitter) and the
    start-median vs end-median relative drift (thermal throttling,
    co-tenant load arriving mid-bench).
    """
    def rel(a: float, b: float) -> float:
        floor = min(a, b)
        return abs(a - b) / floor if floor > 0 else 0.0

    pairs = list(start_block) + list(end_block)
    within = statistics.median([rel(a, b) for a, b in pairs])
    start_median = statistics.median(
        [sample for pair in start_block for sample in pair])
    end_median = statistics.median(
        [sample for pair in end_block for sample in pair])
    drift = rel(start_median, end_median)
    return {
        "probe": "build_seed_svd",
        "pairs": len(pairs),
        "within_rel": round(within, 4),
        "drift_rel": round(drift, 4),
        "rel": round(max(within, drift), 4),
        "start_median_s": round(start_median, 6),
        "end_median_s": round(end_median, 6),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent
                    / "BENCH_PR9.json"),
        help="output JSON path (default BENCH_PR9.json at the repo root)",
    )
    parser.add_argument("--runs", type=int, default=5,
                        help="samples per phase; the median is reported")
    parser.add_argument("--jobs", type=int, default=2,
                        help="also time allocate_module through the worker "
                             "pool with this many processes (0 = skip)")
    parser.add_argument("--synth-max-nodes", type=int, default=100_000,
                        help="largest graph-scale coloring tier to run "
                             "(0 skips the synth phases entirely; "
                             "1000000 reproduces BENCH_PR9.json)")
    parser.add_argument("--noise-samples", type=int, default=3,
                        dest="noise_samples",
                        help="A/B probe pairs per noise block (one block "
                             "before the bench, one after; default 3; "
                             "0 skips noise estimation)")
    args = parser.parse_args(argv)

    probe = start_block = None
    if args.noise_samples > 0:
        probe = make_noise_probe()
        start_block = sample_noise_block(probe, args.noise_samples)

    results: dict = {}
    for workload_name, routine in WORKLOADS:
        bench_workload(workload_name, routine, args.runs, args.jobs, results)
    bench_registry(args.runs, args.jobs, results)
    wire_sizes = bench_wire(args.runs, results)
    synth_info = bench_synth(args.runs, args.synth_max_nodes, results)

    document = {"schema": BENCH_SCHEMA, "phases": results,
                "wire": wire_sizes, "synth": synth_info}
    noise = None
    if probe is not None:
        end_block = sample_noise_block(probe, args.noise_samples)
        noise = estimate_noise(start_block, end_block)
        document["noise"] = noise

    out = write_metrics_json(document, args.out)

    width = max(len(name) for name in results)
    for name in sorted(results):
        print(f"{name:<{width}}  {results[name]['median_s'] * 1e3:9.3f} ms")
    for workload_name, _routine in WORKLOADS:
        seed = results[f"build_seed_{workload_name}"]["median_s"]
        new = results[f"build_{workload_name}"]["median_s"]
        print(f"build speedup vs seed ({workload_name}): {seed / new:.2f}x")
    if args.jobs > 1:
        serial = results["alloc_registry_all_jobs1"]["median_s"]
        pooled = results[f"alloc_registry_all_jobs{args.jobs}"]["median_s"]
        print(f"registry pool speedup (jobs={args.jobs}): "
              f"{serial / pooled:.2f}x")
    print(f"wire payload: {wire_sizes['wire_bytes']} B vs pickle "
          f"{wire_sizes['pickle_bytes']} B "
          f"({wire_sizes['pickle_to_wire_ratio']}x smaller)")
    for label, size_info in sorted(synth_info["sizes"].items()):
        print(f"synth {label}: {size_info['edges']} edges, repair "
              f"{size_info['repair_rounds']} rounds / "
              f"{size_info['repair_conflicts']} conflicts / "
              f"{size_info['repair_spilled']} spilled, greedy used "
              f"{size_info['greedy_colors']} colors")
    if noise is not None:
        print(f"machine noise ({noise['probe']}, {noise['pairs']} A/B "
              f"pairs): ±{noise['rel'] * 100:.1f}% "
              f"(within-pair {noise['within_rel'] * 100:.1f}%, "
              f"drift {noise['drift_rel'] * 100:.1f}%)")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
