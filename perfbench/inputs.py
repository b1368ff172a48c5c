"""Seeded workload inputs.

Every workload is a fixed sequence of operations drawn from
``random.Random(f"{workload}:{seed}")``: the same seed and run length
give the same inputs in the same order.  The operation count is fixed by
the run length through a nominal rate per workload, never by the clock,
so a slower build does the same work and just takes longer.

The program under test receives only what these functions produce:
program sources and adjacency lists.
"""

from __future__ import annotations

import pickle
import random

from perfbench.common import digest_bytes

#: The seven registry programs, in the registry's order.
SUITE_PROGRAMS = ("svd", "linpack", "simplex", "euler", "cedeta",
                  "quicksort", "intsuite")
#: Set-up's warm-up operation: the smallest registry program, fixed so
#: set-up time does not depend on the seed.
SUITE_WARMUP = "quicksort"
#: Nominal seconds per suite sweep (seven programs) on a 2-vCPU box.
SUITE_SWEEP_S = 1.5

#: Nominal served requests per second (two connections).
SERVE_RATE = 14.0
#: A p95 must leave at least ten replies beyond it.
SERVE_MIN_REQUESTS = 240
SERVE_REPEAT_SHARE = 0.25
#: A repeat names a program sent at least this many requests earlier, so
#: it seldom waits for that program's first reply (the client holds it
#: until then)...
SERVE_REPEAT_MIN_GAP = 2
#: ...and one of the last this-many distinct programs, whose three
#: functions are still in the 256-entry response cache.
SERVE_REPEAT_WINDOW = 16
#: Set-up's warm-up request: one fixed generated program, so set-up time
#: does not depend on the seed.  It is never sent in the timed sequence.
SERVE_WARMUP_SEED = 0

GRAPH_NODES = 10**5
GRAPH_DENSITY = 8.0
GRAPH_COLORS = 16
GRAPH_DISTINCT = 3
#: Seconds of run length per operation; a pooled repair_color on a
#: 10^5-node graph takes ~2.3 s on a 2-vCPU box, so a run is a little
#: longer than its nominal length but holds a dozen colorings.
GRAPH_OP_S = 2.0
GRAPH_MIN_OPS = 5


def suite_inputs(seed: int, seconds: float) -> dict:
    from repro.workloads import all_workloads

    registry = all_workloads()
    rng = random.Random(f"suite:{seed}")
    sweeps = max(2, round(seconds / SUITE_SWEEP_S))
    ops = []
    for _ in range(sweeps):
        order = list(SUITE_PROGRAMS)
        rng.shuffle(order)
        ops.extend(order)
    return {
        "workload": "suite",
        "seed": seed,
        "sources": {name: registry[name].source for name in SUITE_PROGRAMS},
        "warmup": SUITE_WARMUP,
        "ops": ops,
    }


def serve_inputs(seed: int, seconds: float) -> dict:
    from repro.workloads.synth import generate_program

    rng = random.Random(f"serve:{seed}")
    count = max(SERVE_MIN_REQUESTS, round(seconds * SERVE_RATE))
    warmup = generate_program(SERVE_WARMUP_SEED)
    sources: list = []
    first_sent: list = []
    sequence: list = []
    for index in range(count):
        eligible = [
            program for program in range(max(0, len(sources)
                                             - SERVE_REPEAT_WINDOW),
                                         len(sources))
            if first_sent[program] <= index - SERVE_REPEAT_MIN_GAP
        ]
        if eligible and rng.random() < SERVE_REPEAT_SHARE:
            sequence.append(rng.choice(eligible))
            continue
        source = generate_program(rng.randrange(2**31))
        while source == warmup:
            source = generate_program(rng.randrange(2**31))
        sources.append(source)
        first_sent.append(index)
        sequence.append(len(sources) - 1)
    return {
        "workload": "serve",
        "seed": seed,
        "sources": sources,
        "sequence": sequence,
        "warmup": warmup,
    }


def graph_inputs(seed: int, seconds: float) -> dict:
    from repro.workloads.synth import generate_graph

    rng = random.Random(f"graph:{seed}")
    count = max(GRAPH_MIN_OPS, round(seconds / GRAPH_OP_S))
    graphs = [
        generate_graph(GRAPH_NODES, GRAPH_DENSITY,
                       rng.randrange(2**31)).adjacency
        for _ in range(GRAPH_DISTINCT)
    ]
    return {
        "workload": "graph",
        "seed": seed,
        "k": GRAPH_COLORS,
        "graphs": graphs,
        "ops": [index % GRAPH_DISTINCT for index in range(count)],
    }


BUILDERS = {"suite": suite_inputs, "serve": serve_inputs,
            "graph": graph_inputs}

#: Operations in one indivisible share of a run: a sweep, or one graph.
SHARE_UNIT = {"suite": len(SUITE_PROGRAMS), "graph": 1}


def shares(inputs: dict, parts: int) -> list:
    """``(start, end)`` slices of ``inputs["ops"]`` for ``parts``
    processes: contiguous, in order, as even as whole units allow."""
    unit = SHARE_UNIT[inputs["workload"]]
    units = len(inputs["ops"]) // unit
    parts = min(parts, units)
    bounds, start = [], 0
    for index in range(parts):
        size = units // parts + (1 if index < units % parts else 0)
        bounds.append((start * unit, (start + size) * unit))
        start += size
    return bounds


def encode(inputs: dict) -> bytes:
    """The byte form handed to the program's process.  Inputs built the
    same way pickle (protocol 4) to the same bytes, so the digest below
    is a stamp of them."""
    return pickle.dumps(inputs, protocol=4)


def decode(blob: bytes) -> dict:
    return pickle.loads(blob)


def digest(blob: bytes) -> str:
    """The run's input stamp: equal digests mean equal inputs."""
    return digest_bytes(blob)[:16]
