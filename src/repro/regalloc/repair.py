"""Conflict-repair coloring — the third allocation strategy.

Chaitin and Briggs both serialize coloring behind a global simplify
stack, which is fine at function scale but leaves nothing to parallelize
when the graph itself is huge.  Rokos, Gorman & Kelly (arXiv:1505.04086)
color million-node graphs the other way around: *speculatively* first-fit
color every uncolored vertex as if its neighbors were frozen, then detect
the (empirically tiny) set of edges where two endpoints raced to the same
color and re-color only that conflict set.  Abu-Khzam & Chahine
(arXiv:1812.11254) apply the same repair step to a coloring invalidated
by incremental edits — which is exactly the shape of our spill-rebuild
loop, where each pass perturbs the previous pass's graph.

The engine here (:func:`repair_color`) works on a *plain* graph given as
adjacency lists, like :mod:`repro.regalloc.matula`, because the bit-matrix
rows of :class:`~repro.regalloc.interference.InterferenceGraph` cost
O(n^2) bits and stop being representable long before 10^6 nodes.  Round
structure:

1. **Speculate.**  The still-uncolored ("active") vertices are visited in
   a fixed order — reversed Matula–Beck smallest-last by default, the
   same order that makes Briggs' select phase strong (§2.2) — cut into
   fixed-size *chunks*.  Within a chunk, coloring is sequential (each
   vertex sees the tentative choices of earlier vertices in its own
   chunk); across chunks, only colors finalized in earlier rounds are
   visible.
2. **Detect.**  A conflict is an edge whose endpoints picked the same
   color this round.  The endpoint earlier in the coloring order keeps
   its color; the later one re-enters the active set.
3. **Repair.**  Winners are finalized; losers and vertices that found no
   free color among ``color_order`` stay active for the next round.

After ``max_rounds`` rounds (or a round that finalizes nothing), one
final *sequential* sweep over the remaining active set settles every
vertex that still has a free color; the rest are genuinely saturated by
finalized neighbors and become spill candidates, ranked by the caller
(the strategy object ranks them with the existing Chaitin cost/degree
estimate).  The driver's spill-code/rebuild cycle then plays the role of
Abu-Khzam & Chahine's edit-repair loop: the next pass re-colors the
perturbed graph from scratch, minus the spilled ranges.

Every round runs in the calling process.  The chunks are independent and
could go to the :class:`~repro.regalloc.pool.WorkerPool`, but on a 2-vCPU
host pooled rounds measured slower (10^5 nodes: median 2.17 s pooled
against 1.86 s in process; 10^6 nodes: 41.8–43.5 s against 30.5–38.4 s).
Chunk boundaries depend on ``chunk_size`` and the order alone, so where
the chunks run never changed an answer; the rounds, not one sequential
sweep, are what fix the colorings.
"""

from __future__ import annotations

import time

from repro.errors import InvariantError
from repro.observability.trace import coerce_tracer
from repro.regalloc.chaitin import ClassAllocation
from repro.regalloc.matula import _validate_order, smallest_last_order

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_MAX_ROUNDS",
    "RepairOutcome",
    "RepairAllocator",
    "repair_color",
    "verify_coloring",
]

#: Vertices speculated per chunk.  Part of the algorithm: chunk
#: boundaries decide which tentative choices are mutually visible.
DEFAULT_CHUNK_SIZE = 4096

#: Speculation rounds before the sequential settling sweep.  Rokos et
#: al. observe convergence in a handful of rounds on random graphs; the
#: budget only bounds the tail.
DEFAULT_MAX_ROUNDS = 32


class RepairOutcome:
    """Result of :func:`repair_color` over a plain graph."""

    __slots__ = ("colors", "spilled", "rounds", "conflicts",
                 "parallel_rounds", "sweep_settled")

    def __init__(self, colors, spilled, rounds, conflicts, sweep_settled):
        #: color per vertex (-1 = uncolored, i.e. in ``spilled``).
        self.colors = colors
        #: vertices left uncolorable at k colors, in coloring order —
        #: the caller ranks them for spilling.
        self.spilled = spilled
        #: speculation rounds executed (the settling sweep excluded).
        self.rounds = rounds
        #: total conflict-edge losers re-colored across all rounds.
        self.conflicts = conflicts
        #: always 0 (every round runs in process); perfbench reads it.
        self.parallel_rounds = 0
        #: vertices finalized by the sequential settling sweep.
        self.sweep_settled = sweep_settled


def _speculate_chunk(chunk, adjacency, colors, color_order):
    """First-fit color one chunk given frozen ``colors``.

    ``chunk`` lists the chunk's vertices in coloring order.  Vertices
    earlier in the *same* chunk are visible through ``local``; everything
    else sees only finalized colors.  Returns one tentative color per
    vertex, -1 when every color in ``color_order`` is taken.
    """
    local: dict = {}
    out = []
    for vertex in chunk:
        taken = 0
        for neighbor in adjacency[vertex]:
            color = colors[neighbor]
            if color < 0:
                color = local.get(neighbor, -1)
            if color >= 0:
                taken |= 1 << color
        choice = -1
        for color in color_order:
            if not (taken >> color) & 1:
                choice = color
                break
        local[vertex] = choice
        out.append(choice)
    return out


def repair_color(adjacency, k, *, precolored=0, order=None,
                 color_order=None, seed=None,
                 chunk_size=DEFAULT_CHUNK_SIZE,
                 max_rounds=DEFAULT_MAX_ROUNDS,
                 tracer=None) -> RepairOutcome:
    """Conflict-repair color a plain adjacency-list graph with ``k``
    colors.

    ``precolored`` marks nodes ``0..precolored-1`` as fixed physical
    registers with ``colors[i] == i`` (the
    :class:`~repro.regalloc.interference.InterferenceGraph` convention);
    they are never recolored or spilled.  ``order`` overrides the
    coloring order (reversed smallest-last by default) and must be a
    permutation of ``range(len(adjacency))``; precolored nodes in it are
    skipped.  ``seed`` shuffles the order reproducibly.

    The result is a deterministic function of ``(adjacency, k,
    precolored, order, color_order, seed, chunk_size, max_rounds)``.
    """
    n = len(adjacency)
    if not 0 <= precolored <= n:
        raise ValueError(f"precolored must be in [0, {n}], got {precolored}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    tracer = coerce_tracer(tracer)
    if color_order is None:
        color_order = list(range(k))

    colors = [-1] * n
    for node in range(precolored):
        colors[node] = node

    if order is None:
        removal = smallest_last_order(adjacency)
        order = [node for node in reversed(removal) if node >= precolored]
    else:
        _validate_order(order, n)
        order = [node for node in order if node >= precolored]
    if seed is not None:
        import random

        random.Random(seed).shuffle(order)

    position = [-1] * n
    for index, node in enumerate(order):
        position[node] = index

    active = order
    rounds = 0
    conflicts = 0
    tentative = [-1] * n

    while active and rounds < max_rounds:
        rounds += 1
        chunks = [active[start:start + chunk_size]
                  for start in range(0, len(active), chunk_size)]
        with tracer.span("repair-round", cat="phase", round=rounds,
                         active=len(active), chunks=len(chunks)):
            for chunk in chunks:
                tents = _speculate_chunk(chunk, adjacency, colors,
                                         color_order)
                for node, tent in zip(chunk, tents):
                    tentative[node] = tent

            # Detect: the endpoint earlier in the coloring order keeps
            # its color.  Only cross-chunk races can collide — within a
            # chunk later vertices already saw earlier tentatives.
            finalized = 0
            losers = 0
            next_active = []
            for node in active:
                tent = tentative[node]
                if tent < 0:
                    next_active.append(node)  # saturated this round
                    continue
                keeps = True
                for neighbor in adjacency[node]:
                    if (tentative[neighbor] == tent
                            and position[neighbor] >= 0
                            and position[neighbor] < position[node]):
                        keeps = False
                        break
                if keeps:
                    finalized += 1
                else:
                    losers += 1
                    next_active.append(node)
            # Finalize after detection so this round's checks all saw the
            # same frozen tentative state.
            survivors = set(next_active)
            for node in active:
                if node not in survivors:
                    colors[node] = tentative[node]
                tentative[node] = -1
            conflicts += losers
        tracer.counter("repair.finalized", finalized, round=rounds)
        tracer.counter("repair.conflicts", losers, round=rounds)
        active = next_active
        if finalized == 0:
            break

    # Settling sweep: one sequential first-fit pass over whatever is
    # left (a single chunk — no races possible).  Vertices it cannot
    # color are saturated by *finalized* neighbors and must spill.
    sweep_settled = 0
    spilled = []
    if active:
        with tracer.span("repair-sweep", cat="phase", active=len(active)):
            tents = _speculate_chunk(active, adjacency, colors,
                                     color_order)
            for node, tent in zip(active, tents):
                if tent >= 0:
                    colors[node] = tent
                    sweep_settled += 1
                else:
                    spilled.append(node)
    tracer.counter("repair.spilled", len(spilled))

    return RepairOutcome(colors, spilled, rounds, conflicts, sweep_settled)


def verify_coloring(adjacency, colors, k, spilled=(), precolored=0):
    """The invariant layer for plain-graph colorings: every vertex is
    colored in ``[0, k)`` or listed in ``spilled``, no edge joins two
    equal colors, and precolored vertices kept their identity colors.
    Raises :class:`~repro.errors.InvariantError`; returns the number of
    colored vertices."""
    n = len(adjacency)
    spilled_set = set(spilled)
    colored = 0
    for node in range(n):
        color = colors[node]
        if node < precolored and color != node:
            raise InvariantError(
                f"precolored node {node} lost its color: {color}")
        if color < 0:
            if node not in spilled_set:
                raise InvariantError(
                    f"node {node} neither colored nor spilled")
            continue
        if color >= k:
            raise InvariantError(
                f"node {node} colored {color}, outside [0, {k})")
        colored += 1
        for neighbor in adjacency[node]:
            if neighbor < node and colors[neighbor] == color:
                raise InvariantError(
                    f"edge ({neighbor}, {node}) monochromatic: "
                    f"color {color}")
    for node in spilled_set:
        if colors[node] >= 0:
            raise InvariantError(
                f"node {node} both colored ({colors[node]}) and spilled")
    return colored


class RepairAllocator:
    """Strategy object adapting :func:`repair_color` to the driver's
    ``allocate_class`` contract.

    Spill candidates are ranked by Chaitin's cost/degree estimate
    (cheapest first), so the driver's rebuild loop spills the same kind
    of victim the other strategies would.  Declares no §2.3 guarantees:
    the repair order is not the cost order, so its spill set has no
    containment relation to Chaitin's (same situation as
    ``briggs-degree``).
    """

    name = "repair"
    optimistic = True
    guarantees = ()

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 max_rounds: int = DEFAULT_MAX_ROUNDS, seed=None):
        self.chunk_size = chunk_size
        self.max_rounds = max_rounds
        self.seed = seed

    def allocate_class(self, graph, costs, color_order=None,
                       tracer=None) -> ClassAllocation:
        tracer = coerce_tracer(tracer)
        rclass = graph.rclass.name
        if graph.adj_list is None:
            graph.freeze()
        k = graph.k
        started = time.perf_counter()
        with tracer.span("repair", cat="phase", rclass=rclass):
            outcome = repair_color(
                graph.adj_list, k, precolored=k, color_order=color_order,
                seed=self.seed, chunk_size=self.chunk_size,
                max_rounds=self.max_rounds, tracer=tracer,
            )
        elapsed = time.perf_counter() - started
        colors = {
            graph.vreg_for(node): color
            for node, color in enumerate(outcome.colors)
            if node >= k and color >= 0
        }
        # Cheapest-to-spill first: the driver spills the whole list, but
        # bundles and logs read the ranking.
        ranked = sorted(
            outcome.spilled,
            key=lambda node: (
                costs.cost(graph.vreg_for(node))
                / max(1, graph.degree(node)),
                node,
            ),
        )
        spilled = [graph.vreg_for(node) for node in ranked]
        return ClassAllocation(
            colors,
            spilled,
            ran_select=True,
            simplify_time=0.0,
            select_time=elapsed,
            stack=None,
            marked=None,
            selection=None,
        )
