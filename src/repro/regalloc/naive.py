"""The no-coloring baseline: spill every live range to memory.

Before Chaitin, simple code generators kept user variables in memory and
registers only for expression temporaries.  ``SpillAllAllocator``
reproduces that discipline inside the same driver: on the first pass it
marks *every* spillable live range for spilling; the second pass then
colors the one-instruction spill temporaries, which trivially succeeds.

It exists as a measuring stick — the ablation table (``repro figures
ablations``) shows how far even Chaitin's 1981 allocator moved the state
of the art, which is the context for the paper's further improvement.
"""

from __future__ import annotations

from repro.regalloc.chaitin import ClassAllocation
from repro.regalloc.interference import InterferenceGraph
from repro.regalloc.select import select_colors
from repro.regalloc.simplify import simplify
from repro.regalloc.spill_costs import INFINITE_COST, SpillCosts


class SpillAllAllocator:
    """Strategy object: memory-resident everything (no real coloring)."""

    name = "spill-all"
    optimistic = False
    #: No coloring-quality relation to Chaitin holds (it spills every
    #: range by design), so no §2.3 comparison applies.
    guarantees = ()

    def allocate_class(
        self,
        graph: InterferenceGraph,
        costs: SpillCosts,
        color_order: list | None = None,
        tracer=None,
    ) -> ClassAllocation:
        spillable = [
            graph.vreg_for(node)
            for node in range(graph.k, graph.num_nodes)
            if costs.cost(graph.vreg_for(node)) != INFINITE_COST
        ]
        if spillable:
            return ClassAllocation({}, spillable, ran_select=False)
        # Only unspillable temporaries remain: color them (they are
        # short-lived, so simplification cannot stall).
        outcome = simplify(graph, costs, optimistic=True)
        selection = select_colors(graph, outcome.stack, color_order)
        colors = {
            graph.vreg_for(node): color
            for node, color in selection.colors.items()
            if not graph.is_precolored(node)
        }
        spilled = [graph.vreg_for(node) for node in selection.uncolored]
        return ClassAllocation(colors, spilled, ran_select=True)
