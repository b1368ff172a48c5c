"""Graph-coloring register allocation: Chaitin's heuristic and the paper's
optimistic improvement.

The package decomposes the allocator the way the paper does (Figure 4):

* **build** — :mod:`interference` (graph construction with precolored
  physical registers and call-clobber edges), :mod:`coalesce` (aggressive
  copy coalescing), :mod:`spill_costs` (10^depth-weighted cost estimates);
* **simplify** — :mod:`simplify` (the shared removal engine over the
  Matula–Beck degree buckets of :mod:`worklists`), parameterised by
  :mod:`chaitin` (spill during simplification) or :mod:`briggs` (push
  everything, defer the decision);
* **select** — :mod:`select` (optimistic color assignment that leaves
  uncolorable nodes for spilling);
* **spill** — :mod:`spill` (store-after-def / load-before-use insertion);
* **driver** — :mod:`driver` (the Build–Simplify–Select cycle, statistics,
  and validation).

:mod:`matula` additionally provides the standalone Matula–Beck
smallest-last ordering the paper credits as the inspiration (§2.2), and
:mod:`repair` the conflict-repair strategy (speculate / detect /
re-color, after Rokos–Gorman–Kelly) that scales coloring to million-node
graphs — see docs/ALGORITHMS.md.
"""

from repro.regalloc.interference import (
    InterferenceGraph,
    build_interference_graph,
    build_interference_graphs,
)
from repro.regalloc.worklists import DegreeBuckets
from repro.regalloc.spill_costs import SpillCosts, compute_spill_costs, INFINITE_COST
from repro.regalloc.coalesce import coalesce_copies
from repro.regalloc.simplify import simplify
from repro.regalloc.select import select_colors
from repro.regalloc.chaitin import ChaitinAllocator
from repro.regalloc.briggs import BriggsAllocator
from repro.regalloc.naive import SpillAllAllocator
from repro.regalloc.matula import smallest_last_order, greedy_color
from repro.regalloc.repair import RepairAllocator, repair_color, verify_coloring
from repro.regalloc.spill import insert_spill_code
from repro.regalloc.driver import (
    AllocationFailure,
    AllocationResult,
    FailurePolicy,
    ModuleAllocation,
    allocate_function,
    allocate_module,
    check_allocation,
)
from repro.regalloc.invariants import (
    PARANOIA_LEVELS,
    check_class_invariants,
    check_cost_invariants,
    check_graph_invariants,
    coerce_paranoia,
    recheck_assignment,
)
from repro.regalloc.stats import AllocationStats, PassStats

__all__ = [
    "InterferenceGraph",
    "build_interference_graph",
    "build_interference_graphs",
    "DegreeBuckets",
    "SpillCosts",
    "compute_spill_costs",
    "INFINITE_COST",
    "coalesce_copies",
    "simplify",
    "select_colors",
    "ChaitinAllocator",
    "BriggsAllocator",
    "SpillAllAllocator",
    "RepairAllocator",
    "repair_color",
    "verify_coloring",
    "smallest_last_order",
    "greedy_color",
    "insert_spill_code",
    "AllocationFailure",
    "AllocationResult",
    "FailurePolicy",
    "ModuleAllocation",
    "allocate_function",
    "allocate_module",
    "check_allocation",
    "PARANOIA_LEVELS",
    "check_class_invariants",
    "check_cost_invariants",
    "check_graph_invariants",
    "coerce_paranoia",
    "recheck_assignment",
    "AllocationStats",
    "PassStats",
]
