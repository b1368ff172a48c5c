"""Aggressive copy coalescing (Chaitin's subsumption).

The build phase "repeatedly build[s] the graph and coalesc[es] registers"
(paper §3.3): any ``mov d, s`` whose operands do not interfere is removed
and the two live ranges merged.  Our front end emits a copy for every
source-level assignment, so coalescing is what turns those assignments
back into register renamings.

Each *round* builds the interference graphs once and then merges every
coalescable copy found, maintaining merged adjacency with a union-find
(testing group-against-group interference via bit masks), then rewrites
the IR.  Rounds repeat until a fixed point — merging two ranges can make
another copy coalescable or, conversely, make it interfere, which is why
the graph is rebuilt between rounds.  The last round merges nothing and
leaves the IR as it found it, so its graphs are exactly the ones the
driver colors: :func:`coalesce_copies` hands them over instead of the
driver building them a second time.

Restrictions:

* two parameters are never merged (each carries a distinct incoming
  value);
* spill temporaries are never merged (they must stay short-lived and
  unspillable for the allocation loop to terminate).

Beyond the paper, ``strategy="conservative"`` implements the Briggs-style
*conservative* test the authors later published (Briggs, Cooper & Torczon
1994): a copy is merged only when the combined node would have fewer than
k neighbors of significant degree (>= k), so coalescing can never turn a
colorable graph into an uncolorable one.  Kept as an ablation knob; the
1989 paper's build phase is the aggressive variant.
"""

from __future__ import annotations

from repro.analysis.bitset import iter_bits, popcount
from repro.analysis.cfg import CFG
from repro.analysis.liveness import Liveness
from repro.ir.function import Function
from repro.ir.values import RClass
from repro.machine.target import Target
from repro.regalloc.interference import build_interference_graphs


def _conservative_ok(graph, state, k, root_a, root_b, find) -> bool:
    """Briggs's test on the merged group: fewer than k significant-degree
    neighbors.  Degrees are taken from the per-round graph (groups merged
    earlier this round count through their union-find root's adjacency)."""
    combined_members = state["members"][root_a] | state["members"][root_b]
    neighbor_mask = (state["adj"][root_a] | state["adj"][root_b]) & ~combined_members
    significant = 0
    seen_roots = set()
    for node in iter_bits(neighbor_mask):
        if node < k:
            root = node  # precolored: always significant
            degree = k  # a precolored node's degree is effectively >= k
        else:
            root = find(state["parent"], node)
            if root in seen_roots:
                continue
            degree = popcount(state["adj"][root] & ~state["members"][root])
        if root in seen_roots:
            continue
        seen_roots.add(root)
        if degree >= k:
            significant += 1
            if significant >= k:
                return False
    return True


def _coalesce_round(function: Function, target: Target,
                    strategy: str = "aggressive") -> tuple:
    """One build-and-merge round; returns the number of copies removed and
    the graphs the round was built on."""
    liveness = Liveness(function, CFG(function))
    graphs = build_interference_graphs(
        function, target, liveness, rclasses=(RClass.INT, RClass.FLOAT)
    )

    # Union-find over graph nodes, per class, with merged adjacency masks.
    state = {}
    for rclass, graph in graphs.items():
        state[rclass] = {
            "parent": list(range(graph.num_nodes)),
            "adj": list(graph.adj_mask),
            "members": [1 << n for n in range(graph.num_nodes)],
        }

    def find(parent: list, x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    params = set(function.params)
    merged_pairs: list = []

    for _block, _index, instr in function.instructions():
        if not instr.is_copy:
            continue
        dst, src = instr.defs[0], instr.uses[0]
        if dst is src:
            continue
        if dst.is_spill_temp or src.is_spill_temp:
            continue
        if dst in params and src in params:
            continue
        graph = graphs[dst.rclass]
        s = state[dst.rclass]
        a = find(s["parent"], graph.node_of[dst])
        b = find(s["parent"], graph.node_of[src])
        if a == b:
            merged_pairs.append((dst, src))
            continue
        if s["adj"][a] & s["members"][b]:
            continue  # the (merged) ranges interfere; cannot coalesce
        if strategy == "conservative" and not _conservative_ok(
            graphs[dst.rclass], s, graphs[dst.rclass].k, a, b, find
        ):
            continue
        s["parent"][b] = a
        s["adj"][a] |= s["adj"][b]
        s["members"][a] |= s["members"][b]
        merged_pairs.append((dst, src))

    if not merged_pairs:
        return 0, graphs

    # Choose a representative vreg per union-find group and rewrite.
    replacement: dict = {}
    for rclass, graph in graphs.items():
        s = state[rclass]
        groups: dict = {}
        for node in range(graph.k, graph.num_nodes):
            root = find(s["parent"], node)
            groups.setdefault(root, []).append(graph.vreg_for(node))
        for members in groups.values():
            if len(members) == 1:
                continue
            rep = _pick_representative(members, params)
            for vreg in members:
                if vreg is not rep:
                    replacement[vreg] = rep

    removed = 0
    for block in function.blocks:
        kept = []
        for instr in block.instrs:
            instr.replace_uses(replacement)
            instr.replace_defs(replacement)
            if instr.is_copy and instr.defs[0] is instr.uses[0]:
                removed += 1
                continue
            kept.append(instr)
        block.instrs = kept
    return removed, graphs


def _pick_representative(members: list, params: set):
    """Prefer the parameter (it must keep its register object), then a
    user-named register, then the lowest id — deterministic."""
    for vreg in members:
        if vreg in params:
            return vreg
    named = [v for v in members if v.name != "t"]
    pool = named or members
    return min(pool, key=lambda v: v.id)


def coalesce_copies(
    function: Function,
    target: Target,
    max_rounds: int = 50,
    strategy: str = "aggressive",
    graphs_out: dict | None = None,
) -> int:
    """Coalesce until no copy can be merged.

    ``strategy`` is ``"aggressive"`` (Chaitin, the paper's build phase) or
    ``"conservative"`` (Briggs's later safe test).  Returns the total
    number of copies removed.  When the final round merges nothing, its
    ``{rclass: InterferenceGraph}`` — built on the IR as it is returned —
    is put into ``graphs_out``; ``graphs_out`` stays empty if the rounds
    ran out first.
    """
    if strategy not in ("aggressive", "conservative"):
        raise ValueError(f"unknown coalescing strategy {strategy!r}")
    total = 0
    for _round in range(max_rounds):
        removed, graphs = _coalesce_round(function, target, strategy)
        if removed == 0:
            if graphs_out is not None:
                graphs_out.update(graphs)
            break
        total += removed
    return total
