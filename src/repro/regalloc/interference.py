"""Interference graph construction (Chaitin's build phase).

One graph per register class.  Node numbering:

* nodes ``0 .. k-1`` are **precolored**: the physical registers of the
  class (color ``i`` = register ``i``).  They are never simplified and
  never spilled;
* nodes ``k ..`` are the virtual registers of the class that occur in the
  function, in first-occurrence order.

Edges come from the classic rule: at every definition point, the defined
register interferes with everything live *after* the instruction — minus
the source of a copy (``mov d, s`` does not make ``d`` and ``s``
interfere, which is what lets the coalescer merge them).  At a ``call``,
every value live across the call gains an edge to each **caller-saved**
physical register, so such values can only be colored with callee-saved
registers — Chaitin's way of encoding the calling convention in the graph.

The graph keeps both representations Chaitin recommends: a bit matrix for
O(1) membership (``interferes``) and adjacency lists for neighbor walks.

Both register classes are built by **one** backward walk over the
instructions (:func:`build_interference_graphs`).  The nodes are numbered
before the walk, and each class owns a contiguous run of *slots* in one
shared bitset (slot = the class's first slot + node index), so the live
set is kept in node space and a class's row is one shift and one mask of
the register's accumulated row.  One pass over the directed edges then
symmetrises the rows and builds the adjacency lists (the work
:meth:`InterferenceGraph.freeze` does for a graph built edge by edge).
The per-class :func:`build_interference_graph` is a thin wrapper kept for
callers that want one class.  All mask walks use the O(popcount) kernels
from :mod:`repro.analysis.bitset`.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from repro.analysis.bitset import bits_list, iter_bits, popcount
from repro.analysis.cfg import CFG
from repro.analysis.liveness import Liveness
from repro.errors import AllocationError
from repro.ir.function import Function
from repro.ir.values import RClass
from repro.machine.target import Target

#: The register classes of the target machine, in allocation order.
DEFAULT_CLASSES = (RClass.INT, RClass.FLOAT)


class InterferenceGraph:
    """Undirected graph over precolored + virtual nodes of one class."""

    def __init__(self, rclass: RClass, k: int):
        self.rclass = rclass
        self.k = k
        self.vregs: list = []  # node index - k  ->  VReg
        self.node_of: dict = {}  # VReg -> node index
        self.adj_mask: list = [0] * k  # bit matrix rows (grows with nodes)
        self.adj_list: list | None = None  # built by freeze()
        self._edge_count: int | None = None  # cached by freeze()/edge_count()
        # Precolored nodes mutually interfere (distinct physical registers).
        full = (1 << k) - 1
        for a in range(k):
            self.adj_mask[a] = full & ~(1 << a)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def ensure_node(self, vreg) -> int:
        if vreg.rclass != self.rclass:
            raise AllocationError(
                f"{vreg!r} is not class {self.rclass}"
            )
        node = self.node_of.get(vreg)
        if node is None:
            node = self.k + len(self.vregs)
            self.node_of[vreg] = node
            self.vregs.append(vreg)
            self.adj_mask.append(0)
        return node

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            return
        self.adj_mask[a] |= 1 << b
        self.adj_mask[b] |= 1 << a
        self._edge_count = None

    def freeze(self) -> None:
        """Materialise adjacency lists once construction is done.

        Each row is decoded with the lowest-set-bit kernel, so the cost is
        the number of *edges*, not nodes², and the edge count falls out of
        the decoding for free (cached for ``edge_count``).
        """
        adj_list = []
        endpoint_total = 0
        for mask in self.adj_mask:
            neighbors = bits_list(mask)
            endpoint_total += len(neighbors)
            adj_list.append(neighbors)
        self.adj_list = adj_list
        self._edge_count = endpoint_total // 2

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.k + len(self.vregs)

    @property
    def num_vreg_nodes(self) -> int:
        return len(self.vregs)

    def is_precolored(self, node: int) -> bool:
        return node < self.k

    def vreg_for(self, node: int):
        return self.vregs[node - self.k]

    def interferes(self, a: int, b: int) -> bool:
        return bool((self.adj_mask[a] >> b) & 1)

    def neighbors(self, node: int) -> list:
        if self.adj_list is None:
            raise AllocationError("freeze() the graph before neighbor walks")
        return self.adj_list[node]

    def degree(self, node: int) -> int:
        return len(self.neighbors(node))

    def edge_count(self) -> int:
        """Number of undirected edges (including precolored clique).

        Cached: ``freeze()`` computes it as a by-product and ``add_edge``
        invalidates it, so repeated stats queries cost O(1).
        """
        if self._edge_count is None:
            total = sum(popcount(mask) for mask in self.adj_mask)
            self._edge_count = total // 2
        return self._edge_count

    def __repr__(self) -> str:
        return (
            f"InterferenceGraph({self.rclass}, k={self.k}, "
            f"{self.num_vreg_nodes} vregs, {self.edge_count()} edges)"
        )


def _vregs_by_id(function: Function, liveness: Liveness) -> dict:
    by_id = getattr(liveness, "vreg_by_id", None)
    if by_id is None or len(by_id) != len(function.vregs):
        by_id = {v.id: v for v in function.vregs}
    return by_id


def build_interference_graphs(
    function: Function,
    target: Target,
    liveness: Liveness | None = None,
    rclasses=DEFAULT_CLASSES,
) -> dict:
    """Build the interference graphs of every register class at once.

    One backward walk over the instructions serves all classes: the live
    set is a single bitset over the slots of every register, and each
    definition point ORs it into the defined register's row.  Returns
    ``{rclass: InterferenceGraph}``.
    """
    liveness = liveness or Liveness(function, CFG(function))
    by_id = _vregs_by_id(function, liveness)
    entry_live = [by_id[vid] for vid in
                  iter_bits(liveness.live_in[function.entry.label])]

    # Number the nodes first.  Per class: the parameters, then anything
    # else live at entry (id order), then defs before uses in instruction
    # order.  Registers of classes not asked for are collected too: they
    # still occupy the live set.
    operands = list(function.params)
    operands += entry_live
    for block in function.blocks:
        for instr in block.instrs:
            operands += instr.defs
            operands += instr.uses
    members = {rclass: [] for rclass in rclasses}
    others: list = []
    for vreg in dict.fromkeys(operands):
        members.get(vreg.rclass, others).append(vreg)
    del operands

    # Each class owns a contiguous run of slots in one shared bitset:
    # ``first`` + node index, so slots ``first .. first + k - 1`` stand for
    # the precolored nodes and stay empty.  Other classes' registers sit
    # past every graph's slots.
    slot_of: dict = {}  # vreg id -> slot
    first: dict = {}
    slot = 0
    for rclass in rclasses:
        first[rclass] = slot
        slot += target.regs(rclass)
        for vreg in members[rclass]:
            slot_of[vreg.id] = slot
            slot += 1
    for vreg in others:
        slot_of[vreg.id] = slot
        slot += 1

    # The single backward walk, in slot space.  Each definition point
    # records its interference as a *single OR* into the defined
    # register's row, which merges the (heavily duplicated) live sets of
    # a register's many definition points for free.
    raw: list = [0] * slot  # slot -> interfering-slot mask
    across_calls = 0  # slots ever live across a call (all classes)
    for block in function.blocks:
        # Liveness is solved in id space: translate once per block.
        live = 0
        for vid in iter_bits(liveness.live_out[block.label]):
            live |= 1 << slot_of[vid]
        for instr in reversed(block.instrs):
            defs_mask = 0
            for d in instr.defs:
                defs_mask |= 1 << slot_of[d.id]

            if instr.is_call:
                # Values live across the call cannot sit in caller-saved
                # registers.  (The call's own result is defined after the
                # clobber point, so it is exempt.)
                across_calls |= live & ~defs_mask

            interfering = live
            if instr.is_copy:
                interfering = live & ~(1 << slot_of[instr.uses[0].id])
            for d in instr.defs:
                raw[slot_of[d.id]] |= interfering

            live &= ~defs_mask
            for u in instr.uses:
                live |= 1 << slot_of[u.id]

    # Cut each class's directed rows out of the shared bitset.
    graphs = {}
    for rclass in rclasses:
        k = target.regs(rclass)
        base = first[rclass]
        graph = InterferenceGraph(rclass, k)
        graph.vregs = vregs = members[rclass]
        graph.node_of = node_of = {
            vreg: node for node, vreg in enumerate(vregs, k)
        }
        num_nodes = k + len(vregs)
        nodes_mask = (1 << num_nodes) - 1
        rows = graph.adj_mask
        for node in range(k, num_nodes):
            slot = base + node
            rows.append((raw[slot] >> base) & nodes_mask & ~(1 << node))
            raw[slot] = 0  # all rows together are O(n^2) bits: free early
        # Parameters are all defined simultaneously by the (implicit)
        # prologue, so they mutually interfere — without this, two
        # arguments could share a register and the later write would
        # destroy the earlier value.  Anything else live at function entry
        # (only possible for parameters in verified IR, but kept general)
        # interferes with every parameter.
        params_mask = 0
        for param in function.params:
            if param.rclass == rclass:
                params_mask |= 1 << node_of[param]
        if params_mask:
            for vreg in function.params + entry_live:
                node = node_of.get(vreg)
                if node is not None:
                    rows[node] |= params_mask & ~(1 << node)
        # Caller-saved clobbers: one accumulated mask serves every call
        # site, since the clobbered color set is the same at each.
        clobber = 0
        for color in target.caller_saved(rclass):
            clobber |= 1 << color
        if clobber:
            for node in iter_bits((across_calls >> base) & nodes_mask):
                rows[node] |= clobber
        graphs[rclass] = graph
    del raw
    for graph in graphs.values():
        _symmetrise(graph)
    return graphs


def _symmetrise(graph: InterferenceGraph) -> None:
    """Close the directed rows under symmetry and build the adjacency
    lists, in one pass over the edges.

    Def-point rows are directed (defined -> live) and clobber rows set
    only the virtual side.  Each row is decoded once; its node is appended
    to every neighbor's reverse list, which therefore comes out ascending.
    A row's final mask adds its reverse bits and its adjacency list is the
    sorted union of both directions.
    """
    rows = graph.adj_mask
    adj_list = [bits_list(row) for row in rows]
    reverse: list = [[] for _ in rows]
    for node, neighbors in enumerate(adj_list):
        for neighbor in neighbors:
            reverse[neighbor].append(node)
    endpoint_total = 0
    for node, back in enumerate(reverse):
        if back:
            rows[node] |= reduce(or_, map((1).__lshift__, back))
            adj_list[node] = sorted(set(adj_list[node]).union(back))
        endpoint_total += len(adj_list[node])
    graph.adj_list = adj_list
    graph._edge_count = endpoint_total // 2


def build_interference_graph(
    function: Function,
    rclass: RClass,
    target: Target,
    liveness: Liveness | None = None,
) -> InterferenceGraph:
    """Build the interference graph of one register class.

    ``liveness`` may be passed in to share a computation between the two
    classes of one build phase; callers that need both classes should use
    :func:`build_interference_graphs`, which walks the instructions once
    for all of them.
    """
    return build_interference_graphs(
        function, target, liveness, rclasses=(rclass,)
    )[rclass]
