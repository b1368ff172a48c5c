"""Natural-loop detection and loop-nesting depth.

The spill-cost estimator weights each definition/use by ``10 ** depth`` of
its block (paper §2.1: costs are "weighted by the loop nesting depth of
each insertion point"), so depth is the one loop property the allocator
truly needs.  We also expose the loops themselves for tests and for the
workload-characterisation utilities.

A *natural loop* is found per back edge ``t -> h`` where ``h`` dominates
``t``: its body is ``h`` plus every block that reaches ``t`` without
passing through ``h``.  Loops sharing a header are merged.  Depth of a
block = number of distinct loop bodies containing it.
"""

from __future__ import annotations

from repro.analysis.cfg import CFG
from repro.analysis.dominance import DominatorTree
from repro.ir.function import Function


class Loop:
    """One natural loop: header label plus the set of body labels."""

    __slots__ = ("header", "body")

    def __init__(self, header: str, body: set):
        self.header = header
        self.body = body

    def __contains__(self, label: str) -> bool:
        return label in self.body

    def __len__(self) -> int:
        return len(self.body)

    def __repr__(self) -> str:
        return f"Loop(header={self.header}, {len(self.body)} blocks)"


class LoopInfo:
    """All natural loops of a function, with per-block nesting depth."""

    def __init__(self, function: Function, cfg: CFG | None = None):
        self.function = function
        cfg = cfg or CFG(function)
        dom = DominatorTree(cfg)

        reachable = {block.label for block in cfg.postorder()}
        back_edges = []
        for block in function.blocks:
            if block.label not in reachable:
                continue
            for target in block.successor_labels():
                if dom.dominates(function.block(target), block):
                    back_edges.append((block.label, target))

        by_header: dict[str, set] = {}
        for tail, header in back_edges:
            body = by_header.setdefault(header, {header})
            self._collect(cfg, header, tail, body)
        self.loops = [Loop(header, body) for header, body in by_header.items()]

        self.depth: dict[str, int] = {
            block.label: 0 for block in function.blocks
        }
        for loop in self.loops:
            for label in loop.body:
                self.depth[label] += 1

    @staticmethod
    def _collect(cfg: CFG, header: str, tail: str, body: set) -> None:
        """Blocks reaching ``tail`` without passing through ``header``."""
        stack = [tail]
        while stack:
            label = stack.pop()
            if label in body:
                continue
            body.add(label)
            stack.extend(cfg.preds[label])

    # ------------------------------------------------------------------

    def loops_containing(self, label: str) -> list:
        return [loop for loop in self.loops if label in loop]

    def max_depth(self) -> int:
        return max(self.depth.values(), default=0)

    def __repr__(self) -> str:
        return f"LoopInfo({self.function.name}, {len(self.loops)} loops)"


def annotate_loop_depths(function: Function, cfg: CFG | None = None) -> LoopInfo:
    """Compute loops and store each block's depth on ``block.loop_depth``."""
    info = LoopInfo(function, cfg)
    for block in function.blocks:
        block.loop_depth = info.depth[block.label]
    return info
