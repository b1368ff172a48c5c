"""Live-variable analysis (backward, iterative, over int bitsets).

Bit ``i`` of a set refers to the virtual register with id ``i``.  Python
integers make unusually good bitsets here: union/intersection are single C
operations regardless of width, and the graphs the paper works with (a few
thousand live ranges) fit comfortably.

Exposes per-block ``live_in``/``live_out`` plus the ``use``/``def`` summary
sets, and an in-order walker that yields the live set *after* each
instruction — exactly the traversal the interference-graph builder needs.
"""

from __future__ import annotations

from repro.analysis.bitset import iter_bits
from repro.analysis.cfg import CFG
from repro.ir.function import Function


class Liveness:
    """Fixed-point liveness for one function."""

    def __init__(self, function: Function, cfg: CFG | None = None):
        self.function = function
        self.cfg = cfg or CFG(function)
        #: id -> VReg for every register of the function, computed once and
        #: shared with the interference-graph builder.
        self.vreg_by_id: dict[int, object] = {v.id: v for v in function.vregs}
        #: upward-exposed uses per block.
        self.use: dict[str, int] = {}
        #: registers defined per block.
        self.defs: dict[str, int] = {}
        self.live_in: dict[str, int] = {}
        self.live_out: dict[str, int] = {}
        self._compute_local_sets()
        self._solve()

    def _compute_local_sets(self) -> None:
        for block in self.function.blocks:
            use_mask = 0
            def_mask = 0
            for instr in block.instrs:
                for u in instr.uses:
                    if not (def_mask >> u.id) & 1:
                        use_mask |= 1 << u.id
                for d in instr.defs:
                    def_mask |= 1 << d.id
            self.use[block.label] = use_mask
            self.defs[block.label] = def_mask

    def _solve(self) -> None:
        # live_in[b] = use[b] | (live_out[b] & ~def[b])
        # live_out[b] = union of live_in over successors.
        for block in self.function.blocks:
            self.live_in[block.label] = 0
            self.live_out[block.label] = 0
        order = self.cfg.postorder()  # good order for backward problems
        changed = True
        while changed:
            changed = False
            for block in order:
                out = 0
                for succ in self.cfg.succs[block.label]:
                    out |= self.live_in[succ]
                new_in = self.use[block.label] | (
                    out & ~self.defs[block.label]
                )
                if (
                    out != self.live_out[block.label]
                    or new_in != self.live_in[block.label]
                ):
                    self.live_out[block.label] = out
                    self.live_in[block.label] = new_in
                    changed = True

    # ------------------------------------------------------------------

    def live_after(self, block) -> list:
        """Walk ``block`` backward, yielding ``(index, instr, live_mask)``
        where ``live_mask`` is the live set immediately *after* the
        instruction at ``index``."""
        live = self.live_out[block.label]
        results = []
        for index in range(len(block.instrs) - 1, -1, -1):
            instr = block.instrs[index]
            results.append((index, instr, live))
            for d in instr.defs:
                live &= ~(1 << d.id)
            for u in instr.uses:
                live |= 1 << u.id
        results.reverse()
        return results

    def live_vregs_in(self, label: str) -> list:
        """Live-in registers of a block as VReg objects."""
        by_id = self.vreg_by_id
        return [by_id[i] for i in iter_bits(self.live_in[label])]

    def is_live_in(self, label: str, vreg) -> bool:
        return bool((self.live_in[label] >> vreg.id) & 1)

    def is_live_out(self, label: str, vreg) -> bool:
        return bool((self.live_out[label] >> vreg.id) & 1)

    def __repr__(self) -> str:
        return f"Liveness({self.function.name})"
