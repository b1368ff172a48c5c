"""Definition and use sites per virtual register.

A *site* is ``(block_label, instruction_index)``.  Parameters get a
synthetic definition site ``("<entry>", -1)`` so every register has at
least one definition, which keeps the web construction uniform.
"""

from __future__ import annotations

from repro.ir.function import Function

ENTRY_SITE = ("<entry>", -1)


class DefUse:
    """Def and use site lists for every virtual register of a function."""

    def __init__(self, function: Function):
        self.function = function
        self.def_sites: dict = {v: [] for v in function.vregs}
        self.use_sites: dict = {v: [] for v in function.vregs}
        for param in function.params:
            self.def_sites[param].append(ENTRY_SITE)
        for block in function.blocks:
            for index, instr in enumerate(block.instrs):
                for d in instr.defs:
                    self.def_sites[d].append((block.label, index))
                for u in instr.uses:
                    self.use_sites[u].append((block.label, index))

    # ------------------------------------------------------------------

    def defs_of(self, vreg) -> list:
        return self.def_sites[vreg]

    def is_dead(self, vreg) -> bool:
        """Defined but never used (candidates for dead-code removal)."""
        return not self.use_sites[vreg]

    def never_defined(self, vreg) -> bool:
        return not self.def_sites[vreg]

    def occurrence_counts(self, vreg) -> tuple:
        """(number of defs, number of uses) — spill-cost raw material."""
        return len(self.def_sites[vreg]), len(self.use_sites[vreg])

    def __repr__(self) -> str:
        return f"DefUse({self.function.name})"
