"""Figure 6 — the quicksort restricted-register study.

"To look at the effect of smaller register sets, we modified both
register allocators to use a subset of the machine's sixteen general
purpose registers."  For each register count (16, 14, 12, 10, 8) the
table reports registers spilled, spill cost, object size and running time
for Old and New with percentage improvements.

Shape expectations (checked by ``tests/experiments/test_experiments.py``):

* spilling (both methods) grows as registers shrink;
* New's advantage appears/widens in the constrained settings ("our method
  shows greater improvement over Chaitin's method in highly constrained
  situations");
* running time (simulated cycles) degrades as registers shrink, and New
  never runs slower than Old.
"""

from __future__ import annotations

from repro.experiments.runner import dynamic_cycles, allocate_workload
from repro.experiments.tables import Table, percent_improvement
from repro.machine.encoding import object_size
from repro.machine.target import rt_pc
from repro.workloads import quicksort

#: The paper's register counts.
REGISTER_COUNTS = (16, 14, 12, 10, 8)

#: Beyond the paper: the simulator can shrink past 8 registers, where the
#: optimistic advantage is widest (``results/figure6_extended.txt``).
EXTENDED_COUNTS = (8, 6, 4)


class Figure6Row:
    """One register-count line of the study."""

    __slots__ = (
        "registers",
        "spilled_old",
        "spilled_new",
        "spilled_pct",
        "cost_old",
        "cost_new",
        "cost_pct",
        "size_old",
        "size_new",
        "size_pct",
        "time_old",
        "time_new",
        "time_pct",
    )

    def __init__(self, registers, spilled_old, spilled_new, cost_old,
                 cost_new, size_old, size_new, time_old, time_new):
        self.registers = registers
        self.spilled_old = spilled_old
        self.spilled_new = spilled_new
        self.spilled_pct = percent_improvement(spilled_old, spilled_new)
        self.cost_old = cost_old
        self.cost_new = cost_new
        self.cost_pct = percent_improvement(cost_old, cost_new)
        self.size_old = size_old
        self.size_new = size_new
        self.size_pct = percent_improvement(size_old, size_new)
        self.time_old = time_old
        self.time_new = time_new
        self.time_pct = percent_improvement(time_old, time_new)


class Figure6Result:
    def __init__(self, rows, array_size):
        self.rows = rows
        self.array_size = array_size

    def row_for(self, registers: int) -> Figure6Row:
        return next(r for r in self.rows if r.registers == registers)

    def to_table(self) -> Table:
        table = Table(
            f"Figure 6 - quicksort study (sorting {self.array_size} "
            "integers; time in simulated cycles)",
            [
                "Registers",
                "Spill Old",
                "Spill New",
                "Pct",
                "Cost Old",
                "Cost New",
                "Pct",
                "Size Old",
                "Size New",
                "Pct",
                "Time Old",
                "Time New",
                "Pct",
            ],
        )
        for row in self.rows:
            table.add_row(
                row.registers,
                row.spilled_old,
                row.spilled_new,
                row.spilled_pct,
                row.cost_old,
                row.cost_new,
                row.cost_pct,
                row.size_old,
                row.size_new,
                row.size_pct,
                row.time_old,
                row.time_new,
                row.time_pct,
            )
        return table


def _program_stats(workload, target, method):
    """(total spilled, total cost, total object size, cycles)."""
    module, allocation = allocate_workload(workload, target, method)
    spilled = sum(
        allocation.result(r).stats.registers_spilled for r in workload.routines
    )
    cost = sum(
        allocation.result(r).stats.spill_cost for r in workload.routines
    )
    size = sum(
        object_size(
            allocation.result(r).function, target, allocation.result(r).assignment
        )
        for r in workload.routines
    )
    cycles = dynamic_cycles(workload, module, allocation, target)
    return spilled, cost, size, cycles


def run_figure6(
    register_counts=REGISTER_COUNTS, array_size: int = 512
) -> Figure6Result:
    """Regenerate Figure 6 at the given register counts."""
    workload = quicksort.workload(array_size)
    rows = []
    for count in register_counts:
        target = rt_pc().with_int_regs(count)
        old = _program_stats(workload, target, "chaitin")
        new = _program_stats(workload, target, "briggs")
        rows.append(
            Figure6Row(
                count,
                old[0], new[0],
                old[1], new[1],
                old[2], new[2],
                old[3], new[3],
            )
        )
    return Figure6Result(rows, array_size)
