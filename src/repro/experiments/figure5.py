"""Figure 5 — "register allocation improvements".

For every routine of the five floating-point programs: object size, live
ranges, registers (live ranges) spilled under Old (Chaitin) and New
(Briggs) with the percentage improvement, the estimated spill costs the
same way, and per program the measured dynamic improvement.

Shape expectations (checked by ``tests/experiments/test_experiments.py``):

* New never spills more than Old, on any routine;
* more than half the routines tie (the paper: "In more than half of these
  routines, we show no static improvement");
* the largest improvements land on large/complex routines (SVD and the
  EULER/CEDETA heavyweights), while small leaf routines tie at zero;
* dynamic improvements are small — floating-point work dominates.
"""

from __future__ import annotations

from repro.experiments.runner import EXPERIMENT_TARGET, compare_workload
from repro.experiments.tables import Table, percent_improvement
from repro.workloads import all_workloads

#: Figure 5's program order.
PROGRAMS = ["svd", "linpack", "simplex", "euler", "cedeta"]


class Figure5Row:
    """One line of the table."""

    __slots__ = (
        "program",
        "routine",
        "object_size",
        "live_ranges",
        "spilled_old",
        "spilled_new",
        "spilled_pct",
        "cost_old",
        "cost_new",
        "cost_pct",
    )

    def __init__(self, comparison):
        self.program = comparison.program
        self.routine = comparison.routine
        self.object_size = comparison.object_size
        self.live_ranges = comparison.live_ranges
        self.spilled_old = comparison.spilled_old
        self.spilled_new = comparison.spilled_new
        self.spilled_pct = percent_improvement(
            comparison.spilled_old, comparison.spilled_new
        )
        self.cost_old = comparison.cost_old
        self.cost_new = comparison.cost_new
        self.cost_pct = percent_improvement(
            comparison.cost_old, comparison.cost_new
        )


class Figure5Result:
    """All rows plus per-program dynamic improvements."""

    def __init__(self, rows, dynamic_pct):
        self.rows = rows
        self.dynamic_pct = dynamic_pct  # program -> percent

    def rows_for(self, program: str) -> list:
        return [row for row in self.rows if row.program == program]

    def headline(self, routine: str) -> str:
        """One routine's static result as a sentence; section 3 leads
        with SVD's (``results/svd_headline.txt``)."""
        (row,) = [r for r in self.rows if r.routine == routine]
        return (
            f"{routine.upper()}: registers spilled {row.spilled_old} -> "
            f"{row.spilled_new} ({row.spilled_pct}%), estimated cost "
            f"{row.cost_old:.0f} -> {row.cost_new:.0f} ({row.cost_pct}%)"
        )

    def to_table(self) -> Table:
        table = Table(
            "Figure 5 - register allocation improvements "
            "(Old = Chaitin, New = Briggs optimistic)",
            [
                "Program",
                "Routine",
                "Object Size",
                "Live Ranges",
                "Spill Old",
                "Spill New",
                "Pct",
                "Cost Old",
                "Cost New",
                "Pct",
                "Dynamic Pct",
            ],
        )
        for program in PROGRAMS:
            first = True
            for row in self.rows_for(program):
                table.add_row(
                    program.upper() if first else "",
                    row.routine.upper(),
                    row.object_size,
                    row.live_ranges,
                    row.spilled_old,
                    row.spilled_new,
                    row.spilled_pct,
                    row.cost_old,
                    row.cost_new,
                    row.cost_pct,
                    f"{self.dynamic_pct[program]:.2f}" if first else "",
                )
                first = False
            table.add_separator()
        return table


def run_figure5(target=None, simulate: bool = True, programs=None) -> Figure5Result:
    """Regenerate Figure 5.  ``programs`` may restrict the set (the SVD
    headline check uses just ["svd"])."""
    target = target or EXPERIMENT_TARGET
    workloads = all_workloads()
    rows = []
    dynamic = {}
    for name in programs or PROGRAMS:
        comparison = compare_workload(
            workloads[name], target, simulate=simulate
        )
        rows.extend(Figure5Row(r) for r in comparison.routines)
        dynamic[name] = comparison.dynamic_pct if simulate else 0.0
    return Figure5Result(rows, dynamic)
