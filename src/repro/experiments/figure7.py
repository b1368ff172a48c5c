"""Figure 7 — CPU time per allocator phase, per pass.

For the four largest routines (DQRDC, SVD, GRADNT, HSSIAN), the paper
tabulates Build / Simplify / Color / Spill times for each pass of each
method, with the per-pass spill counts in parentheses.  Old's Color cell
is empty on a spilling pass (Chaitin never reaches select then); New's is
always filled.

Shape expectations (checked by ``tests/experiments/test_experiments.py``):

* build dominates total allocation time, simplify + color are small
  ("It is immediately apparent how inexpensive the simplification and
  coloring phases are");
* the second pass's simplify is much cheaper than the first (fewer
  constrained cost/degree searches);
* the two methods' total times are comparable;
* both converge within three passes (the paper: "We have never observed
  either method needing more than three passes").
"""

from __future__ import annotations

from repro.experiments.runner import EXPERIMENT_TARGET, allocate_workload
from repro.experiments.tables import Table
from repro.workloads import all_workloads

#: The paper's four columns: (program, routine).
FIGURE7_ROUTINES = [
    ("cedeta", "dqrdc"),
    ("svd", "svd"),
    ("cedeta", "gradnt"),
    ("cedeta", "hssian"),
]


class Figure7Cell:
    """Phase times of one (routine, method) allocation."""

    __slots__ = ("routine", "method", "stats")

    def __init__(self, routine, method, stats):
        self.routine = routine
        self.method = method
        self.stats = stats


class Figure7Result:
    def __init__(self, cells):
        #: (routine, method) -> Figure7Cell
        self.cells = {(c.routine, c.method): c for c in cells}
        self.routines = []
        for cell in cells:
            if cell.routine not in self.routines:
                self.routines.append(cell.routine)

    def cell(self, routine: str, method: str) -> Figure7Cell:
        return self.cells[(routine, method)]

    def to_table(self) -> Table:
        columns = ["Phase"]
        for routine in self.routines:
            columns.append(f"{routine.upper()} Old")
            columns.append(f"{routine.upper()} New")
        table = Table(
            "Figure 7 - CPU time for allocator phases "
            "(seconds; spills per pass in parentheses)",
            columns,
        )
        max_passes = max(
            cell.stats.pass_count for cell in self.cells.values()
        )
        for pass_index in range(max_passes):
            for phase in ("build", "simplify", "color", "spill"):
                cells = [phase.capitalize()]
                any_value = False
                for routine in self.routines:
                    for method in ("chaitin", "briggs"):
                        stats = self.cells[(routine, method)].stats
                        if pass_index >= stats.pass_count:
                            cells.append("")
                            continue
                        # One schema for the phase cells: the same
                        # AllocationStats.phase_rows() the metrics
                        # exporters read, not a private field mapping.
                        row = stats.phase_rows()[pass_index]
                        value = row[phase]
                        if value is None:
                            cells.append("")
                        elif phase == "spill":
                            cells.append(f"({row['spilled']}) {value:.3f}")
                            any_value = True
                        else:
                            cells.append(f"{value:.3f}")
                            any_value = True
                if any_value:
                    table.add_row(*cells)
            table.add_separator()
        totals = ["Total"]
        for routine in self.routines:
            for method in ("chaitin", "briggs"):
                totals.append(
                    f"{self.cells[(routine, method)].stats.total_time:.3f}"
                )
        table.add_row(*totals)
        return table


def run_figure7(target=None, routines=None) -> Figure7Result:
    """Regenerate Figure 7 (allocation timing for the big routines)."""
    target = target or EXPERIMENT_TARGET
    workloads = all_workloads()
    wanted = routines or FIGURE7_ROUTINES
    cells = []
    for program, routine in wanted:
        workload = workloads[program]
        for method in ("chaitin", "briggs"):
            _module, allocation = allocate_workload(workload, target, method)
            cells.append(
                Figure7Cell(routine, method, allocation.result(routine).stats)
            )
    return Figure7Result(cells)
