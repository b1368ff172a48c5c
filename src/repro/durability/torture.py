"""Kill-torture: prove crash-safety by actually killing the process.

The harness computes an unkilled serial **reference** allocation, then
runs the same sweep under a :class:`~repro.durability.supervisor.
Supervisor` while a seeded schedule SIGKILLs the child at
deterministic journal appends — some deaths mid-record, leaving a torn
tail for the next incarnation to recover.  After the supervised run
completes it asserts the durability contract end to end:

* the final result is **byte-identical** to the reference (wire text,
  assignment, method, and time-stripped stats per function — wall-clock
  timings are excluded from the contract by nature);
* **no worker outlived any parent** (the supervisor checks journaled
  worker pids after every death);
* **bounded rework**: re-executed functions never exceed
  ``(kills delivered + 1) x max in-flight functions``, i.e. death only ever
  costs the work that was in flight, never completed work.

Kill points are ascending global journal-append indices with gaps of at
least two, so every incarnation durably completes at least one more
append than the last — the schedule can never livelock the task.  The
schedule derives entirely from ``seed``; ``repro torture --seed N``
replays the exact same storm.
"""

from __future__ import annotations

import pickle
import random
import tempfile
import time

from repro.durability.journal import (
    arm_kill_switch,
    disarm_kill_switch,
    read_journal,
)
from repro.durability.supervisor import AllocationTask, Supervisor

__all__ = [
    "TortureReport",
    "allocation_signature",
    "plan_kill_schedule",
    "run_torture",
]


def _strip_times(value):
    """Zero every wall-clock field: timings differ between an executed
    and a replayed run by nature and are excluded from the bit-identity
    contract (IR, assignment, and counters are not)."""
    if isinstance(value, dict):
        return {
            key: 0.0 if key.endswith("_time") else _strip_times(inner)
            for key, inner in value.items()
        }
    if isinstance(value, list):
        return [_strip_times(inner) for inner in value]
    return value


def allocation_signature(allocation) -> dict:
    """Byte-level identity of a ModuleAllocation: per-function wire
    text, the id-keyed assignment, the method, and the (time-stripped)
    stats.  Two allocations with equal signatures produced the same
    final IR and register assignment, bit for bit."""
    from repro.ir.wire import encode_function

    signature = {}
    for name, result in sorted(allocation.results.items()):
        colors = sorted(
            (vreg.id, color) for vreg, color in result.assignment.items()
        )
        signature[name] = (
            encode_function(result.function),
            tuple(colors),
            result.method,
            pickle.dumps(_strip_times(result.stats.to_dict())),
        )
    return signature


def plan_kill_schedule(kills: int, seed: int, step_max: int = 4,
                       torn_rate: float = 0.34) -> list:
    """``kills`` seeded death points as ``(append_index, torn)`` pairs.

    Indices are global (1-based) journal-append counts, strictly
    ascending with gaps >= 2: a resumed incarnation always durably
    completes at least one record beyond its predecessor's death point,
    so forward progress is guaranteed no matter how dense the schedule.
    ``torn`` deaths flush half of one extra record first, so recovery
    faces a genuinely torn tail, not just clean record boundaries.
    """
    if step_max < 2:
        raise ValueError(f"step_max must be >= 2, got {step_max}")
    rng = random.Random(seed)
    schedule = []
    cursor = 0
    for _ in range(max(0, kills)):
        cursor += rng.randint(2, step_max)
        schedule.append((cursor, rng.random() < torn_rate))
    return schedule


class TortureReport:
    """Everything a torture run proved (or failed to prove)."""

    __slots__ = (
        "kills_requested", "kills_delivered", "torn_delivered", "schedule",
        "reasons", "deaths", "identical", "mismatched", "re_executed",
        "max_in_flight", "re_executed_bound", "leaked_workers", "poisoned",
        "functions", "journal", "elapsed", "result",
    )

    def __init__(self):
        self.kills_requested = 0
        #: deaths actually delivered (the schedule may outrun the task).
        self.kills_delivered = 0
        self.torn_delivered = 0
        #: the seeded ``(append_index, torn)`` plan.
        self.schedule = []
        self.reasons = []
        self.deaths = 0
        #: supervised result byte-identical to the unkilled reference.
        self.identical = False
        #: module names whose signature diverged (must be empty).
        self.mismatched = []
        #: start records beyond one per unique function — work redone
        #: because a death orphaned it mid-flight.
        self.re_executed = 0
        self.max_in_flight = 0
        self.re_executed_bound = 0
        self.leaked_workers = []
        self.poisoned = []
        self.functions = 0
        self.journal = ""
        self.elapsed = 0.0
        #: ``{module name: ModuleAllocation}`` from the supervised run.
        self.result = None

    @property
    def ok(self) -> bool:
        """The durability contract held: bit-identical result, no
        leaked workers, rework bounded by what was in flight."""
        return (
            self.identical
            and not self.mismatched
            and not self.leaked_workers
            and self.re_executed <= self.re_executed_bound
        )

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "kills_requested": self.kills_requested,
            "kills_delivered": self.kills_delivered,
            "torn_delivered": self.torn_delivered,
            "schedule": [list(entry) for entry in self.schedule],
            "reasons": list(self.reasons),
            "deaths": self.deaths,
            "identical": self.identical,
            "mismatched": list(self.mismatched),
            "functions": self.functions,
            "re_executed": self.re_executed,
            "max_in_flight": self.max_in_flight,
            "re_executed_bound": self.re_executed_bound,
            "leaked_workers": list(self.leaked_workers),
            "poisoned": list(self.poisoned),
            "journal": self.journal,
            "elapsed": self.elapsed,
        }

    def __repr__(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        return (
            f"TortureReport({verdict}: {self.kills_delivered}/"
            f"{self.kills_requested} kills ({self.torn_delivered} torn), "
            f"{self.functions} functions, {self.re_executed} re-executed "
            f"(bound {self.re_executed_bound}), identical={self.identical})"
        )


def _max_in_flight(records) -> int:
    """Largest set of functions ever simultaneously started-without-
    outcome across the journal timeline — the observed in-flight count
    that bounds how much work one death can orphan."""
    in_flight: set = set()
    peak = 0
    for record in records:
        kind = record.get("type")
        key = record.get("key")
        if not key:
            continue
        if kind == "start":
            in_flight.add(key)
            peak = max(peak, len(in_flight))
        elif kind in ("done", "failure", "poison"):
            in_flight.discard(key)
    return peak


def run_torture(workloads=(), sources=(), target=None, method="briggs",
                kills=10, seed=0, step_max=4, torn_rate=0.34, jobs=1,
                policy="degrade-to-naive", retries=1, journal_path=None,
                max_restarts=None, bundle_dir=None, alloc_kwargs=None,
                backoff=0.01) -> TortureReport:
    """SIGKILL a supervised allocation sweep at ``kills`` seeded points
    and prove it resumes to the unkilled reference, bit for bit.

    ``workloads`` are registry names, ``sources`` raw program texts (at
    least one of the two is required).  The kill schedule derives
    entirely from ``seed`` (see :func:`plan_kill_schedule`); ``torn_rate``
    of the deaths land mid-record.  ``journal_path`` defaults to a
    temporary file.  ``max_restarts`` defaults to ``kills + 2`` — every
    scheduled death plus slack is absorbed, so the budget itself is
    never the reason a torture run fails.
    """
    if not workloads and not sources:
        raise ValueError("run_torture needs at least one workload or source")
    task = AllocationTask(
        workloads=workloads, sources=sources, target=target, method=method,
        jobs=jobs, policy=policy, retries=retries, bundle_dir=bundle_dir,
        alloc_kwargs=alloc_kwargs,
    )
    report = TortureReport()
    report.kills_requested = max(0, kills)
    report.schedule = plan_kill_schedule(kills, seed, step_max, torn_rate)
    schedule = list(report.schedule)
    started_at = time.monotonic()

    # The unkilled serial reference: same task, fresh modules, no
    # journal, no supervisor.  Allocation mutates IR in place, so the
    # reference and the supervised run each compile their own copies.
    from repro.regalloc.driver import allocate_module

    resolved_target = task._target()
    reference = {}
    for module in task.modules():
        allocation = allocate_module(
            module, resolved_target, method, jobs=1, policy=policy,
            retries=retries, cache=False,
            **dict(alloc_kwargs or {}),
        )
        reference[module.name] = allocation_signature(allocation)
        report.functions += len(allocation.results)

    tmp_dir = None
    if journal_path is None:
        tmp_dir = tempfile.TemporaryDirectory(prefix="repro-torture-")
        journal_path = f"{tmp_dir.name}/torture.journal"
    report.journal = str(journal_path)

    def child_setup(incarnation):
        # Runs inside the forked child: arm the next scheduled death
        # point relative to how far the journal already got.  Once the
        # schedule is exhausted (or the task outruns it) the child runs
        # to completion unarmed.
        current = len(read_journal(journal_path)[0])
        for point, torn in schedule:
            if point > current:
                arm_kill_switch(point - current, torn=torn)
                return
        disarm_kill_switch()

    try:
        supervisor = Supervisor(
            task, journal_path,
            max_restarts=(kills + 2 if max_restarts is None
                          else max_restarts),
            backoff=backoff, child_setup=child_setup,
        )
        supervised = supervisor.run()

        report.reasons = supervised.reasons()
        report.deaths = supervised.deaths
        report.kills_delivered = report.reasons.count("kill")
        report.torn_delivered = sum(
            1 for _point, torn in schedule[:report.kills_delivered] if torn
        )
        report.leaked_workers = list(supervised.leaked_workers)
        report.poisoned = list(supervised.poisoned)
        report.result = supervised.result

        for name, signature in reference.items():
            allocation = supervised.result.get(name)
            if allocation is None or \
                    allocation_signature(allocation) != signature:
                report.mismatched.append(name)
        report.identical = not report.mismatched and \
            set(supervised.result) == set(reference)

        records, _recovery = read_journal(journal_path)
        starts = [r for r in records if r.get("type") == "start"]
        unique = {r["key"] for r in starts}
        report.re_executed = len(starts) - len(unique)
        report.max_in_flight = _max_in_flight(records)
        report.re_executed_bound = (
            (report.kills_delivered + 1) * max(1, report.max_in_flight)
        )
    finally:
        report.elapsed = time.monotonic() - started_at
        if tmp_dir is not None:
            tmp_dir.cleanup()
    return report
