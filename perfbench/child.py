"""The program's own process for the in-process workloads.

``python -m perfbench.child --workload suite|graph --inputs FILE --out
FILE --mode setup|measure --trace 0|1 [--ops START:END] [--references
FILE]``

Set-up is everything from interpreter start to the end of one warm-up
operation (imports, pool spawn for ``graph``), minus the time spent
loading the benchmark's inputs, which is reported separately.  In
``measure`` mode the child then runs its share (``--ops``) of the
workload's fixed operation sequence, times each operation, shuts its
pools down, checks that no worker survived, and checks every answer
after the timed operations: a ``suite`` share given ``--references``
against the answer digests the first share made.  Everything it learned
goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time


def _pool_workers() -> list:
    from repro.regalloc.pool import active_pools

    return [pid for pool in active_pools() for pid in pool.worker_pids()]


def _shutdown() -> dict:
    """Shut every pool down and report any worker that outlived it."""
    from repro.regalloc.pool import shutdown_pools

    from perfbench.common import kill_all, wait_gone

    workers = _pool_workers()
    shutdown_pools()
    leaked = wait_gone(workers)
    kill_all(leaked)
    return {"workers": workers, "leaked": leaked}


class Suite:
    """Closed loop, one caller: compile + serial Briggs allocation of the
    registry programs at the paper-calibrated 12-int/6-float target."""

    def __init__(self, inputs):
        import repro.frontend
        import repro.regalloc.driver
        from repro.experiments.runner import EXPERIMENT_TARGET

        self.frontend = repro.frontend
        self.driver = repro.regalloc.driver
        self.target = EXPERIMENT_TARGET
        self.inputs = inputs
        self.sources = inputs["sources"]
        self.fingerprints: list = []
        #: Reference answer digests per program, from the run's first
        #: share; ``None`` in that share, which makes them.
        self.references = None

    def op(self, name):
        # Looked up through the modules at call time, so a probe's
        # wrappers (and only while installed) see these calls.
        module = self.frontend.compile_source(self.sources[name], name)
        return module, self.driver.allocate_module(module, self.target,
                                                   "briggs")

    def warmup(self) -> None:
        self.op(self.inputs["warmup"])

    @staticmethod
    def fingerprint(answer) -> str:
        """Digest of the allocated IR, assignment, pass and spill counts,
        hashed one function at a time: keeping answers, or one big copy
        of one, would leave heap behind that the next operation's peak
        RSS counts.  (``service.protocol.flat_assignment`` is not used:
        importing the service adds 4 MiB to a process that has none.)"""
        from repro.ir.wire import encode_function

        module, allocation = answer
        hasher = hashlib.sha256()
        for function in module:
            hasher.update(encode_function(function).encode())
        for name, result in sorted(allocation.results.items()):
            colors = sorted((vreg.rclass.value, vreg.id, color)
                            for vreg, color in result.assignment.items())
            hasher.update(repr((name, result.stats.pass_count,
                                result.stats.registers_spilled,
                                colors)).encode())
        return hasher.hexdigest()

    def keep(self, name, answer) -> None:
        """Outside the timed window: fingerprint the answer."""
        self.fingerprints.append(
            None if answer is None else self.fingerprint(answer))

    def check(self, names, failed: set) -> dict:
        """Every timed answer must be bit-identical to its program's
        reference answer.  Without references from an earlier share, this
        share makes them (see :meth:`reference_answers`) and returns
        them with the totals."""
        totals: dict = {}
        errors: list = []
        references = self.references
        if references is None:
            references, totals, errors = self.reference_answers(
                sorted(set(names)))
            totals["references"] = references
        for index, name in enumerate(names):
            if index in failed:
                continue
            if references.get(name) is None or \
                    self.fingerprints[index] != references[name]:
                failed.add(index)
                errors.append(f"op {index} ({name}): answer differs from "
                              f"the checked one")
        totals["errors"] = errors[:5]
        return totals

    def reference_answers(self, names):
        """Each program is allocated once more, after the timed
        operations; that answer must simulate to the outputs of the
        unallocated program and pass ``Workload.check``.  Returns its
        digest per program (``None`` when wrong), the exact totals, and
        the errors."""
        from repro.machine.encoding import object_size
        from repro.machine.simulator import run_module
        from repro.workloads import all_workloads

        from perfbench.common import instruction_budget, same_outputs

        registry = all_workloads()
        references: dict = {}
        totals = {"spilled_ranges": 0, "code_bytes": 0, "sim_cycles": 0,
                  "functions": 0, "passes": 0}
        errors = []
        for name in names:
            workload = registry[name]
            try:
                module, allocation = self.op(name)
                references[name] = self.fingerprint((module, allocation))
                baseline = run_module(
                    self.frontend.compile_source(self.sources[name], name),
                    entry=workload.entry)
                run = run_module(
                    module, entry=workload.entry, target=self.target,
                    assignment=allocation.assignment,
                    max_instructions=instruction_budget(
                        baseline.instructions))
                if not same_outputs(run.outputs, baseline.outputs):
                    raise AssertionError("allocated outputs differ from the "
                                         "unallocated program's")
                workload.verify_outputs(run.outputs)
            except Exception as error:  # noqa: BLE001 — a wrong answer
                references[name] = None
                errors.append(f"{name}: {error!r}")
                continue
            totals["sim_cycles"] += run.cycles
            for result in allocation.results.values():
                totals["code_bytes"] += object_size(
                    result.function, self.target, result.assignment)
                totals["spilled_ranges"] += result.stats.registers_spilled
                totals["passes"] += result.stats.pass_count
                totals["functions"] += 1
        return references, totals, errors


class Graph:
    """Closed loop, one caller: conflict-repair coloring of 10^5-node
    graphs with the default (pooled) ``jobs``."""

    def __init__(self, inputs):
        import repro.regalloc.repair

        self.repair = repro.regalloc.repair
        self.inputs = inputs
        self.graphs = inputs["graphs"]
        self.k = inputs["k"]
        self.answers: list = []
        self.traced = False

    def op(self, index):
        tracer = None
        if self.traced:
            from repro.observability.trace import Tracer

            tracer = Tracer()
        return self.repair.repair_color(self.graphs[index], self.k,
                                        tracer=tracer), tracer

    def warmup(self) -> None:
        self.op(0)

    def keep(self, index, answer) -> None:
        if answer is None:
            self.answers.append((index, None, 0.0))
            return
        outcome, tracer = answer
        self.answers.append((index, outcome, _parallel_round_s(tracer)))

    def check(self, names, failed: set) -> dict:
        """Every coloring must pass ``verify_coloring``; colorings of one
        graph must agree (the engine is deterministic)."""
        first: dict = {}
        errors = []
        for position, (index, outcome, _) in enumerate(self.answers):
            if position in failed:
                continue
            try:
                self.repair.verify_coloring(self.graphs[index],
                                            outcome.colors, self.k,
                                            outcome.spilled)
                reference = first.setdefault(index, outcome)
                if reference.colors != outcome.colors:
                    raise AssertionError("coloring differs between runs "
                                         "on one graph")
            except Exception as error:  # noqa: BLE001 — a wrong answer
                failed.add(position)
                errors.append(f"op {position}: {error!r}")
        return {
            "spilled_ranges": sum(len(o.spilled) for o in first.values()),
            "errors": errors[:5],
            "repair_dispatch_s": sum(s for _, _, s in self.answers),
        }


def _parallel_round_s(tracer) -> float:
    """Seconds spent in repair rounds that dispatched to the pool, from
    the tracer's own ``repair-round`` spans."""
    if tracer is None:
        return 0.0
    total = 0.0
    opened: list = []
    pid = os.getpid()
    for event in tracer.events:
        if event.get("pid") != pid or event.get("name") != "repair-round":
            continue
        if event["ph"] == "B":
            opened.append(event)
        elif event["ph"] == "E" and opened:
            begin = opened.pop()
            if (begin.get("args") or {}).get("parallel"):
                total += event["ts"] - begin["ts"]
    return total


WORKLOADS = {"suite": Suite, "graph": Graph}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", default="0:",
                        help="START:END, this process's share of the "
                             "run's operations")
    parser.add_argument("--references",
                        help="JSON file of the reference answer digests "
                             "an earlier share made (suite)")
    args = parser.parse_args(argv)

    from perfbench.inputs import decode

    started = time.monotonic()
    with open(args.inputs, "rb") as handle:
        inputs = decode(handle.read())
    if args.references:
        with open(args.references) as handle:
            references = json.load(handle)
    inputs_s = time.monotonic() - started
    start, end = args.ops.split(":")
    inputs["ops"] = inputs["ops"][int(start):int(end) if end else None]

    runner = WORKLOADS[args.workload](inputs)
    if args.references:
        runner.references = references
    runner.warmup()
    result = {"ready": time.monotonic(), "inputs_s": inputs_s}
    if args.mode == "measure":
        result.update(measure(runner, args.workload, bool(args.trace)))
    else:
        result["teardown"] = _shutdown()
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


def measure(runner, workload: str, traced: bool) -> dict:
    from perfbench.common import peak_rss_mb, reset_peak_rss
    from perfbench.layers import HOOKS, Probe, is_wrapped, resolve

    names = runner.inputs["ops"]
    latencies = []
    failed: set = set()
    errors = []
    peaks: dict = {}
    probe = Probe().install(workload) if traced else None
    runner.traced = traced
    try:
        for index, name in enumerate(names):
            # The peak is taken over the operations only, not over the
            # benchmark's own bookkeeping and checks between them.
            reset_peak_rss()
            started = time.perf_counter()
            try:
                answer = runner.op(name)
            except Exception as error:  # noqa: BLE001 — a failed operation
                latencies.append(time.perf_counter() - started)
                failed.add(index)
                errors.append(f"op {index} ({name}): {error!r}")
                runner.keep(name, None)
                continue
            latencies.append(time.perf_counter() - started)
            peaks.setdefault(name, []).append(peak_rss_mb())
            runner.keep(name, answer)
            # Not resident when the next operation's peak is taken.
            del answer
    finally:
        if probe is not None:
            probe.remove()
    unwrapped = not any(is_wrapped(resolve(spec), attr)
                        for spec, attr, _ in HOOKS[workload])
    workers_rss = sum(peak_rss_mb(pid) for pid in _pool_workers())
    teardown = _shutdown()
    checks = runner.check(names, failed)
    return {
        "names": names,
        "latencies": latencies,
        "failed": sorted(failed),
        "errors": errors[:5] + checks.pop("errors"),
        "checks": checks,
        "peaks": peaks,
        "workers_rss_mb": workers_rss,
        "teardown": teardown,
        "unwrapped": unwrapped,
        "probe": probe.snapshot() if probe is not None else None,
    }


if __name__ == "__main__":
    sys.exit(main())
