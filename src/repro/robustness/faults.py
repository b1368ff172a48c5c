"""Layer 2 of the defense stack: seeded, composable fault injection.

A reproduction whose guards never fire is indistinguishable from one with
no guards.  Every entry in :data:`FAULTS` models one concrete bug class a
register allocator, spiller, or parallel driver could have — a missed
interference edge, a reload from the wrong frame slot, a worker process
that dies or wedges — and declares what the defense stack owes us for it:

* ``expect="detected"`` — some layer must trip: the phase-boundary
  invariant layer (:func:`repro.regalloc.invariants.recheck_assignment`
  over the retained final-pass graphs — the cheapest line of defense),
  the static coloring check (``check_allocation``), the IR verifier, or
  the dynamic differential run (layer 1,
  :mod:`repro.robustness.validate`);
* ``expect="degraded"`` — the system must absorb the fault and still
  produce a *correct* result, with the degradation recorded (perturbed
  spill costs change quality, never correctness; a crashed or hung worker
  is downgraded per :class:`repro.regalloc.FailurePolicy` and shows up on
  ``ModuleAllocation.failures``).

:func:`probe_fault` runs one fault through a correct pipeline and reports
which layers tripped; the parametrized registry test (and ``repro verify
--inject``) fail on any silent pass-through.  All injector choices are
driven by a seeded :class:`random.Random`, so every probe is replayable
from ``(fault, seed)`` alone.
"""

from __future__ import annotations

import contextlib
import os
import random
import time

from repro.analysis.cfg import CFG
from repro.analysis.liveness import Liveness
from repro.errors import (
    AllocationError,
    InvariantError,
    SimulationError,
    VerificationError,
)
from repro.frontend import compile_source
from repro.ir.values import RClass
from repro.ir.verifier import verify_function
from repro.machine.simulator import run_module
from repro.machine.target import rt_pc
from repro.observability.trace import coerce_tracer
from repro.regalloc.briggs import BriggsAllocator
from repro.regalloc.driver import allocate_module, check_allocation
from repro.regalloc.invariants import recheck_assignment
from repro.regalloc.interference import build_interference_graph
from repro.regalloc.spill_costs import INFINITE_COST, SpillCosts

_CLASSES = (RClass.INT, RClass.FLOAT)

#: The default probe program: enough integer pressure to spill several
#: ranges on the probe target (so slot faults apply), distinct values in
#: every live range (so a wrong reload is observable), and a call (so
#: caller-save discipline is exercised).  Two units, so the parallel
#: driver's worker faults have functions to fan out.
DEFAULT_FAULT_SOURCE = (
    "subroutine leaf(n)\n"
    "end\n"
    "program p\n"
    "integer a1, a2, a3, a4, a5, a6, m, total\n"
    "a1 = 1\n"
    "a2 = 2\n"
    "a3 = 3\n"
    "a4 = 4\n"
    "a5 = 5\n"
    "a6 = 6\n"
    "m = 41\n"
    "call leaf(m)\n"
    "total = a1 + a2 + a3 + a4 + a5 + a6 + m\n"
    "print total\n"
    "print a1\n"
    "print a6\n"
    "end\n"
)


def default_fault_target():
    """Four integer registers: the probe program must spill."""
    return rt_pc().with_int_regs(4).with_float_regs(3)


class Fault:
    """One registered fault: a seeded injector plus its contract."""

    __slots__ = ("name", "kind", "expect", "description", "inject")

    def __init__(self, name, kind, expect, description, inject):
        self.name = name
        #: "allocation" — corrupt a finished allocation/module;
        #: "costs" — perturb the allocator's input (a context manager);
        #: "worker" — break the parallel driver's workers;
        #: "service" — break a request against the live daemon;
        #: "process" — SIGKILL the allocating process itself.
        self.kind = kind
        self.expect = expect  # "detected" | "degraded"
        self.description = description
        self.inject = inject

    def __repr__(self) -> str:
        return f"Fault({self.name}: {self.kind}, expect {self.expect})"


#: name -> :class:`Fault`; iterate this to prove no fault passes silently.
FAULTS: dict = {}


def register_fault(name, *, kind="allocation", expect="detected",
                   description=""):
    def decorator(fn):
        FAULTS[name] = Fault(
            name, kind, expect,
            description or (fn.__doc__ or "").strip().splitlines()[0],
            fn,
        )
        return fn
    return decorator


# ----------------------------------------------------------------------
# Allocation-corrupting injectors
#
# Each takes (module, allocation, rng), mutates the allocation and/or the
# final IR the way the modeled bug would have, and returns a one-line
# description of what it broke — or None when the fault does not apply to
# this program (e.g. no spill code to corrupt).
# ----------------------------------------------------------------------


def _interfering_pairs(result):
    """All (vreg, vreg) interference pairs with distinct colors, in
    deterministic order."""
    function = result.function
    liveness = Liveness(function, CFG(function))
    pairs = []
    for rclass in _CLASSES:
        graph = build_interference_graph(
            function, rclass, result.target, liveness
        )
        for node in range(graph.k, graph.num_nodes):
            for neighbor in graph.neighbors(node):
                if graph.k <= node < neighbor:
                    a = graph.vreg_for(node)
                    b = graph.vreg_for(neighbor)
                    if result.assignment.get(a) is not None and \
                            result.assignment.get(b) is not None and \
                            result.assignment[a] != result.assignment[b]:
                        pairs.append((a, b))
    return pairs


def _set_color(allocation, result, vreg, color):
    """Corrupt both the per-function assignment (what the static checker
    reads) and the module-merged copy (what the simulator reads)."""
    result.assignment[vreg] = color
    allocation.assignment[vreg] = color


@register_fault("drop_edge", expect="detected")
def inject_drop_edge(module, allocation, rng):
    """A missed interference edge: one endpoint takes its neighbor's color."""
    for result in allocation.results.values():
        pairs = _interfering_pairs(result)
        if pairs:
            a, b = pairs[rng.randrange(len(pairs))]
            _set_color(allocation, result, a, result.assignment[b])
            return (
                f"{result.function.name}: recolored {a.pretty()} to share "
                f"color {result.assignment[b]} with interfering {b.pretty()}"
            )
    return None


@register_fault("merge_colors", expect="detected")
def inject_merge_colors(module, allocation, rng):
    """Two register files collapsed into one: every range colored c2 is
    remapped to c1, where some pair interferes across c1/c2."""
    for result in allocation.results.values():
        pairs = _interfering_pairs(result)
        if not pairs:
            continue
        a, b = pairs[rng.randrange(len(pairs))]
        keep, fold = result.assignment[a], result.assignment[b]
        victims = [
            vreg for vreg, color in result.assignment.items()
            if color == fold and vreg.rclass == b.rclass
        ]
        for vreg in victims:
            _set_color(allocation, result, vreg, keep)
        return (
            f"{result.function.name}: merged color {fold} into {keep} "
            f"({len(victims)} ranges, class {b.rclass})"
        )
    return None


@register_fault("out_of_file_color", expect="detected")
def inject_out_of_file_color(module, allocation, rng):
    """A color beyond the register file (an off-by-N in the color order).

    Prefers a register that occurs in the final code so the *static*
    layer sees it; an assignment-only register (e.g. an unused parameter)
    is still caught dynamically by the simulator's file-bounds check.
    """
    candidates = []
    for result in allocation.results.values():
        occurring = set()
        for _block, _index, instr in result.function.instructions():
            occurring.update(instr.defs)
            occurring.update(instr.uses)
        vregs = sorted(
            (v for v in result.assignment if v in occurring),
            key=lambda v: v.id,
        )
        candidates.append((bool(vregs), result,
                           vregs or sorted(result.assignment,
                                           key=lambda v: v.id)))
    for _occurs, result, vregs in sorted(
        candidates, key=lambda entry: not entry[0]
    ):
        if not vregs:
            continue
        victim = vregs[rng.randrange(len(vregs))]
        bad = result.target.regs(victim.rclass) + rng.randrange(1, 4)
        _set_color(allocation, result, victim, bad)
        return (
            f"{result.function.name}: colored {victim.pretty()} {bad}, "
            f"outside the {result.target.regs(victim.rclass)}-register file"
        )
    return None


@register_fault("corrupt_spill_slot", expect="detected")
def inject_corrupt_spill_slot(module, allocation, rng):
    """A reload reads another live range's frame slot (spill-placement
    bug invisible to the coloring check — only the differential run can
    see it)."""
    for function in module:
        reloads = [
            instr
            for _block, _index, instr in function.instructions()
            if instr.op in ("reload", "freload")
        ]
        slots = sorted({instr.imm for instr in reloads})
        if len(slots) < 2:
            continue
        victim = reloads[rng.randrange(len(reloads))]
        wrong = [slot for slot in slots if slot != victim.imm]
        original = victim.imm
        victim.imm = wrong[rng.randrange(len(wrong))]
        return (
            f"{function.name}: redirected a reload from slot {original} "
            f"to slot {victim.imm}"
        )
    return None


@register_fault("delete_reload", expect="detected")
def inject_delete_reload(module, allocation, rng):
    """A dropped reload: the use reads whatever the register last held."""
    for function in module:
        positions = [
            (block, index)
            for block, index, instr in function.instructions()
            if instr.op in ("reload", "freload")
        ]
        if not positions:
            continue
        block, index = positions[rng.randrange(len(positions))]
        deleted = block.instrs.pop(index)
        return f"{function.name}: deleted '{deleted.op} slot {deleted.imm}'"
    return None


# ----------------------------------------------------------------------
# Input-perturbing injector: spill-cost noise must degrade quality, not
# correctness.
# ----------------------------------------------------------------------


@register_fault("perturb_spill_cost", kind="costs", expect="degraded")
def inject_perturb_spill_cost(rng, low=0.25, high=4.0):
    """Seeded noise on every finite spill cost: the allocator may pick
    worse victims, but the result must still validate and run correctly.
    Returns a context manager active while allocating."""

    @contextlib.contextmanager
    def perturbed():
        from repro.regalloc import driver as driver_module

        original = driver_module.compute_spill_costs

        def noisy_compute(function, loop_info=None):
            costs = original(function, loop_info)
            return SpillCosts({
                vreg: (
                    cost if cost == INFINITE_COST
                    else cost * rng.uniform(low, high)
                )
                for vreg, cost in costs.items()
            })

        driver_module.compute_spill_costs = noisy_compute
        try:
            yield
        finally:
            driver_module.compute_spill_costs = original

    return perturbed()


# ----------------------------------------------------------------------
# Worker faults: strategies that break inside the parallel driver.  All
# are module-level (hence picklable) so they cross the process boundary
# the same way real strategies do.  On the persistent-pool transport
# (:mod:`repro.regalloc.pool`) these probes exercise the per-function
# dispatch path end to end: strategy *objects* are never
# response-cached, so a crash always happens live in a warm worker,
# fails only its own function's task, and must surface at the driver
# layer as that function's failure — a hang additionally forces a pool
# restart, which the lifecycle tests assert.
# ----------------------------------------------------------------------


class CrashingAllocator(BriggsAllocator):
    """Deterministic worker crash: every allocation attempt raises."""

    def __init__(self, order: str = "cost"):
        super().__init__(order)
        self.name = "crashing-briggs"

    def allocate_class(self, graph, costs, color_order=None, tracer=None):
        raise RuntimeError("injected fault: worker crash in allocate_class")


class FlakyAllocator(BriggsAllocator):
    """Crashes only outside the process that created it — the driver's
    bounded in-process retry heals it with no recorded failure."""

    def __init__(self, order: str = "cost"):
        super().__init__(order)
        self.name = "flaky-briggs"
        self.spawn_pid = os.getpid()

    def allocate_class(self, graph, costs, color_order=None, tracer=None):
        if os.getpid() != self.spawn_pid:
            raise RuntimeError("injected fault: crash outside spawn process")
        return super().allocate_class(graph, costs, color_order, tracer=tracer)


class HangingAllocator(BriggsAllocator):
    """Wedges past any reasonable per-function timeout."""

    def __init__(self, delay: float = 3600.0, order: str = "cost"):
        super().__init__(order)
        self.name = "hanging-briggs"
        self.delay = delay

    def allocate_class(self, graph, costs, color_order=None, tracer=None):
        time.sleep(self.delay)
        return super().allocate_class(graph, costs, color_order, tracer=tracer)


@register_fault("worker_crash", kind="worker", expect="degraded")
def inject_worker_crash(rng):
    """A worker process dies on every function: the hardened driver must
    degrade each one and record the failures."""
    return CrashingAllocator(), {"jobs": 2, "retries": 1}


@register_fault("worker_hang", kind="worker", expect="degraded")
def inject_worker_hang(rng):
    """A worker wedges: the per-function timeout must reclaim it."""
    return HangingAllocator(delay=60.0), {"jobs": 2, "timeout": 1.0,
                                          "retries": 0}


# ----------------------------------------------------------------------
# Service faults: request-level failure modes of the allocation daemon
# (PR 7, :mod:`repro.service`).  Injectors return a spec dict the
# server's (or the chaos client's) fault hook interprets; probing spins
# an in-process server and replays the fault against it live.
# ----------------------------------------------------------------------


@register_fault("slow_request", kind="service", expect="degraded")
def inject_slow_request(rng):
    """A request stalls past its deadline budget: the service must answer
    504 inside bounded time, never hold the queue slot indefinitely."""
    return {"delay": rng.uniform(0.8, 1.5)}


@register_fault("cache_corrupt", kind="service", expect="degraded")
def inject_cache_corrupt(rng):
    """Disk-cache entries are corrupted under a live server: the verified
    read path must quarantine them and recompute identical answers."""
    return {"offset": rng.randrange(0, 64)}


@register_fault("client_disconnect", kind="service", expect="degraded")
def inject_client_disconnect(rng):
    """The client hangs up mid-request: the server must absorb the broken
    pipe and keep serving everyone else."""
    return {"after": rng.uniform(0.0, 0.05)}


# ----------------------------------------------------------------------
# Process faults: the allocating process itself dies (PR 8,
# :mod:`repro.durability`).  The injector returns kill-torture knobs;
# probing delegates to the torture harness, which SIGKILLs a supervised
# child at seeded journal appends and compares the resumed result
# against an unkilled reference, byte for byte.
# ----------------------------------------------------------------------


@register_fault("process_kill", kind="process", expect="degraded")
def inject_process_kill(rng):
    """The allocating process is SIGKILLed mid-run (possibly mid-write):
    the supervisor must resume from the journal to a result byte-identical
    to an unkilled run, leaking no workers."""
    return {"kills": 2, "seed": rng.randrange(1 << 16), "step_max": 3,
            "torn_rate": 0.5}


# ----------------------------------------------------------------------
# The probe: inject one fault into a correct pipeline, report what fired.
# ----------------------------------------------------------------------


class FaultProbe:
    """Outcome of injecting one fault into a correct pipeline."""

    __slots__ = ("fault", "seed", "injected", "detected_by", "degraded",
                 "failures", "detail")

    def __init__(self, fault, seed, injected, detected_by=(), degraded=False,
                 failures=0, detail=""):
        self.fault = fault  # the Fault record
        self.seed = seed
        #: injector's description of the corruption; None = inapplicable.
        self.injected = injected
        #: layers that tripped: "invariants", "static", "verifier",
        #: "dynamic", "driver".
        self.detected_by = tuple(detected_by)
        #: True when the system absorbed the fault and still ran correctly,
        #: with the degradation on record.
        self.degraded = degraded
        self.failures = failures
        self.detail = detail

    @property
    def ok(self) -> bool:
        """The fault's contract held: detected when it must be detected,
        gracefully (and visibly) degraded when degradation is allowed."""
        if self.injected is None:
            return False  # the injector never applied: the probe proved nothing
        if self.fault.expect == "detected":
            return bool(self.detected_by)
        return self.degraded

    @property
    def silent(self) -> bool:
        return not self.ok

    def __repr__(self) -> str:
        caught = ",".join(self.detected_by) or (
            "degraded" if self.degraded else "SILENT"
        )
        return f"FaultProbe({self.fault.name} seed={self.seed}: {caught})"


def _dynamic_layer(module, target, assignment, baseline,
                   max_instructions) -> tuple:
    """Run the allocated module; returns (tripped, detail)."""
    try:
        outcome = run_module(
            module, target=target, assignment=assignment,
            max_instructions=max_instructions,
        )
    except SimulationError as error:
        return True, f"simulator fault: {error}"
    if outcome.outputs != baseline:
        return True, f"outputs diverged: {outcome.outputs} != {baseline}"
    return False, ""


def probe_fault(
    name: str,
    seed: int = 0,
    source: str | None = None,
    method: str = "briggs",
    target=None,
    max_instructions: int = 10_000_000,
    tracer=None,
) -> FaultProbe:
    """Inject fault ``name`` (seeded with ``seed``) into a correct
    compile/allocate/run pipeline over ``source`` and report which defense
    layers tripped.  Deterministic: same arguments, same probe.  With a
    ``tracer`` the probe (and the allocations under it) records spans
    tagged with the fault name and seed.
    """
    fault = FAULTS.get(name)
    if fault is None:
        known = ", ".join(sorted(FAULTS))
        raise AllocationError(f"unknown fault {name!r} (known: {known})")
    tracer = coerce_tracer(tracer)
    with tracer.span(f"fault:{name}", cat="fault", seed=seed,
                     kind=fault.kind, method=method):
        return _run_probe(fault, seed, source, method, target,
                          max_instructions, tracer)


def _run_probe(fault, seed, source, method, target, max_instructions,
               tracer) -> FaultProbe:
    rng = random.Random(seed)
    source = source if source is not None else DEFAULT_FAULT_SOURCE
    target = target or default_fault_target()
    baseline = run_module(
        compile_source(source), max_instructions=max_instructions
    ).outputs
    module = compile_source(source)

    if fault.kind == "costs":
        with fault.inject(rng):
            allocation = allocate_module(module, target, method,
                                         validate=True, tracer=tracer)
        tripped, detail = _dynamic_layer(
            module, target, allocation.assignment, baseline, max_instructions
        )
        return FaultProbe(
            fault, seed, "spill costs perturbed", degraded=not tripped,
            detail=detail or "allocation still validates and runs correctly",
        )

    if fault.kind == "worker":
        strategy, extra = fault.inject(rng)
        allocation = allocate_module(
            module, target, strategy, policy="degrade-to-naive",
            tracer=tracer, **extra
        )
        detected = ["driver"] if allocation.failures else []
        complete = set(allocation.results) == {f.name for f in module}
        tripped, detail = _dynamic_layer(
            module, target, allocation.assignment, baseline, max_instructions
        )
        degraded = bool(allocation.failures) and complete and not tripped
        return FaultProbe(
            fault, seed, f"worker fault via {strategy.name}",
            detected_by=detected, degraded=degraded,
            failures=len(allocation.failures),
            detail=detail or "; ".join(
                f"{f.function}: {f.error_type} in {f.phase} -> {f.action}"
                for f in allocation.failures
            ),
        )

    if fault.kind == "process":
        # Process death needs a supervised child: delegate to the
        # kill-torture harness, which runs the allocation in a child,
        # SIGKILLs it at the injector's seeded journal appends, and
        # diffs the resumed result against an unkilled reference.
        import tempfile

        from repro.durability.torture import run_torture

        spec = fault.inject(rng)
        with tempfile.TemporaryDirectory(prefix="repro-torture-") as tmp:
            report = run_torture(
                sources=[source], target=target, method=method,
                journal_path=f"{tmp}/torture.journal", **spec,
            )
        detected = ["supervisor"] if report.kills_delivered else []
        points = [point for point, _torn in report.schedule]
        return FaultProbe(
            fault, seed,
            f"SIGKILL at journal appends {points} "
            f"({report.torn_delivered} torn)",
            detected_by=detected, degraded=report.ok,
            failures=report.deaths, detail=repr(report),
        )

    if fault.kind == "service":
        # Service faults need a live daemon: delegate to the chaos
        # harness's single-fault probe (in-process server, one seeded
        # faulted request, contract checks per fault).
        from repro.service.chaos import probe_service_fault

        injected, detected, degraded, failures, detail = \
            probe_service_fault(fault, seed)
        return FaultProbe(
            fault, seed, injected, detected_by=detected,
            degraded=degraded, failures=failures, detail=detail,
        )

    # kind == "allocation": corrupt a finished, correct allocation.
    # paranoia="cheap" keeps the final-pass interference graphs on each
    # result, arming the post-hoc invariant layer below.
    allocation = allocate_module(module, target, method, validate=True,
                                 paranoia="cheap", tracer=tracer)
    injected = fault.inject(module, allocation, rng)
    if injected is None:
        return FaultProbe(fault, seed, None,
                          detail="injector found nothing to corrupt")

    detected = []
    detail = []
    try:
        for result in allocation.results.values():
            recheck_assignment(result)
    except InvariantError as error:
        detected.append("invariants")
        detail.append(f"invariants: {error.message}")
    try:
        for result in allocation.results.values():
            check_allocation(result)
    except AllocationError as error:
        detected.append("static")
        detail.append(f"static: {error.message}")
    try:
        for function in module:
            verify_function(function)
    except VerificationError as error:
        detected.append("verifier")
        detail.append(f"verifier: {error.message}")
    tripped, dynamic_detail = _dynamic_layer(
        module, target, allocation.assignment, baseline, max_instructions
    )
    if tripped:
        detected.append("dynamic")
        detail.append(f"dynamic: {dynamic_detail}")
    return FaultProbe(
        fault, seed, injected, detected_by=detected,
        detail="; ".join(detail),
    )
