"""The allocation driver: Chaitin's Figure-4 loop.

::

    renumber -> build -> coalesce -> spill costs -> simplify -> select
         ^                                             |          |
         |                 spill code  <---------------+----------+
         +--------------------------------------------(if any spills)

Each pass times its phases (Figure 7) and records what spilled (Figures
5/6).  Both register classes are allocated in the same pass — the RT/PC's
GPRs and FPRs interfere only within their own file — and a pass that
spills in either class re-runs the cycle for the whole function.

The loop reuses what later passes cannot change: spill code only inserts
instructions *inside* existing blocks, so the CFG and the loop nesting of
every block are computed once, in the first pass, and carried across
passes.  Renumbering and coalescing are skipped once a pass finds nothing
to split or merge — spill temporaries are excluded from both transforms,
so a fixed point stays a fixed point (aggressive coalescing only; the
conservative variant's degree test can change after a spill, so it always
re-runs).  A pass that does coalesce does not build the graphs itself:
the coalescer's last round merges nothing, so the graphs it was built on
are the graphs of the code about to be colored, and ``coalesce_copies``
hands them over.  ``PassStats.reused`` records exactly what was carried
over, ``"interference"`` for handed-over graphs.

``check_allocation`` independently re-derives interference on the final
code and verifies the coloring — the allocator's acceptance test.
Deeper, *dynamic* checking (differential execution of allocated against
pre-allocation code) lives in :mod:`repro.robustness.validate`.

``allocate_module`` fans independent functions out over a process pool
when ``jobs > 1``; results are deterministic and bit-identical to the
serial path.  The parallel driver is hardened: workers get a per-function
``timeout``, a crashed worker is retried in-process a bounded number of
times (``retries``) on a fresh copy of its function, and a function whose
allocation still fails is handled per :class:`FailurePolicy` — re-raise,
degrade to the spill-all baseline, or skip — with structured diagnostics
recorded on :attr:`ModuleAllocation.failures` and an optional
deterministic crash bundle written under ``bundle_dir``.
"""

from __future__ import annotations

import enum
import pickle
import time
import warnings

from repro.analysis.cfg import CFG
from repro.analysis.liveness import Liveness
from repro.analysis.loops import annotate_loop_depths
from repro.analysis.webs import split_webs
from repro.errors import AllocationError, DriverTimeoutError, ReproError
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import RClass
from repro.machine.target import Target
from repro.observability.trace import NULL_TRACER, coerce_tracer
from repro.regalloc.briggs import BriggsAllocator
from repro.regalloc.chaitin import ChaitinAllocator
from repro.regalloc.coalesce import coalesce_copies
from repro.regalloc.interference import (
    build_interference_graph,
    build_interference_graphs,
)
from repro.regalloc.invariants import (
    check_class_invariants,
    check_cost_invariants,
    check_graph_invariants,
    coerce_paranoia,
)
from repro.regalloc.spill import insert_spill_code
from repro.regalloc.spill_costs import compute_spill_costs
from repro.regalloc.stats import AllocationStats, PassStats

_CLASSES = (RClass.INT, RClass.FLOAT)

#: Passes of the Figure-4 cycle before a function is declared uncolorable.
MAX_PASSES = 30


def _method_for(name_or_method):
    if isinstance(name_or_method, str):
        if name_or_method == "chaitin":
            return ChaitinAllocator()
        if name_or_method == "briggs":
            return BriggsAllocator()
        if name_or_method == "briggs-degree":
            return BriggsAllocator(order="degree")
        if name_or_method == "spill-all":
            from repro.regalloc.naive import SpillAllAllocator

            return SpillAllAllocator()
        if name_or_method == "repair":
            from repro.regalloc.repair import RepairAllocator

            return RepairAllocator()
        raise AllocationError(f"unknown allocation method {name_or_method!r}")
    return name_or_method


class FailurePolicy(enum.Enum):
    """What :func:`allocate_module` does when one function's allocation
    fails (an :class:`AllocationError`, a crashed worker, or a worker
    exceeding its timeout).

    * ``RAISE`` — propagate the error (the historical behavior).
    * ``DEGRADE`` — re-allocate the function with the spill-all baseline,
      which needs almost no registers, and record the downgrade.
    * ``SKIP`` — leave the function out of the results and record why.
    """

    RAISE = "raise"
    DEGRADE = "degrade-to-naive"
    SKIP = "skip"

    @classmethod
    def coerce(cls, value) -> "FailurePolicy":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            choices = ", ".join(repr(p.value) for p in cls)
            raise AllocationError(
                f"unknown failure policy {value!r} (choose from {choices})"
            ) from None


class AllocationFailure:
    """Structured diagnostics for one function whose allocation failed.

    Collected on :attr:`ModuleAllocation.failures` whenever a non-raising
    :class:`FailurePolicy` absorbs a failure (and, transiently, before a
    ``RAISE`` policy propagates it).
    """

    __slots__ = (
        "function",
        "method",
        "phase",
        "pass_index",
        "error",
        "error_type",
        "elapsed",
        "retries",
        "action",
        "bundle",
    )

    def __init__(self, function, method, phase, pass_index, error, elapsed,
                 retries, action, bundle=None):
        self.function = function
        self.method = method
        #: where the failure happened: "build", "color", "spill",
        #: "validate", "worker-crash", "worker-timeout", ...
        self.phase = phase
        self.pass_index = pass_index
        self.error = str(error)
        self.error_type = type(error).__name__
        self.elapsed = elapsed
        self.retries = retries
        #: what the policy did: "raised", "degraded-to-naive", "skipped".
        self.action = action
        #: path of the crash bundle, when one was written.
        self.bundle = bundle

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: dict) -> "AllocationFailure":
        """Rebuild a failure from :meth:`as_dict` output (the durability
        journal replays absorbed failures across process restarts)."""
        failure = cls.__new__(cls)
        for slot in cls.__slots__:
            setattr(failure, slot, data.get(slot))
        return failure

    def __repr__(self) -> str:
        return (
            f"AllocationFailure({self.function}: {self.error_type} in "
            f"{self.phase}, {self.action})"
        )


class AllocationResult:
    """Final coloring of one function plus its statistics."""

    __slots__ = ("function", "target", "method", "assignment", "stats",
                 "graphs")

    def __init__(self, function, target, method, assignment, stats,
                 graphs=None):
        self.function = function
        self.target = target
        self.method = method
        #: VReg -> color for every register occurring in the final code.
        self.assignment = assignment
        self.stats = stats
        #: final pass's {rclass: InterferenceGraph}, kept when the
        #: allocation ran with ``paranoia`` enabled so
        #: :func:`repro.regalloc.invariants.recheck_assignment` can replay
        #: the assignment without rebuilding liveness; ``None`` otherwise.
        self.graphs = graphs

    def __repr__(self) -> str:
        return (
            f"AllocationResult({self.method} on {self.function.name}: "
            f"{self.stats.pass_count} passes, "
            f"{self.stats.registers_spilled} spilled)"
        )


def allocate_function(
    function: Function,
    target: Target,
    method="briggs",
    coalesce=True,
    renumber: bool = True,
    rematerialize: bool = False,
    split_ranges: bool = False,
    validate: bool = False,
    paranoia: str = "off",
    tracer=None,
) -> AllocationResult:
    """Allocate registers for ``function`` in place (spill code may be
    inserted).  ``method`` is ``"chaitin"``, ``"briggs"``,
    ``"briggs-degree"`` or a strategy object.  ``rematerialize`` enables
    Chaitin's constant-rematerialization refinement for spilled ranges.

    ``paranoia`` (``"off"``/``"cheap"``/``"full"``, see
    :mod:`repro.regalloc.invariants`) turns on phase-boundary invariant
    checking inside the cycle; any violation raises
    :class:`repro.errors.InvariantError` in the phase that committed it.

    ``tracer`` (a :class:`repro.observability.trace.Tracer`, default
    disabled) records hierarchical spans — ``function`` → ``pass`` →
    ``build``/``color``/``spill`` with the build steps and the
    strategies' ``simplify``/``select`` nested inside — plus counters
    (live ranges, edges, max degree, spills, coalesces, reuse hits,
    invariant-check time).  Tracing never changes the allocation.

    Any :class:`AllocationError` escaping the cycle carries structured
    ``context``: the function name, the allocation method, the pass index
    and the phase ("build", "color", "spill", "validate") it tripped in.
    """
    strategy = _method_for(method)
    paranoia = coerce_paranoia(paranoia)
    tracer = coerce_tracer(tracer)
    state = {"phase": "setup", "pass_index": 0}
    try:
        with tracer.span(f"function:{function.name}", cat="function",
                         method=strategy.name):
            return _run_cycle(
                function, target, strategy, coalesce, renumber,
                rematerialize, split_ranges, validate, paranoia, tracer,
                state,
            )
    except AllocationError as error:
        raise error.with_context(
            function=function.name,
            method=strategy.name,
            phase=state["phase"],
            pass_index=state["pass_index"],
        )


def _run_cycle(function, target, strategy, coalesce, renumber,
               rematerialize, split_ranges, validate, paranoia, tracer,
               state) -> AllocationResult:
    """The Figure-4 cycle itself — the body of :func:`allocate_function`,
    split out so the tracer's span hierarchy nests at plain indentation.
    ``state`` carries the phase/pass a failure happened in back to the
    caller's error-context handler."""
    stats = AllocationStats(strategy.name, function.name)
    assignment: dict = {}

    phase = "setup"
    pass_index = 0
    try:
        if split_ranges:
            from repro.regalloc.splitting import split_live_ranges

            phase = "split"
            with tracer.span("split", cat="phase"):
                split_live_ranges(function, target)

        coalesce_strategy = coalesce if isinstance(coalesce, str) else "aggressive"
        # Cross-pass caches.  Spill code never adds or removes blocks and
        # never rewrites terminators, so the CFG and loop nesting computed
        # in the first pass hold for every later one.
        cfg = None
        loop_info = None
        # Renumber/coalesce fixed point (see module docstring).  The two
        # feed each other — a split can expose a merge and vice versa — so
        # both are skipped only once a single pass observed *neither*
        # doing anything.  Spill code cannot disturb that state (spill
        # temporaries are excluded from both transforms), except through
        # the conservative coalescer's degree test, which is why only the
        # aggressive strategy settles.
        build_settled = False

        for pass_index in range(1, MAX_PASSES + 1):
            with tracer.span(f"pass:{pass_index}", cat="pass"):
                pass_stats = PassStats(pass_index)
                stats.passes.append(pass_stats)
                reused: list = []
                # The graphs of coalescing's last, quiet round.
                handed_over: dict = {}

                # ---- build -----------------------------------------------
                phase = "build"
                started = time.perf_counter()
                with tracer.span("build", cat="phase"):
                    if renumber:
                        if build_settled:
                            reused.append("renumber")
                        else:
                            with tracer.span("renumber", cat="step"):
                                pass_stats.webs_split = split_webs(function)
                    if coalesce:
                        if build_settled:
                            reused.append("coalesce")
                        else:
                            with tracer.span("coalesce", cat="step"):
                                pass_stats.coalesced = coalesce_copies(
                                    function, target,
                                    strategy=coalesce_strategy,
                                    graphs_out=handed_over,
                                )
                    if not build_settled:
                        coalesce_quiet = not coalesce or (
                            pass_stats.coalesced == 0
                            and coalesce_strategy == "aggressive"
                        )
                        if pass_stats.webs_split == 0 and coalesce_quiet:
                            build_settled = True
                    if cfg is None:
                        cfg = CFG(function)
                    else:
                        reused.append("cfg")
                    if loop_info is None:
                        loop_info = annotate_loop_depths(function, cfg)
                    else:
                        reused.append("loops")
                    if handed_over:
                        graphs = handed_over
                        reused.append("interference")
                    else:
                        with tracer.span("liveness", cat="step"):
                            liveness = Liveness(function, cfg)
                        with tracer.span("interference", cat="step"):
                            graphs = build_interference_graphs(
                                function, target, liveness,
                                rclasses=_CLASSES,
                            )
                    pass_stats.reused = tuple(reused)
                    with tracer.span("spill_costs", cat="step"):
                        costs = compute_spill_costs(function, loop_info)
                    pass_stats.live_ranges = sum(
                        g.num_vreg_nodes for g in graphs.values()
                    )
                    pass_stats.edges = sum(
                        g.edge_count() for g in graphs.values()
                    )
                pass_stats.build_time = time.perf_counter() - started
                if tracer.enabled:
                    tracer.counter("live_ranges", pass_stats.live_ranges)
                    tracer.counter("edges", pass_stats.edges)
                    tracer.counter("max_degree", max(
                        (
                            g.degree(node)
                            for g in graphs.values()
                            for node in range(g.k, g.num_nodes)
                        ),
                        default=0,
                    ))
                    tracer.add("coalesced", pass_stats.coalesced)
                    tracer.add("webs_split", pass_stats.webs_split)
                    tracer.add("reuse_hits", len(reused))
                if paranoia != "off":
                    with tracer.span("invariants", cat="step",
                                     level=paranoia) as inv_span:
                        for graph in graphs.values():
                            check_graph_invariants(graph, paranoia)
                            check_cost_invariants(graph, costs)
                    tracer.add("invariant_check_time", inv_span.elapsed)

                # ---- simplify + select -----------------------------------
                phase = "color"
                spilled_vregs: list = []
                class_colors: dict = {}
                with tracer.span("color", cat="phase"):
                    for rclass in _CLASSES:
                        graph = graphs[rclass]
                        if graph.num_vreg_nodes == 0:
                            continue  # this class is absent here
                        outcome = strategy.allocate_class(
                            graph, costs, target.color_order(rclass),
                            tracer=tracer,
                        )
                        if paranoia != "off":
                            with tracer.span("invariants", cat="step",
                                             level=paranoia) as inv_span:
                                check_class_invariants(
                                    graph, outcome,
                                    target.color_order(rclass), paranoia,
                                )
                            tracer.add("invariant_check_time",
                                       inv_span.elapsed)
                        pass_stats.simplify_time += outcome.simplify_time
                        pass_stats.select_time += outcome.select_time
                        if outcome.ran_select:
                            pass_stats.ran_select = True
                        spilled_vregs.extend(outcome.spilled_vregs)
                        class_colors.update(outcome.colors)

                if not spilled_vregs:
                    assignment = class_colors
                    break

                # ---- spill -----------------------------------------------
                phase = "spill"
                pass_stats.spilled_count = len(spilled_vregs)
                pass_stats.spilled_cost = sum(
                    costs.cost(v) for v in spilled_vregs
                )
                if tracer.enabled:
                    tracer.counter("spilled", pass_stats.spilled_count)
                    tracer.add("spill_cost", pass_stats.spilled_cost)
                started = time.perf_counter()
                with tracer.span("spill", cat="phase",
                                 spilled=pass_stats.spilled_count):
                    insert_spill_code(
                        function, spilled_vregs, rematerialize=rematerialize
                    )
                pass_stats.spill_time = time.perf_counter() - started
        else:
            raise AllocationError(
                f"{function.name}: no coloring after {MAX_PASSES} passes "
                f"({strategy.name}, target {target.name})",
                context={"phase": "driver"},
            )

        result = AllocationResult(
            function, target, strategy.name, assignment, stats,
            graphs=graphs if paranoia != "off" else None,
        )
        if validate:
            phase = "validate"
            with tracer.span("validate", cat="phase"):
                check_allocation(result)
        return result
    except AllocationError:
        state["phase"] = phase
        state["pass_index"] = pass_index
        raise


def check_allocation(result: AllocationResult) -> None:
    """Independently verify the final coloring.

    Rebuilds liveness and interference on the final code and asserts:
    every occurring register has a color within its class's file; no two
    interfering registers share a color; nothing live across a call holds
    a caller-saved register.
    """
    function = result.function
    target = result.target
    assignment = result.assignment
    try:
        liveness = Liveness(function, CFG(function))

        occurring = set()
        for _block, _index, instr in function.instructions():
            occurring.update(instr.defs)
            occurring.update(instr.uses)
        for vreg in occurring:
            color = assignment.get(vreg)
            if color is None:
                raise AllocationError(f"{vreg!r} occurs but has no color")
            if not 0 <= color < target.regs(vreg.rclass):
                raise AllocationError(
                    f"{vreg!r} colored {color}, outside the "
                    f"{target.regs(vreg.rclass)}-register file"
                )

        for rclass in _CLASSES:
            graph = build_interference_graph(
                function, rclass, target, liveness
            )
            for node in range(graph.k, graph.num_nodes):
                vreg = graph.vreg_for(node)
                for neighbor in graph.neighbors(node):
                    if neighbor < graph.k:
                        if assignment[vreg] == neighbor:
                            raise AllocationError(
                                f"{vreg!r} colored {assignment[vreg]} but "
                                f"interferes with that physical register"
                            )
                    elif neighbor > node:
                        other = graph.vreg_for(neighbor)
                        if assignment[vreg] == assignment[other]:
                            raise AllocationError(
                                f"{vreg!r} and {other!r} interfere but "
                                f"share color {assignment[vreg]}"
                            )
    except AllocationError as error:
        raise error.with_context(
            function=function.name, method=result.method, phase="validate"
        )


class ModuleAllocation:
    """Per-function results plus the merged assignment the simulator and
    encoder consume.

    ``failures`` holds one :class:`AllocationFailure` per function whose
    allocation did not complete normally (only possible under a
    non-raising :class:`FailurePolicy`); ``parallel_fallback`` records
    why a requested parallel allocation ran serially instead (``None``
    when it ran as requested).
    """

    __slots__ = (
        "module",
        "target",
        "method",
        "results",
        "assignment",
        "failures",
        "parallel_fallback",
    )

    def __init__(self, module, target, method, results, failures=None,
                 parallel_fallback=None):
        self.module = module
        self.target = target
        self.method = method
        self.results = results  # name -> AllocationResult
        self.failures = list(failures or [])
        self.parallel_fallback = parallel_fallback
        self.assignment = {}
        for result in results.values():
            self.assignment.update(result.assignment)

    def result(self, name: str) -> AllocationResult:
        return self.results[name]

    def total_spilled(self) -> int:
        return sum(r.stats.registers_spilled for r in self.results.values())

    def failed_functions(self) -> list:
        return [failure.function for failure in self.failures]

    def __repr__(self) -> str:
        failed = f", {len(self.failures)} failed" if self.failures else ""
        return (
            f"ModuleAllocation({self.method}, {len(self.results)} functions, "
            f"{self.total_spilled()} spilled{failed})"
        )


def _fresh_copy(function: Function) -> Function:
    """An independent deep copy (a pickle round trip) so retries start
    from pristine IR."""
    return pickle.loads(pickle.dumps(function))


def _write_bundle(function, target, method_name, error, bundle_dir):
    """Best-effort crash-bundle dump; never masks the original failure."""
    if bundle_dir is None:
        return None
    try:
        from repro.robustness.bundles import write_crash_bundle

        return str(
            write_crash_bundle(
                function, target, error, out_dir=bundle_dir,
                method=method_name,
            )
        )
    except Exception as bundle_error:
        warnings.warn(
            f"could not write crash bundle for {function.name}: "
            f"{bundle_error!r}",
            RuntimeWarning,
        )
        return None


def _handle_failure(function, target, method_name, error, policy, failures,
                    bundle_dir, elapsed, retries, phase):
    """Record one function's failure and apply ``policy``.

    Returns the substitute :class:`AllocationResult` under ``DEGRADE``,
    ``None`` under ``SKIP``; re-raises under ``RAISE``.
    """
    if isinstance(error, ReproError):
        error.with_context(function=function.name, method=method_name,
                           phase=phase)
        pass_index = error.context.get("pass_index")
    else:
        pass_index = None
    bundle = _write_bundle(function, target, method_name, error, bundle_dir)
    action = {
        FailurePolicy.RAISE: "raised",
        FailurePolicy.DEGRADE: "degraded-to-naive",
        FailurePolicy.SKIP: "skipped",
    }[policy]
    failures.append(
        AllocationFailure(
            function=function.name,
            method=method_name,
            phase=phase,
            pass_index=pass_index,
            error=error,
            elapsed=elapsed,
            retries=retries,
            action=action,
            bundle=bundle,
        )
    )
    if policy is FailurePolicy.RAISE:
        raise error
    warnings.warn(
        f"allocation of {function.name} ({method_name}) failed in {phase}: "
        f"{error!r}; {action}",
        RuntimeWarning,
    )
    if policy is FailurePolicy.DEGRADE:
        # Spill-all needs almost no registers, so it succeeds wherever a
        # coloring allocator can fail; validate=True proves the downgrade
        # itself is sound.  A partially spill-rewritten function is fine
        # as input — spill code preserves semantics.
        try:
            return allocate_function(
                function, target, "spill-all", validate=True
            )
        except AllocationError as degrade_error:
            # The target is too small even for the no-coloring baseline
            # (e.g. fewer registers than one instruction's operands need).
            # The only non-raising floor left is skip — on record, twice:
            # the original failure's action is corrected and the failed
            # downgrade gets its own entry.
            failures[-1].action = "skipped"
            failures.append(
                AllocationFailure(
                    function=function.name,
                    method="spill-all",
                    phase=degrade_error.context.get("phase", "degrade"),
                    pass_index=degrade_error.context.get("pass_index"),
                    error=degrade_error,
                    elapsed=0.0,
                    retries=0,
                    action="skipped",
                    bundle=bundle,
                )
            )
            warnings.warn(
                f"degrade-to-naive for {function.name} also failed: "
                f"{degrade_error!r}; skipped",
                RuntimeWarning,
            )
            return None
    return None


def _apply_poison(checkpoint, function, module, target, method_name,
                  policy, failures, bundle_dir, results):
    """Convert a supervisor ``poison`` verdict (the function repeatedly
    blew the child's memory budget) into a contained per-function
    failure under ``policy``, journaling the outcome so later resumes
    replay the decision.  Returns ``True`` when the function was
    poisoned and is now fully handled."""
    reason = checkpoint.poison_reason(function)
    if reason is None:
        return False
    from repro.durability.checkpoint import function_key
    from repro.errors import MemoryBudgetError

    error = MemoryBudgetError(
        f"allocation of {function.name} repeatedly exceeded the "
        f"supervisor's memory budget ({reason})",
        context={"function": function.name},
    )
    key = function_key(function)
    before = len(failures)
    result = _handle_failure(
        function, target, method_name, error, policy, failures,
        bundle_dir, elapsed=0.0, retries=0, phase="memory-budget",
    )
    checkpoint.mark_failures(key, function.name, failures[before:],
                             substitute=result)
    if result is not None:
        module.functions[function.name] = result.function
        results[function.name] = result
    return True


def _serial_retry(function, target, method, kwargs, retries):
    """Re-attempt a crashed worker's function in-process, each time on a
    fresh copy so earlier partial spill rewrites cannot compound.

    Returns ``(result, attempts, last_error)`` — ``result`` is ``None``
    when every attempt failed.
    """
    last_error = None
    for attempt in range(1, retries + 1):
        copy = _fresh_copy(function)
        try:
            return allocate_function(copy, target, method, **kwargs), attempt, None
        except Exception as error:  # KeyboardInterrupt deliberately flows
            last_error = error
    return None, retries, last_error


def _parallel_results(module, functions, target, method, kwargs, jobs,
                      timeout, retries, policy, bundle_dir, failures,
                      tracer=NULL_TRACER, cache=True, checkpoint=None):
    """Allocate ``functions`` over the persistent worker pool.

    Each function travels to the warm pool (:mod:`repro.regalloc.pool`)
    as compact wire text, one task per function, submitted largest
    first; responses carry the allocated function's wire text plus the
    assignment and stats, and the parent decodes and swaps the allocated
    copies into the module so every downstream consumer (simulator,
    encoder) sees one consistent object graph.  With ``cache`` (and a
    string method name, tracing off), finished responses are stored
    content-addressed and replayed on identical requests without
    dispatching at all.

    Failure handling is *per function*: a crashed worker is retried
    in-process up to ``retries`` times; a function whose response takes
    longer than ``timeout`` is abandoned and the wedged pool restarted
    (terminated, respawned lazily — a hung process cannot outlive the
    call); whatever still fails goes through ``policy``.  Returns
    ``(results, reason)`` where ``results`` is ``None`` only when the
    pool cannot be used at all (non-picklable strategy or target) — that
    reason is recorded, warned about, and the caller runs the whole
    module serially.
    """
    import multiprocessing

    from repro.regalloc import pool as pool_mod

    try:
        pickle.dumps((method, target))
    except Exception as error:
        reason = (
            f"parallel allocation (jobs={jobs}) fell back to serial: "
            f"method/target not picklable ({error!r})"
        )
        warnings.warn(reason, RuntimeWarning)
        return None, reason

    method_name = _method_for(method).name
    results: dict = {}
    cacheable = cache and isinstance(method, str) and not tracer.enabled
    workers = pool_mod.resolve_jobs(jobs, len(functions))

    def collect(function, started, ckpt_key, response=None, error=None,
                phase="worker-crash"):
        """Put one function's outcome into ``results``: a ``response``
        is materialized; an ``error`` from a crashed worker gets the
        in-process retry and then ``policy``; a ``worker-timeout`` error
        goes straight to ``policy``, since retrying a hang in process
        would wedge the parent.  With a checkpoint attached, the outcome
        — success, absorbed failure, degraded substitute — is journaled
        so a killed process resumes from it."""
        before = len(failures)
        if error is None:
            result, snapshot = pool_mod.materialize_response(
                response, target, method_name
            )
            if snapshot is not None:
                tracer.absorb(snapshot)
        else:
            result, attempts = None, 0
            if phase == "worker-crash":
                result, attempts, retry_error = _serial_retry(
                    function, target, method, kwargs, retries
                )
                error = retry_error or error
            if result is None:
                result = _handle_failure(
                    function, target, method_name, error, policy, failures,
                    bundle_dir, elapsed=time.perf_counter() - started,
                    retries=attempts, phase=phase,
                )
        if result is not None:
            module.functions[result.function.name] = result.function
            results[result.function.name] = result
        if ckpt_key is not None:
            new_failures = failures[before:]
            if new_failures:
                checkpoint.mark_failures(
                    ckpt_key, function.name, new_failures,
                    substitute=result,
                )
            elif error is None:
                checkpoint.mark_response(ckpt_key, function.name, response)
            else:  # a retry recovered the crash in process
                checkpoint.mark_result(ckpt_key, result)

    # Requests: (function, wire text, cache key or None).  Journal
    # replays and cache hits are materialized immediately; only misses
    # reach the pool.
    dispatch = []
    for function in functions:
        if checkpoint is not None:
            if checkpoint.replay(function, module, results, failures):
                continue
            if _apply_poison(checkpoint, function, module, target,
                             method_name, policy, failures, bundle_dir,
                             results):
                continue
        wire_text = pool_mod.encode_request(function)
        key = (
            pool_mod.cache_key(wire_text, target, method, kwargs)
            if cacheable else None
        )
        hit = pool_mod.RESPONSE_CACHE.get(key)
        if hit is not None:
            ckpt_key = (
                checkpoint.mark_start(function) if checkpoint is not None
                else None
            )
            collect(function, time.perf_counter(), ckpt_key, response=hit)
        else:
            dispatch.append((function, wire_text, key))

    if not dispatch:
        # Everything replayed (journal) or hit the cache — do not spin
        # up (or warm) a pool just to dispatch nothing.
        ordered = {
            function.name: results[function.name]
            for function in functions if function.name in results
        }
        return ordered, None

    pool = pool_mod.get_pool(workers)
    # Largest first (wire size tracks allocation work; the sort is
    # stable, so ties keep module order): the pool's FIFO queue then
    # starts the long functions first.
    dispatch.sort(key=lambda item: len(item[1]), reverse=True)
    # Start records go down *before* dispatch — a kill between here and
    # collection re-executes exactly the in-flight functions — and the
    # worker pids are journaled after it so the torture harness can
    # prove no worker outlives a killed parent.
    ckpt_keys = [
        checkpoint.mark_start(function) if checkpoint is not None else None
        for function, _text, _key in dispatch
    ]
    # The trace flag doubles as correlation: a service-stamped trace id
    # rides along so worker-lane spans carry the request that caused
    # them (workers only truth-test it, so the bool behavior is intact).
    trace_flag = tracer.enabled and (
        getattr(tracer, "trace_id", None) or True
    )
    pending = [
        pool.submit(text, target, method, kwargs, trace_flag)
        for _function, text, _key in dispatch
    ]
    if checkpoint is not None:
        checkpoint.mark_workers(pool.worker_pids())
    wedged = False
    try:
        for (function, _text, key), ckpt_key, async_result in zip(
                dispatch, ckpt_keys, pending):
            started = time.perf_counter()
            try:
                response = async_result.get(timeout)
            except KeyboardInterrupt:
                wedged = True
                raise
            except multiprocessing.TimeoutError:
                # A worker is wedged in a non-terminating allocation;
                # the pool is restarted on the way out.
                wedged = True
                error = DriverTimeoutError(
                    f"allocation of {function.name} exceeded "
                    f"{timeout:g}s in a worker",
                    context={"function": function.name, "timeout": timeout},
                )
                collect(function, started, ckpt_key, error=error,
                        phase="worker-timeout")
            except Exception as error:
                # The allocation raised in the worker, or its response
                # could not be pickled back.
                collect(function, started, ckpt_key, error=error)
            else:
                pool_mod.RESPONSE_CACHE.put(key, response)
                collect(function, started, ckpt_key, response=response)
    finally:
        if wedged:
            pool.restart()
    # Module order, independent of dispatch order.
    ordered = {
        function.name: results[function.name]
        for function in functions if function.name in results
    }
    return ordered, None


def allocate_module(
    module: Module,
    target: Target,
    method="briggs",
    coalesce=True,
    renumber: bool = True,
    rematerialize: bool = False,
    split_ranges: bool = False,
    validate: bool = False,
    paranoia: str = "off",
    jobs: int = 1,
    policy="raise",
    timeout: float | None = None,
    retries: int = 1,
    bundle_dir=None,
    tracer=None,
    cache: bool = True,
    journal=None,
    resume: bool = True,
) -> ModuleAllocation:
    """Allocate every function of a module (in place).

    ``jobs`` > 1 allocates functions concurrently over the persistent
    worker pool (:mod:`repro.regalloc.pool`) — functions are
    independent, so the outcome is identical to the serial path
    (``jobs=1``), just cheaper to repeat: the pool is warmed once per
    process, requests travel as compact wire text, and with ``cache``
    (the default) finished responses are replayed content-addressed on
    identical requests.  ``jobs=0`` auto-detects one worker per CPU,
    clamped to the number of functions.  Non-picklable strategy objects
    fall back to serial allocation, with the reason recorded on
    :attr:`ModuleAllocation.parallel_fallback`.

    ``paranoia`` enables phase-boundary invariant checking in every
    function's cycle (see :mod:`repro.regalloc.invariants`).

    ``policy`` (a :class:`FailurePolicy` or its string value) decides what
    happens when one function's allocation fails; the default ``"raise"``
    propagates.  ``timeout`` bounds each worker (seconds); because only
    the pool's watchdog can reclaim a non-terminating allocation, any
    ``timeout`` routes the module through the worker pool — even a
    single-function module, even ``jobs=1`` — so the bound is enforced
    rather than advisory.  ``retries`` bounds in-process re-attempts
    after a worker crash.
    ``bundle_dir`` enables deterministic crash bundles
    (``<bundle_dir>/crash-<function>/``) for every recorded failure.

    ``tracer`` records a ``module:<name>`` span enclosing every
    function's span tree; under ``jobs > 1`` each worker traces into its
    own buffer and the parent merges them, one trace lane per worker
    process (see :mod:`repro.observability.trace`).

    ``journal`` (a path or :class:`repro.durability.Journal`) makes the
    allocation **durable**: every function's outcome is appended to a
    crash-safe write-ahead journal as it completes, and with ``resume``
    (the default) a journal left behind by a killed process replays its
    completed functions bit-identically instead of re-executing them —
    see :mod:`repro.durability.checkpoint`.  A journal written under a
    different configuration (target, method, flags) is reset, not
    reused.  Journaling requires a string method name (strategy objects
    may be stateful, so their outcomes must not be replayed); passing
    one disables the journal with a warning.
    """
    policy = FailurePolicy.coerce(policy)
    tracer = coerce_tracer(tracer)
    kwargs = {
        "coalesce": coalesce,
        "renumber": renumber,
        "rematerialize": rematerialize,
        "split_ranges": split_ranges,
        "validate": validate,
        "paranoia": coerce_paranoia(paranoia),
    }
    method_name = _method_for(method).name
    functions = list(module)
    if jobs != 1:
        from repro.regalloc.pool import resolve_jobs

        jobs = resolve_jobs(jobs, max(1, len(functions)))
    failures: list = []
    results = None
    fallback_reason = None
    checkpoint = None
    owned_journal = None
    if journal is not None:
        if not isinstance(method, str):
            warnings.warn(
                "journaling disabled: method is a strategy object, and "
                "a stateful strategy's outcomes must not be replayed",
                RuntimeWarning,
            )
        else:
            from repro.durability.checkpoint import Checkpoint
            from repro.durability.journal import coerce_journal

            journal_obj = coerce_journal(journal)
            if journal_obj is not journal:
                owned_journal = journal_obj
            checkpoint = Checkpoint(
                journal_obj, target, method_name, kwargs,
                resume=resume, tracer=tracer,
            )
    # A timeout can only be enforced from *outside* the allocation: the
    # pool watchdog abandons a wedged function and restarts the workers,
    # while the in-process serial path has no way to interrupt a
    # non-terminating strategy.  So a timeout forces the pool path even
    # for one function or jobs=1 — otherwise the caller's deadline would
    # silently not exist exactly when it matters most (a hang).
    use_pool = bool(functions) and (
        (jobs > 1 and len(functions) > 1) or timeout is not None
    )
    try:
        with tracer.span(f"module:{module.name}", cat="module",
                         method=method_name, jobs=jobs):
            if use_pool:
                results, fallback_reason = _parallel_results(
                    module, functions, target, method, kwargs, jobs,
                    timeout, retries, policy, bundle_dir, failures,
                    tracer=tracer, cache=cache, checkpoint=checkpoint,
                )
            if results is None:
                results = {}
                for function in functions:
                    ckpt_key = None
                    if checkpoint is not None:
                        if checkpoint.replay(function, module, results,
                                             failures):
                            continue
                        if _apply_poison(checkpoint, function, module,
                                         target, method_name, policy,
                                         failures, bundle_dir, results):
                            continue
                        ckpt_key = checkpoint.mark_start(function)
                    started = time.perf_counter()
                    before = len(failures)
                    try:
                        result = allocate_function(
                            function, target, method, tracer=tracer,
                            **kwargs
                        )
                    except Exception as error:
                        # Not just AllocationError: a crashing *strategy*
                        # (injected faults, third-party heuristics) raises
                        # whatever it likes, and the policy must absorb it
                        # on the serial path exactly as the pool does for
                        # worker crashes — same program, same strategy,
                        # same outcome regardless of ``jobs``.
                        phase = "allocate"
                        if isinstance(error, ReproError):
                            phase = error.context.get("phase", "allocate")
                        result = _handle_failure(
                            function, target, method_name, error, policy,
                            failures, bundle_dir,
                            elapsed=time.perf_counter() - started,
                            retries=0,
                            phase=phase,
                        )
                    if result is not None:
                        results[function.name] = result
                    if checkpoint is not None:
                        new_failures = failures[before:]
                        if new_failures:
                            checkpoint.mark_failures(
                                ckpt_key, function.name, new_failures,
                                substitute=results.get(function.name),
                            )
                        elif result is not None:
                            checkpoint.mark_result(ckpt_key, result)
    finally:
        if owned_journal is not None:
            owned_journal.close()
    return ModuleAllocation(
        module, target, method_name, results,
        failures=failures, parallel_fallback=fallback_reason,
    )
