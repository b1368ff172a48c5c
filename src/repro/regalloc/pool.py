"""Persistent warm worker pool: the parallel driver's transport layer.

PR 1's parallel driver created a process pool inside every
``allocate_module`` call and pickled whole :class:`~repro.ir.function
.Function` objects both ways.  On the benchmark workloads the spawn plus
the pickling cost more than the coloring itself — BENCH_PR1/PR5 both
show ``jobs=2`` ~1.7x *slower* than serial.  This module replaces that
per-call machinery with three pieces:

* **a persistent pool** (:class:`WorkerPool`, obtained via
  :func:`get_pool`) that is created lazily on first use, warms its
  workers by importing the allocator stack once
  (:func:`_warm_worker`), and is reused by every subsequent
  ``allocate_module`` call in the process.  Pools are torn down at
  interpreter exit (``atexit``), explicitly via :func:`shutdown_pools`,
  or per-instance via the context-manager protocol.  A pool whose worker
  wedged past its timeout is **restarted** (terminated and lazily
  respawned), never joined — a hung allocation cannot outlive the call
  that abandoned it.

* **a compact wire transport** — requests carry functions as
  :mod:`repro.ir.wire` text (~4.3x smaller than pickle on the registry
  suite, and faster to encode) and responses carry only what the parent
  needs to rebuild an :class:`~repro.regalloc.driver.AllocationResult`:
  the allocated function's wire text, the assignment keyed by stable
  vreg ids, the stats object, and the worker's tracer snapshot.  Whole
  ``Function`` objects never cross the boundary.  The one exception is
  ``paranoia != "off"``, where the result must keep its final-pass
  interference graphs for :func:`repro.regalloc.invariants
  .recheck_assignment`; graphs reference the worker's vreg objects, and
  vreg equality is identity, so the function, assignment, graphs, and
  stats ship as one pickle blob whose internal identities stay
  consistent.

* **one task per function** — the driver submits each function as its
  own pool task, largest first (by wire size, a faithful proxy for
  allocation work), so the pool's FIFO queue starts the long functions
  first and hands the rest to whichever worker frees up.  A worker's
  exception travels back through the task's ``AsyncResult``, and the
  driver's ``timeout`` bounds each function's own wait.

On top of the transport sits a **content-addressed response cache**
(:class:`ResponseCache`): the request wire text *is* a canonical digest
of the function, so ``(wire text, target, method, kwargs)`` keys a
finished allocation response.  A hit replays the worker's response
without dispatching — decoding materializes a fresh object graph each
time, so replays are indistinguishable from a live worker round trip
and remain bit-identical to serial allocation.  The cache is the first
concrete step toward the ROADMAP's allocation-as-a-service direction,
and it only ever sees hashable, deterministic inputs: string method
names (never stateful strategy objects) with tracing disabled.  The
serial path is deliberately left uncached — it is the reference
implementation every parallel result is compared against.

Faults stay per function end to end: a crash fails only its own
function's task (never the pool), a timeout is charged to the one
function that exceeded it and terminates the wedged pool, and the
driver's in-process retry and
:class:`~repro.regalloc.driver.FailurePolicy` handling sit above this
layer.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import threading
from collections import OrderedDict

from repro.ir.wire import decode_function, encode_function

__all__ = [
    "WorkerPool",
    "ResponseCache",
    "RESPONSE_CACHE",
    "get_pool",
    "shutdown_pools",
    "active_pools",
    "resolve_jobs",
    "encode_request",
    "cache_key",
    "materialize_response",
    "restart_pools",
    "install_signal_teardown",
]


# ----------------------------------------------------------------------
# Job-count resolution
# ----------------------------------------------------------------------


def resolve_jobs(jobs: int, eligible: int) -> int:
    """The worker count for ``jobs`` over ``eligible`` functions.

    ``jobs == 0`` auto-detects one worker per CPU — except on a 1-core
    box, where it answers 1 (serial): BENCH_PR6's honest
    ``alloc_registry_all_jobs2_nocache`` row shows pooled dispatch
    without real cores ~1.25x *slower* than serial, so auto-detect must
    never pick the pool there.  An explicit ``jobs >= 2`` still forces
    pooled dispatch (parity tests and timeout enforcement rely on it).
    Either way the count is clamped to the number of eligible functions
    — a module with two functions never spawns eight workers that would
    sit idle (the pre-PR-6 auto-detect path skipped the clamp).
    """
    if jobs < 0:
        from repro.errors import AllocationError

        raise AllocationError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        cpus = os.cpu_count() or 1
        if cpus <= 1:
            return 1
        jobs = cpus
    return max(1, min(jobs, eligible))


# ----------------------------------------------------------------------
# Request encoding
# ----------------------------------------------------------------------


def encode_request(function) -> str:
    """The wire text shipped to a worker for one function."""
    return encode_function(function)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _bind_to_parent_death(poll_interval: float = 0.5) -> None:
    """SIGKILL this worker once its parent *process* dies.  The normal
    teardown paths — atexit, ``install_signal_teardown`` — cannot run
    when the parent is SIGKILLed; this is the floor under the
    durability contract that no worker outlives its parent.

    Deliberately NOT ``PR_SET_PDEATHSIG``: that fires when the parent
    *thread* that forked the worker exits, so a pool created from an
    executor thread (the allocation service does exactly this) would
    have its idle workers SIGKILLed at executor shutdown while they
    hold the task-queue lock — deadlocking the pool's own terminate.
    A ppid watch only trips on real parent death (re-parenting)."""
    parent = os.getppid()
    if parent <= 1:  # already orphaned before we could watch
        os.kill(os.getpid(), signal.SIGKILL)

    def watch() -> None:
        import time

        while True:
            if os.getppid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(poll_interval)

    threading.Thread(target=watch, daemon=True,
                     name="parent-death-watch").start()


def _warm_worker() -> None:
    """Pool initializer: pay every allocator import once, at warm-up,
    instead of on the first dispatched function."""
    _bind_to_parent_death()
    import repro.regalloc.driver  # noqa: F401
    import repro.regalloc.briggs  # noqa: F401
    import repro.regalloc.chaitin  # noqa: F401
    import repro.analysis.liveness  # noqa: F401


def _allocate_one(wire_text, target, method, kwargs, trace):
    """Pool entry point: allocate one wire-encoded function; returns a
    response tuple (an exception reaches the parent through the task's
    ``AsyncResult``).

    * ``("wire", text, {vreg_id: color}, stats, snapshot)`` — the normal
      transport: the allocated function re-encoded, the assignment keyed
      by stable vreg ids.
    * ``("pickle", blob, snapshot)`` — the ``paranoia`` transport: the
      retained interference graphs share vreg identities with the
      function and assignment, so all four travel in one blob.

    ``trace`` is falsy (no tracing), ``True``, or a request trace-id
    string: the service threads its per-request id through dispatch so
    worker-lane spans in the merged trace carry the id that caused them.
    """
    from repro.observability.trace import Tracer
    from repro.regalloc.driver import allocate_function

    function = decode_function(wire_text)
    tracer = None
    if trace:
        tracer = Tracer()
        if isinstance(trace, str):
            tracer.trace_id = trace
            tracer.instant("trace-id", cat="meta", trace_id=trace)
    result = allocate_function(function, target, method, tracer=tracer,
                               **kwargs)
    return encode_result_response(
        result, tracer.snapshot() if trace else None)


# ----------------------------------------------------------------------
# Parent side: response materialization
# ----------------------------------------------------------------------


def materialize_response(response, target, method_name):
    """Rebuild ``(AllocationResult, trace_snapshot)`` from a worker
    response.  Decoding creates a fresh object graph every call, so the
    same (possibly cached) response can be materialized repeatedly."""
    from repro.regalloc.driver import AllocationResult

    kind = response[0]
    if kind == "pickle":
        _kind, blob, snapshot = response
        function, assignment, stats, graphs = pickle.loads(blob)
        return (
            AllocationResult(function, target, method_name, assignment,
                             stats, graphs=graphs),
            snapshot,
        )
    _kind, wire_text, colors, stats, snapshot = response
    function = decode_function(wire_text)
    by_id = {vreg.id: vreg for vreg in function.vregs}
    assignment = {by_id[vid]: color for vid, color in colors.items()}
    return (
        AllocationResult(function, target, method_name, assignment, stats),
        snapshot,
    )


def encode_result_response(result, snapshot=None):
    """The response tuple for an :class:`AllocationResult` — what
    ``_allocate_one`` ships back from a worker, and what the durability
    journal records for serial-path completions, so both replay through
    :func:`materialize_response` bit-identically.  ``snapshot`` is the
    worker's trace snapshot, ``None`` when untraced."""
    if result.graphs is not None:
        blob = pickle.dumps(
            (result.function, result.assignment, result.stats, result.graphs)
        )
        return ("pickle", blob, snapshot)
    colors = {vreg.id: color for vreg, color in result.assignment.items()}
    return ("wire", encode_function(result.function), colors, result.stats,
            snapshot)


# ----------------------------------------------------------------------
# Content-addressed response cache
# ----------------------------------------------------------------------


def _target_key(target) -> tuple:
    return (
        target.name,
        target.int_regs,
        target.float_regs,
        tuple(sorted(target.int_caller_saved)),
        tuple(sorted(target.float_caller_saved)),
    )


def cache_key(wire_text, target, method, kwargs):
    """The content address of one allocation request, or ``None`` when
    the request is not cacheable (a strategy *object* may be stateful —
    fault injectors deliberately are — so only string method names
    qualify)."""
    if not isinstance(method, str):
        return None
    return (
        wire_text,
        _target_key(target),
        method,
        tuple(sorted(kwargs.items())),
    )


class ResponseCache:
    """A bounded LRU over worker responses, keyed by content address,
    with an optional checksummed disk tier behind it.

    Responses are stored as the re-pickled tuple, not live objects:
    replaying a hit unpickles a fresh stats object (and the wire text
    decodes to a fresh function), so no two
    :class:`~repro.regalloc.driver.AllocationResult` instances ever
    share mutable state through the cache.

    With a disk tier attached (:meth:`attach_disk`, a
    :class:`repro.regalloc.diskcache.DiskCache`), memory misses fall
    through to disk and every store writes through — warm starts then
    survive process restarts.  The disk tier verifies a checksum on
    every read and quarantines damaged entries, so a corrupt or torn
    file costs a recompute, never a wrong replay.  All tiers are
    lock-protected: the allocation service dispatches from multiple
    threads onto one process-global cache.
    """

    def __init__(self, limit: int = 256, disk=None):
        self.limit = limit
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk = disk
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def attach_disk(self, root, **kwargs):
        """Attach (and return) a disk tier rooted at ``root``."""
        from repro.regalloc.diskcache import DiskCache

        with self._lock:
            self.disk = DiskCache(root, **kwargs)
            return self.disk

    def detach_disk(self) -> None:
        with self._lock:
            self.disk = None

    def get(self, key):
        if key is None:
            return None
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return pickle.loads(blob)
            self.misses += 1
            disk = self.disk
        if disk is None:
            return None
        blob = disk.get(key)
        if blob is None:
            return None
        self.disk_hits += 1
        with self._lock:
            self._store(key, blob)
        return pickle.loads(blob)

    def put(self, key, response) -> None:
        if key is None:
            return
        blob = pickle.dumps(response)
        with self._lock:
            self._store(key, blob)
            disk = self.disk
        if disk is not None:
            disk.put(key, blob)

    def _store(self, key, blob) -> None:
        self._entries[key] = blob
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def drop_memory(self) -> None:
        """Empty only the memory tier, keeping counters and any disk
        tier — the next lookup replays the warm-start path through the
        verified disk read.  The chaos harness uses this to simulate a
        restarted process facing a damaged cache directory."""
        with self._lock:
            self._entries.clear()

    def clear(self) -> None:
        """Empty the memory tier, reset counters, and detach any disk
        tier (files on disk are left alone — reattach to reuse them)."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.disk_hits = 0
            self.disk = None

    def stats(self) -> dict:
        stats = {
            "entries": len(self._entries),
            "limit": self.limit,
            "hits": self.hits,
            "misses": self.misses,
        }
        if self.disk is not None:
            stats["disk_hits"] = self.disk_hits
            stats["disk"] = self.disk.stats()
        return stats


#: The process-wide response cache shared by every pool dispatch.
RESPONSE_CACHE = ResponseCache()


# ----------------------------------------------------------------------
# The persistent pool
# ----------------------------------------------------------------------


class WorkerPool:
    """A lazily-created, warm-once ``multiprocessing.Pool`` wrapper.

    The underlying pool is spawned on the first :meth:`submit` and then
    reused for every later dispatch — including across separate
    ``allocate_module`` calls.  :meth:`restart` terminates a pool whose
    worker wedged (the replacement is spawned lazily on next use);
    :meth:`shutdown` ends its life for good.  Usable as a context
    manager for scoped teardown in tests.
    """

    def __init__(self, processes: int):
        self.processes = processes
        self._pool = None
        self.dispatches = 0
        self.warm_starts = 0
        self.restarts = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def warm(self) -> bool:
        """True once the underlying process pool exists."""
        return self._pool is not None

    def _ensure(self):
        if self._pool is None:
            import multiprocessing

            self._pool = multiprocessing.get_context().Pool(
                processes=self.processes, initializer=_warm_worker
            )
            self.warm_starts += 1
        return self._pool

    def worker_pids(self) -> list:
        """Pids of the live worker processes (empty when cold)."""
        if self._pool is None:
            return []
        return [proc.pid for proc in self._pool._pool]

    def restart(self) -> None:
        """Terminate the pool (killing any wedged worker); the next
        submit spawns a fresh one."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self.restarts += 1

    def shutdown(self) -> None:
        """Graceful teardown: drain, close, join."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- dispatch ------------------------------------------------------

    def submit(self, wire_text, target, method, kwargs, trace):
        """Dispatch one function; returns the ``AsyncResult`` whose value
        is the worker's response tuple.  ``trace`` may be a bool or a
        request trace-id string (see :func:`_allocate_one`)."""
        pool = self._ensure()
        self.dispatches += 1
        return pool.apply_async(
            _allocate_one, (wire_text, target, method, kwargs, trace)
        )

    # No caller in src/; kept because perfbench's graph hooks resolve it.
    def submit_call(self, func, args):
        """Dispatch one plain ``func(*args)`` call; returns the
        ``AsyncResult``.  The generic sibling of :meth:`submit` for work
        that is not a function allocation (``func`` must be a picklable
        module-level callable)."""
        pool = self._ensure()
        self.dispatches += 1
        return pool.apply_async(func, args)

    def stats(self) -> dict:
        return {
            "processes": self.processes,
            "warm": self.warm,
            "dispatches": self.dispatches,
            "warm_starts": self.warm_starts,
            "restarts": self.restarts,
        }

    def __repr__(self) -> str:
        state = "warm" if self.warm else "cold"
        return f"WorkerPool({self.processes} processes, {state})"


_POOLS: dict = {}
_ATEXIT_REGISTERED = False


def get_pool(processes: int) -> WorkerPool:
    """The shared persistent pool with ``processes`` workers.

    One pool per worker count, created on first request and reused by
    every later ``allocate_module`` call; all registered pools are torn
    down at interpreter exit.
    """
    global _ATEXIT_REGISTERED
    pool = _POOLS.get(processes)
    if pool is None:
        pool = _POOLS[processes] = WorkerPool(processes)
        if not _ATEXIT_REGISTERED:
            atexit.register(shutdown_pools)
            _ATEXIT_REGISTERED = True
    return pool


def active_pools() -> list:
    """Registered pools, warm or cold (introspection for tests/stats)."""
    return list(_POOLS.values())


def shutdown_pools() -> None:
    """Shut down and forget every registered pool (atexit hook; also
    callable explicitly, e.g. between test groups)."""
    while _POOLS:
        _processes, pool = _POOLS.popitem()
        pool.shutdown()


def restart_pools() -> None:
    """Terminate every warm pool's workers; replacements spawn lazily on
    next use.  The circuit breaker's half-open hook — a trial request
    after repeated failures should run on fresh processes, not on
    whatever state just failed."""
    for pool in _POOLS.values():
        pool.restart()


def install_signal_teardown(signals=None) -> dict:
    """Make SIGTERM/SIGINT tear the pools down before the process dies.

    ``atexit`` covers normal interpreter exit, but a process killed by a
    signal whose default disposition is "terminate" (SIGTERM above all —
    what every supervisor sends first) never reaches ``atexit``, and its
    pool workers are orphaned.  This installs handlers that run
    :func:`shutdown_pools` and then **re-deliver the signal with its
    previous disposition**: a previously-installed handler is chained, a
    default disposition is restored and re-raised (so the exit status
    still says "killed by SIGTERM"), and SIGINT keeps raising
    ``KeyboardInterrupt`` through Python's default handler.

    Long-lived entry points (``repro serve`` / ``repro chaos``) prefer
    their event loop's graceful drain handlers; this is the
    belt-and-suspenders floor for every other caller.  Returns the
    previous handlers ``{signum: handler}`` so a test can restore them.
    """
    import signal as signal_mod

    if signals is None:
        signals = (signal_mod.SIGTERM, signal_mod.SIGINT)
    previous: dict = {}

    def teardown_handler(signum, frame):
        shutdown_pools()
        prior = previous.get(signum)
        if callable(prior):
            prior(signum, frame)
        else:
            # SIG_DFL (or SIG_IGN treated the same): restore and
            # re-deliver so the kernel applies the real disposition and
            # the exit status is the conventional 128+signum.
            signal_mod.signal(signum, signal_mod.SIG_DFL)
            os.kill(os.getpid(), signum)

    for signum in signals:
        previous[signum] = signal_mod.signal(signum, teardown_handler)
    return previous
