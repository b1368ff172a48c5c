"""Outside-in layer timing: wrappers around each layer's public calls.

A :class:`Probe` replaces a module attribute (or a method) with a wrapper
that times the call, charges the time to a named layer and subtracts it
from whichever wrapped call encloses it, so every layer gets a *self*
time.  Nothing under ``src/`` changes: the probe patches the names the
callers look up (``repro.regalloc.driver.coalesce_copies`` and so on) and
:meth:`Probe.remove` puts the originals back, so an untraced run always
times unwrapped code.

The wrappers record only in the process and threads that installed them.
Pool workers forked from a probed process inherit the patched names, but
their wrappers pass straight through: worker-side time reaches the
benchmark through the program's own tracer instead.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

#: Allocator layers, innermost first, as (owner module, attribute, layer).
#: Liveness is a class: its ``__init__`` runs the dataflow solve.
ALLOCATOR_HOOKS = (
    ("repro.regalloc.driver", "split_webs", "webs"),
    ("repro.regalloc.driver", "coalesce_copies", "coalesce"),
    ("repro.analysis.liveness:Liveness", "__init__", "liveness"),
    ("repro.regalloc.driver", "build_interference_graphs", "interference"),
    ("repro.regalloc.coalesce", "build_interference_graphs",
     "interference"),
    ("repro.regalloc.driver", "compute_spill_costs", "spill_costs"),
    ("repro.regalloc.briggs", "simplify", "simplify"),
    ("repro.regalloc.briggs", "select_colors", "select"),
    ("repro.regalloc.driver", "insert_spill_code", "spill"),
)

#: Hooks per probed process.  ``suite`` and ``graph`` run the program in
#: the benchmark's own child process; ``server`` is the ``repro serve``
#: process of the traced serve run (its pool workers are traced through
#: ``"trace": true`` instead).
HOOKS = {
    "suite": (
        ("repro.frontend", "compile_source", "frontend"),
        ("repro.regalloc.driver", "allocate_module", "driver"),
    ) + ALLOCATOR_HOOKS,
    "graph": (
        ("repro.regalloc.repair", "repair_color", "repair"),
        ("repro.regalloc.repair", "smallest_last_order", "matula"),
        ("repro.regalloc.pool:WorkerPool", "submit_call", "pool"),
    ),
    "server": (
        ("repro.service.server", "compile_source", "frontend"),
        ("repro.regalloc.pool", "encode_function", "wire.encode"),
        ("repro.regalloc.pool", "decode_function", "wire.decode"),
        ("repro.regalloc.pool:RESPONSE_CACHE", "get", "cache"),
        ("repro.regalloc.pool:WorkerPool", "submit", "pool"),
    ),
}


def resolve(spec: str):
    """``"pkg.mod"`` or ``"pkg.mod:Name"`` to the object to patch."""
    import importlib

    module_name, _, attr = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, attr) if attr else owner


class _TimedResult:
    """A pool submission's ``AsyncResult`` whose ``get`` is charged to
    ``pool.wait``: the time the caller blocks on worker processes."""

    __slots__ = ("_inner", "_probe")

    def __init__(self, inner, probe):
        self._inner = inner
        self._probe = probe

    def get(self, timeout=None):
        return self._probe.timed("pool.wait", self._inner.get, timeout)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Probe:
    """Self-time and count accounting for wrapped layer calls."""

    def __init__(self):
        #: layer -> seconds of self time.
        self.self_s: dict = defaultdict(float)
        #: layer -> completed calls.
        self.calls: dict = defaultdict(int)
        #: free-form counters filled by the per-layer observers.
        self.counts: dict = defaultdict(float)
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # -- accounting -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, layer, func, *args, **kwargs):
        """Call ``func``, charging its self time to ``layer``."""
        return self._call(layer, func, args, kwargs)[0]

    def _call(self, layer, func, args, kwargs):
        """``(result, enclosing layer or None)``."""
        if os.getpid() != self._pid:
            return func(*args, **kwargs), None
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
        return result, parent

    def _observe(self, observer, result, args, parent) -> None:
        """Run an observer without charging it to the enclosing layer; its
        time lands in the residual."""
        start = time.perf_counter()
        observer(self, result, args, parent)
        stack = self._stack()
        if stack:
            stack[-1][1] += time.perf_counter() - start

    def count(self, name: str, value=1) -> None:
        with self._lock:
            self.counts[name] += value

    # -- installation ---------------------------------------------------

    def wrap(self, owner, attr: str, layer: str) -> None:
        original = getattr(owner, attr)
        observer = OBSERVERS.get(layer)
        probe = self

        def wrapper(*args, **kwargs):
            result, parent = probe._call(layer, original, args, kwargs)
            if os.getpid() == probe._pid:
                if observer is not None:
                    probe._observe(observer, result, args, parent)
                if layer == "pool":
                    result = _TimedResult(result, probe)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        owned = attr in vars(owner)
        self._patches.append((owner, attr, original, owned))
        setattr(owner, attr, wrapper)

    def install(self, process: str) -> "Probe":
        for spec, attr, layer in HOOKS[process]:
            self.wrap(resolve(spec), attr, layer)
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }


def is_wrapped(owner, attr: str) -> bool:
    return hasattr(getattr(owner, attr), "__wrapped__")


# ----------------------------------------------------------------------
# Observers: counts taken at the layer boundary, outside its timing
# ----------------------------------------------------------------------


def _frontend(probe, module, args, parent):
    probe.count("frontend.ir_instrs", sum(
        len(block.instrs) for function in module
        for block in function.blocks))


def _webs(probe, split, args, parent):
    probe.count("webs.split", split)


def _coalesce(probe, removed, args, parent):
    probe.count("coalesce.copies_removed", removed)
    probe.count("coalesce.calls")


def _liveness(probe, result, args, parent):
    probe.count("liveness.solves")


def _interference(probe, graphs, args, parent):
    probe.count("interference.builds")
    if parent == "coalesce":
        # Each coalescing round rebuilds liveness and the graphs once, so
        # nested builds count the rounds without a private hook.
        probe.count("coalesce.rounds")
    else:
        probe.count("interference.edges",
                    sum(graph.edge_count() for graph in graphs.values()))


def _driver(probe, allocation, args, parent):
    probe.count("driver.passes", sum(
        result.stats.pass_count for result in allocation.results.values()))


def _repair(probe, outcome, args, parent):
    probe.count("repair.rounds", outcome.rounds)
    probe.count("repair.parallel_rounds", outcome.parallel_rounds)
    probe.count("repair.conflicts", outcome.conflicts)
    probe.count("repair.nodes", len(args[0]))


def _wire_encode(probe, text, args, parent):
    probe.count("wire.bytes", len(text))


def _wire_decode(probe, function, args, parent):
    probe.count("wire.bytes", len(args[0]))


def _cache(probe, hit, args, parent):
    if args and args[0] is not None:
        probe.count("cache.lookups")
        if hit is not None:
            probe.count("cache.hits")


OBSERVERS = {
    "frontend": _frontend,
    "webs": _webs,
    "coalesce": _coalesce,
    "liveness": _liveness,
    "interference": _interference,
    "driver": _driver,
    "repair": _repair,
    "wire.encode": _wire_encode,
    "wire.decode": _wire_decode,
    "cache": _cache,
}

