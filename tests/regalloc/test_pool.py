"""Lifecycle and caching behavior of the persistent worker pool.

The pool's contract: warmed once and reused across ``allocate_module``
calls, shut down cleanly (no leaked worker processes — context manager,
explicit shutdown, and the ``atexit`` registration all tear it down),
restarted (never joined) after a hung worker, and its content-addressed
response cache replays *bit-identical* results without dispatching.
Worker fault injection (``worker_crash`` / ``worker_hang``) must keep
tripping at the driver layer on this transport.
"""

import os
import pathlib

import pytest

from repro.durability.supervisor import process_gone
from repro.frontend import compile_source
from repro.machine.target import rt_pc
from repro.regalloc import allocate_module
from repro.regalloc import pool as pool_mod
from repro.regalloc.pool import (
    RESPONSE_CACHE,
    WorkerPool,
    active_pools,
    cache_key,
    get_pool,
    resolve_jobs,
    shutdown_pools,
)
from repro.robustness.faults import (
    DEFAULT_FAULT_SOURCE,
    default_fault_target,
    probe_fault,
)

slow = pytest.mark.slow


@pytest.fixture(autouse=True)
def fresh_pool_state():
    """Each test sees (and leaves behind) a cold registry and an empty
    cache, so warm-start/hit counters are attributable."""
    shutdown_pools()
    RESPONSE_CACHE.clear()
    yield
    shutdown_pools()
    RESPONSE_CACHE.clear()


def _module():
    return compile_source(DEFAULT_FAULT_SOURCE)


class TestResolveJobs:
    def test_explicit_jobs_clamped_to_eligible_functions(self):
        assert resolve_jobs(8, 2) == 2
        assert resolve_jobs(2, 8) == 2
        assert resolve_jobs(1, 5) == 1

    def test_auto_detect_clamps_to_eligible_functions(self):
        cpus = os.cpu_count() or 1
        assert resolve_jobs(0, 1) == 1
        assert resolve_jobs(0, 10_000) == cpus
        assert resolve_jobs(0, 2) == min(cpus, 2)

    def test_negative_jobs_rejected(self):
        from repro.errors import AllocationError

        with pytest.raises(AllocationError, match="jobs"):
            resolve_jobs(-1, 4)

    def test_auto_detect_serial_on_one_core_box(self, monkeypatch):
        # BENCH_PR6's alloc_registry_all_jobs2_nocache row: pooled
        # dispatch without real cores is ~1.25x slower than serial, so
        # jobs=0 must never pick the pool when there is one CPU.
        import repro.regalloc.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 1)
        assert resolve_jobs(0, 10_000) == 1
        assert resolve_jobs(0, 2) == 1
        # cpu_count() can legitimately return None; same fallback.
        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: None)
        assert resolve_jobs(0, 10_000) == 1

    def test_auto_detect_still_scales_on_multicore(self, monkeypatch):
        import repro.regalloc.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 4)
        assert resolve_jobs(0, 10_000) == 4
        assert resolve_jobs(0, 2) == 2

    def test_explicit_jobs_still_force_pool_on_one_core(self, monkeypatch):
        import repro.regalloc.pool as pool_mod

        monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 1)
        assert resolve_jobs(2, 10_000) == 2

    def test_jobs_zero_allocates_like_serial(self):
        target = default_fault_target()
        serial = allocate_module(_module(), target, "briggs")
        auto = allocate_module(_module(), target, "briggs", jobs=0)
        assert auto.parallel_fallback is None
        assert set(auto.results) == set(serial.results)
        assert auto.total_spilled() == serial.total_spilled()


class TestPoolLifecycle:
    def test_warm_once_across_two_allocate_module_calls(self):
        target = default_fault_target()
        allocate_module(_module(), target, "briggs", jobs=2, cache=False)
        (pool,) = active_pools()
        assert pool.warm and pool.warm_starts == 1
        pids = pool.worker_pids()
        assert pids
        allocate_module(_module(), target, "briggs", jobs=2, cache=False)
        assert active_pools() == [pool]
        assert pool.worker_pids() == pids  # same processes, not respawned
        assert pool.warm_starts == 1
        assert pool.dispatches == 4  # 2 functions x 2 calls

    def test_shutdown_reaps_every_worker(self):
        allocate_module(
            _module(), default_fault_target(), "briggs", jobs=2, cache=False
        )
        (pool,) = active_pools()
        pids = pool.worker_pids()
        shutdown_pools()
        assert active_pools() == []
        assert not pool.warm
        for pid in pids:
            assert process_gone(pid), f"worker {pid} leaked past shutdown"

    def test_context_manager_teardown(self):
        with WorkerPool(2) as pool:
            async_result = pool.submit(
                pool_mod.encode_request(next(iter(_module()))),
                default_fault_target(), "briggs",
                {"paranoia": "off"}, False,
            )
            response = async_result.get(30)
            assert response[0] == "wire"
            pids = pool.worker_pids()
        assert not pool.warm
        for pid in pids:
            assert process_gone(pid)

    def test_atexit_hook_registered_on_first_pool(self):
        assert not pool_mod._POOLS
        get_pool(2)
        assert pool_mod._ATEXIT_REGISTERED

    def test_lazy_pools_spawn_no_processes(self):
        pool = get_pool(3)
        assert not pool.warm
        assert pool.worker_pids() == []
        shutdown_pools()  # shutting down a cold pool is a no-op
        assert not pool.warm


class TestResponseCache:
    def test_second_call_is_served_from_cache_bit_identically(self):
        target = default_fault_target()
        serial = allocate_module(_module(), target, "briggs")
        first = allocate_module(_module(), target, "briggs", jobs=2)
        assert RESPONSE_CACHE.hits == 0
        (pool,) = active_pools()
        dispatched = pool.dispatches
        second = allocate_module(_module(), target, "briggs", jobs=2)
        assert RESPONSE_CACHE.hits == len(serial.results)
        assert pool.dispatches == dispatched  # nothing re-dispatched
        for allocation in (first, second):
            for name, reference in serial.results.items():
                result = allocation.results[name]
                flat = {
                    (v.id, v.rclass.value): c
                    for v, c in result.assignment.items()
                }
                assert flat == {
                    (v.id, v.rclass.value): c
                    for v, c in reference.assignment.items()
                }
                assert (
                    result.stats.registers_spilled
                    == reference.stats.registers_spilled
                )
                assert result.stats.pass_count == reference.stats.pass_count

    def test_cache_hit_still_swaps_fresh_functions_into_module(self):
        target = default_fault_target()
        allocate_module(_module(), target, "briggs", jobs=2)
        module = _module()
        allocation = allocate_module(module, target, "briggs", jobs=2)
        assert RESPONSE_CACHE.hits > 0
        for name, result in allocation.results.items():
            assert module.functions[name] is result.function
            for vreg in result.assignment:
                assert vreg in allocation.assignment

    def test_cache_disabled_always_dispatches(self):
        target = default_fault_target()
        allocate_module(_module(), target, "briggs", jobs=2, cache=False)
        allocate_module(_module(), target, "briggs", jobs=2, cache=False)
        assert RESPONSE_CACHE.hits == 0
        assert len(RESPONSE_CACHE) == 0
        (pool,) = active_pools()
        assert pool.dispatches == 4  # 2 functions x 2 calls

    def test_strategy_objects_are_never_cached(self):
        from repro.regalloc.briggs import BriggsAllocator

        assert cache_key("F f - 0 0\n.", rt_pc(), BriggsAllocator(),
                         {}) is None
        target = default_fault_target()
        allocate_module(_module(), target, BriggsAllocator(), jobs=2)
        assert len(RESPONSE_CACHE) == 0

    def test_distinct_targets_miss(self):
        kwargs = {"paranoia": "off"}
        a = cache_key("F f - 0 0\n.", rt_pc(), "briggs", kwargs)
        b = cache_key("F f - 0 0\n.", rt_pc().with_int_regs(4), "briggs",
                      kwargs)
        assert a != b

    def test_lru_eviction_is_bounded(self):
        from repro.regalloc.pool import ResponseCache

        cache = ResponseCache(limit=2)
        for index in range(4):
            cache.put(("k", index), ("wire", str(index), {}, None, None))
        assert len(cache) == 2
        assert cache.get(("k", 0)) is None
        assert cache.get(("k", 3))[1] == "3"


_SIGNAL_VICTIM = r"""
import os, signal, sys, time

from repro.frontend import compile_source
from repro.machine.target import rt_pc
from repro.regalloc import allocate_module
from repro.regalloc.pool import active_pools, install_signal_teardown
from repro.robustness.faults import DEFAULT_FAULT_SOURCE

install_signal_teardown()
module = compile_source(DEFAULT_FAULT_SOURCE)
allocate_module(module, rt_pc(), "briggs", jobs=2)
pids = [pid for pool in active_pools() for pid in pool.worker_pids()]
print(" ".join(map(str, pids)), flush=True)
signal.pause()
"""


class TestSignalTeardown:
    """ISSUE 7 satellite: a SIGTERM'd process must run shutdown_pools()
    before dying — ``atexit`` never fires on a fatal signal, and orphaned
    warm workers are exactly the leak ``repro serve`` cannot afford."""

    @pytest.mark.parametrize("signum", [15, 2], ids=["SIGTERM", "SIGINT"])
    @slow
    def test_signal_exit_leaks_no_workers(self, signum):
        import signal
        import subprocess
        import sys

        src_root = str(pathlib.Path(pool_mod.__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        victim = subprocess.Popen(
            [sys.executable, "-c", _SIGNAL_VICTIM],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            pids = [int(p) for p in victim.stdout.readline().split()]
            assert pids, "victim warmed no pool workers"
            victim.send_signal(signum)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()
            victim.stdout.close()
        for pid in pids:
            assert process_gone(pid), (
                f"worker {pid} outlived its SIGTERM'd parent"
            )
        # The teardown handler re-delivers with the default disposition,
        # so the exit status still reports death-by-signal (SIGTERM) or
        # the KeyboardInterrupt exit (SIGINT through Python's default
        # handler).
        if signum == signal.SIGTERM:
            assert victim.returncode == -signal.SIGTERM
        else:
            assert victim.returncode != 0


class TestWorkerFaultsOnPoolPath:
    def test_worker_crash_still_trips_at_driver_layer(self):
        probe = probe_fault("worker_crash", seed=0)
        assert probe.ok
        assert probe.detected_by == ("driver",)
        assert probe.failures == 2

    @slow
    def test_worker_hang_trips_and_restarts_the_pool(self):
        probe = probe_fault("worker_hang", seed=0)
        assert probe.ok
        assert probe.degraded
        (pool,) = active_pools()
        assert pool.restarts >= 1  # the wedged pool was terminated
        # ... and the restarted pool is immediately usable.
        allocation = allocate_module(
            _module(), default_fault_target(), "briggs", jobs=2
        )
        assert allocation.failures == []
        assert len(allocation.results) == 2
