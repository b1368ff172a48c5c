"""The hardened driver: FailurePolicy, retries, timeouts, crash bundles.

Failure handling is *per function*: one function failing must not take
the rest of the module down with it (unless the policy says raise), and
every absorbed failure must be visible — a structured
:class:`AllocationFailure`, a ``RuntimeWarning``, and optionally a
deterministic crash bundle.
"""

import json
import time

import pytest

from repro.errors import AllocationError, DriverTimeoutError
from repro.frontend import compile_source
from repro.machine.simulator import run_module
from repro.machine.target import rt_pc
from repro.regalloc import (
    AllocationFailure,
    FailurePolicy,
    allocate_module,
    check_allocation,
)
from repro.regalloc.briggs import BriggsAllocator
from repro.robustness import (
    CrashingAllocator,
    HangingAllocator,
    write_crash_bundle,
)
from repro.robustness.faults import DEFAULT_FAULT_SOURCE, default_fault_target

slow = pytest.mark.slow


class PressureCrasher(BriggsAllocator):
    """Fails only on the probe program's big function (``p``), so the
    per-function — not whole-module — fallback is observable: ``leaf``
    must still get its normal briggs allocation."""

    def allocate_class(self, graph, costs, color_order=None, tracer=None):
        if graph.num_vreg_nodes >= 4:
            raise AllocationError("injected: refusing the large function")
        return super().allocate_class(graph, costs, color_order,
                                      tracer=tracer)


class SmallGraphHanger(BriggsAllocator):
    """Wedges only on graphs with at most two virtual registers (``tiny``
    in :data:`THREE_FUNCTIONS`), so a timeout that spreads to a
    neighbouring function is observable.  Module-level, hence picklable
    into pool workers."""

    def allocate_class(self, graph, costs, color_order=None, tracer=None):
        if graph.num_vreg_nodes <= 2:
            time.sleep(60.0)
        return super().allocate_class(graph, costs, color_order,
                                      tracer=tracer)


THREE_FUNCTIONS = (
    "subroutine tiny(n)\n"
    "end\n"
    "subroutine mid(n)\n"
    "integer a, b, c\n"
    "a = n + 1\n"
    "b = a * 2\n"
    "c = a + b\n"
    "print c\n"
    "end\n"
    "program p\n"
    "integer x, y, z, w\n"
    "x = 1\n"
    "y = 2\n"
    "z = x + y\n"
    "w = z * y\n"
    "call tiny(x)\n"
    "call mid(w)\n"
    "print z\n"
    "print w\n"
    "end\n"
)


def compiled():
    return compile_source(DEFAULT_FAULT_SOURCE)


def baseline_outputs():
    return run_module(compiled()).outputs


class TestFailurePolicy:
    def test_coerce_accepts_enum_and_strings(self):
        assert FailurePolicy.coerce(FailurePolicy.SKIP) is FailurePolicy.SKIP
        assert FailurePolicy.coerce("raise") is FailurePolicy.RAISE
        assert (
            FailurePolicy.coerce("degrade-to-naive") is FailurePolicy.DEGRADE
        )

    def test_coerce_rejects_unknown_policy_listing_choices(self):
        with pytest.raises(AllocationError, match="degrade-to-naive"):
            FailurePolicy.coerce("explode")

    def test_raise_policy_propagates_with_context(self):
        module = compiled()
        with pytest.raises(AllocationError) as info:
            allocate_module(module, default_fault_target(), PressureCrasher())
        context = info.value.context
        assert context["function"] == "p"
        assert context["phase"] == "color"
        assert context["pass_index"] >= 1

    def test_degrade_policy_substitutes_spill_all_per_function(self):
        module = compiled()
        target = default_fault_target()
        with pytest.warns(RuntimeWarning, match="degraded-to-naive"):
            allocation = allocate_module(
                module, target, PressureCrasher(), policy="degrade-to-naive"
            )
        # Per-function fallback: p degraded, leaf untouched.
        assert set(allocation.results) == {"leaf", "p"}
        assert allocation.result("p").method == "spill-all"
        assert allocation.result("leaf").method == "briggs"
        assert allocation.failed_functions() == ["p"]
        failure = allocation.failures[0]
        assert failure.action == "degraded-to-naive"
        assert failure.error_type == "AllocationError"
        assert failure.phase == "color"
        # The degraded module still computes the right answer.
        outcome = run_module(
            module, target=target, assignment=allocation.assignment
        )
        assert outcome.outputs == baseline_outputs()

    def test_degrade_escalates_to_skip_when_naive_also_fails(self):
        # One integer register is too few even for the spill-all
        # baseline (a binary op needs both operands live at once), so
        # the downgrade itself fails; the only non-raising floor is
        # skip — recorded for both the original and the degrade attempt.
        module = compiled()
        target = rt_pc().with_int_regs(1).with_float_regs(1)
        with pytest.warns(RuntimeWarning, match="also failed"):
            allocation = allocate_module(
                module, target, "briggs", policy="degrade-to-naive"
            )
        assert "p" not in allocation.results
        records = [f for f in allocation.failures if f.function == "p"]
        assert [f.action for f in records] == ["skipped", "skipped"]
        assert records[0].method == "briggs"
        assert records[1].method == "spill-all"

    def test_skip_policy_leaves_function_out_on_record(self):
        module = compiled()
        with pytest.warns(RuntimeWarning, match="skipped"):
            allocation = allocate_module(
                module, default_fault_target(), PressureCrasher(),
                policy=FailurePolicy.SKIP,
            )
        assert "p" not in allocation.results
        assert "leaf" in allocation.results
        assert allocation.failures[0].action == "skipped"
        assert "failed" in repr(allocation)

    def test_failure_as_dict_is_fully_structured(self):
        failure = AllocationFailure(
            function="p", method="briggs", phase="color", pass_index=2,
            error=AllocationError("boom"), elapsed=0.5, retries=1,
            action="skipped",
        )
        record = failure.as_dict()
        assert record["function"] == "p"
        assert record["error"] == "boom"
        assert record["error_type"] == "AllocationError"
        assert record["bundle"] is None


class TestParallelHardening:
    def test_worker_crash_raise_policy_propagates(self):
        module = compiled()
        with pytest.raises(RuntimeError, match="injected fault"):
            allocate_module(
                module, default_fault_target(), CrashingAllocator(),
                jobs=2, retries=1,
            )

    def test_worker_crash_degrades_every_function(self):
        module = compiled()
        target = default_fault_target()
        with pytest.warns(RuntimeWarning, match="degraded-to-naive"):
            allocation = allocate_module(
                module, target, CrashingAllocator(),
                jobs=2, retries=1, policy=FailurePolicy.DEGRADE,
            )
        assert set(allocation.results) == {"leaf", "p"}
        assert len(allocation.failures) == 2
        assert {f.phase for f in allocation.failures} == {"worker-crash"}
        assert all(f.retries == 1 for f in allocation.failures)
        outcome = run_module(
            module, target=target, assignment=allocation.assignment
        )
        assert outcome.outputs == baseline_outputs()

    def test_worker_crash_skip_policy(self):
        module = compiled()
        with pytest.warns(RuntimeWarning, match="skipped"):
            allocation = allocate_module(
                module, default_fault_target(), CrashingAllocator(),
                jobs=2, retries=1, policy="skip",
            )
        assert allocation.results == {}
        assert sorted(allocation.failed_functions()) == ["leaf", "p"]

    @slow
    def test_hung_worker_hits_timeout_and_degrades(self):
        module = compiled()
        target = default_fault_target()
        with pytest.warns(RuntimeWarning, match="worker-timeout"):
            allocation = allocate_module(
                module, target, HangingAllocator(delay=60.0),
                jobs=2, timeout=1.0, retries=0, policy="degrade-to-naive",
            )
        assert set(allocation.results) == {"leaf", "p"}
        assert {f.phase for f in allocation.failures} == {"worker-timeout"}
        assert {f.error_type for f in allocation.failures} == {
            "DriverTimeoutError"
        }
        # The wedged worker was abandoned, not waited out.
        assert all(f.elapsed < 30.0 for f in allocation.failures)
        outcome = run_module(
            module, target=target, assignment=allocation.assignment
        )
        assert outcome.outputs == baseline_outputs()

    @slow
    def test_timeout_is_enforced_for_single_function_modules(self):
        # A timeout used to apply only on the parallel path (jobs > 1
        # *and* more than one function): a single-function hang slept
        # its full delay in-process with nothing able to interrupt it.
        # Any timeout now routes through the pool so the watchdog is
        # always armed.
        module = compile_source(
            "program solo\ninteger a, b\na = 2\nb = a + 3\nprint b\nend\n",
            "solo",
        )
        target = default_fault_target()
        with pytest.warns(RuntimeWarning, match="worker-timeout"):
            allocation = allocate_module(
                module, target, HangingAllocator(delay=60.0),
                jobs=2, timeout=1.0, retries=0, policy="degrade-to-naive",
            )
        assert set(allocation.results) == {"solo"}
        assert {f.phase for f in allocation.failures} == {"worker-timeout"}
        # The wedged worker was abandoned, not waited out.
        assert all(f.elapsed < 30.0 for f in allocation.failures)

    @slow
    def test_timeout_fails_only_the_function_that_hung(self):
        # Three functions over two workers: a hang costs only the
        # function that hung; the others keep their briggs allocation.
        with pytest.warns(RuntimeWarning, match="worker-timeout"):
            allocation = allocate_module(
                compile_source(THREE_FUNCTIONS), rt_pc(), SmallGraphHanger(),
                jobs=2, timeout=1.0, policy="degrade-to-naive", retries=0,
            )
        assert [(f.function, f.phase) for f in allocation.failures] == [
            ("tiny", "worker-timeout")
        ]
        assert allocation.result("tiny").method == "spill-all"
        assert allocation.result("mid").method == "briggs"
        assert allocation.result("p").method == "briggs"

    @slow
    def test_hung_worker_raise_policy_raises_timeout(self):
        module = compiled()
        with pytest.raises(DriverTimeoutError, match="exceeded"):
            allocate_module(
                module, default_fault_target(), HangingAllocator(delay=60.0),
                jobs=2, timeout=1.0, retries=0,
            )

    def test_non_picklable_strategy_falls_back_with_reason(self):
        class LocalStrategy(BriggsAllocator):
            pass  # defined in a function scope: not picklable

        module = compiled()
        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            allocation = allocate_module(
                module, default_fault_target(), LocalStrategy(), jobs=2
            )
        assert allocation.parallel_fallback is not None
        assert "not picklable" in allocation.parallel_fallback
        # The fallback still allocated everything, correctly.
        assert set(allocation.results) == {"leaf", "p"}
        assert allocation.failures == []

    def test_clean_parallel_run_records_nothing(self):
        module = compiled()
        allocation = allocate_module(
            module, default_fault_target(), "briggs", jobs=2
        )
        assert allocation.parallel_fallback is None
        assert allocation.failures == []
        assert set(allocation.results) == {"leaf", "p"}


class TestCheckAllocationNegativePaths:
    """Negative-path coverage for the static layer, with the structured
    context the hardened driver attaches (migrated from the original
    fault-injection suite)."""

    def allocation_result(self):
        module = compiled()
        allocation = allocate_module(
            module, default_fault_target(), "briggs", validate=True
        )
        return allocation.result("p")

    def test_missing_color(self):
        result = self.allocation_result()
        victim = next(
            v for _b, _i, instr in result.function.instructions()
            for v in instr.defs
            if v in result.assignment
        )
        del result.assignment[victim]
        with pytest.raises(AllocationError, match="no color") as info:
            check_allocation(result)
        assert info.value.context["function"] == "p"
        assert info.value.context["phase"] == "validate"

    def test_color_out_of_file(self):
        result = self.allocation_result()
        victim = next(
            v for _b, _i, instr in result.function.instructions()
            for v in instr.defs
            if v in result.assignment
        )
        result.assignment[victim] = 99
        with pytest.raises(AllocationError, match="file"):
            check_allocation(result)

    def test_interfering_ranges_sharing_a_color(self):
        module = compile_source(
            "program p\n"
            "integer a1, a2, a3, total\n"
            "a1 = 1\n"
            "a2 = 2\n"
            "a3 = 3\n"
            "total = a1 + a2 + a3\n"
            "print total\n"
            "end\n"
        )
        allocation = allocate_module(module, rt_pc(), "briggs", validate=True)
        result = allocation.result("p")
        function = module.function("p")
        live = [v for v in function.vregs if v.name in ("a1", "a2")]
        assert len(live) == 2
        result.assignment[live[0]] = result.assignment[live[1]]
        with pytest.raises(AllocationError, match="share|interfere"):
            check_allocation(result)

    def test_caller_saved_across_call(self):
        module = compiled()
        target = default_fault_target()
        allocation = allocate_module(module, target, "briggs", validate=True)
        result = allocation.result("p")
        function = module.function("p")
        m = next(v for v in function.vregs if v.name == "m")
        result.assignment[m] = min(target.caller_saved(m.rclass))
        with pytest.raises(AllocationError):
            check_allocation(result)


class TestCrashBundles:
    def test_bundle_written_for_recorded_failure(self, tmp_path):
        module = compiled()
        with pytest.warns(RuntimeWarning):
            allocation = allocate_module(
                module, default_fault_target(), PressureCrasher(),
                policy="skip", bundle_dir=tmp_path,
            )
        bundle = tmp_path / "crash-p"
        assert allocation.failures[0].bundle == str(bundle)
        assert (bundle / "function.ir").exists()
        assert (bundle / "interference-int.dot").exists()
        meta = json.loads((bundle / "meta.json").read_text())
        assert meta["format"] == 1
        assert meta["function"] == "p"
        assert meta["error"]["type"] == "AllocationError"
        assert meta["error"]["context"]["phase"] == "color"
        assert meta["target"]["int_regs"] == 4
        assert meta["graphs"]["int"]["live_ranges"] > 0

    def test_bundle_is_deterministic(self, tmp_path):
        module = compiled()
        function = module.function("p")
        target = default_fault_target()
        error = AllocationError("boom", context={"phase": "color"})
        first = write_crash_bundle(
            function, target, error, out_dir=tmp_path / "a", method="briggs",
            seed=7,
        )
        second = write_crash_bundle(
            function, target, error, out_dir=tmp_path / "b", method="briggs",
            seed=7,
        )
        for name in ("meta.json", "function.ir", "interference-int.dot"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_repeated_failures_overwrite_not_accumulate(self, tmp_path):
        module = compiled()
        function = module.function("p")
        target = default_fault_target()
        error = AllocationError("boom")
        path = write_crash_bundle(function, target, error, out_dir=tmp_path)
        again = write_crash_bundle(function, target, error, out_dir=tmp_path)
        assert path == again
        assert [p.name for p in tmp_path.iterdir()] == ["crash-p"]
