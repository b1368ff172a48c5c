"""Properties of the fused dual-class build and parallel module allocation.

PR 1 rebuilt the hot path: one backward walk now populates both register
classes' interference graphs (instead of one walk per class), and
``allocate_module`` can fan functions out over a process pool.  Neither is
allowed to change a single observable bit:

1. the fused build, and the single-class build, must produce graphs
   identical — node order, bit matrix, adjacency lists in order, edge
   count — to the seed's independent single-class builds (the reference
   implementation, ``seed_build_interference_graph``, is kept below for
   exactly this role);
2. the graphs the driver colors, which coalescing's last round hands over
   in every pass that coalesces, must equal a fresh build on the final
   code;
3. ``jobs=2`` module allocation must yield the same assignment, spill
   counts, and pass counts as serial allocation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.cfg import CFG
from repro.analysis.liveness import Liveness
from repro.experiments.runner import EXPERIMENT_TARGET
from repro.frontend import compile_source
from repro.ir.values import RClass
from repro.machine import rt_pc
from repro.regalloc import (
    BriggsAllocator,
    allocate_function,
    allocate_module,
    build_interference_graph,
    build_interference_graphs,
)
from repro.regalloc.interference import InterferenceGraph
from repro.workloads import all_workloads
from repro.workloads.synth import generate_program

_CLASSES = (RClass.INT, RClass.FLOAT)


def _flat_assignment(result):
    """Assignment keyed by stable (id, class) pairs instead of VReg
    identity, so copies that crossed a process boundary compare equal."""
    return {
        (vreg.id, vreg.rclass.value): color
        for vreg, color in result.assignment.items()
    }


def _seed_freeze(graph: InterferenceGraph) -> None:
    """The seed's bit-by-bit freeze: O(num_nodes * max_node_id)."""
    graph.adj_list = []
    for node in range(graph.num_nodes):
        mask = graph.adj_mask[node]
        neighbors = []
        index = 0
        while mask:
            if mask & 1:
                neighbors.append(index)
            mask >>= 1
            index += 1
        graph.adj_list.append(neighbors)


def seed_build_interference_graph(function, rclass, target, liveness):
    """The seed implementation of the build phase, one register class per
    backward walk, with per-bit live-set iteration at every def point."""
    k = target.regs(rclass)
    graph = InterferenceGraph(rclass, k)
    class_mask = 0
    for vreg in function.vregs:
        if vreg.rclass == rclass:
            class_mask |= 1 << vreg.id
    by_id = {v.id: v for v in function.vregs}
    caller_saved = sorted(target.caller_saved(rclass))

    class_params = [p for p in function.params if p.rclass == rclass]
    for param in class_params:
        graph.ensure_node(param)
    for index, first in enumerate(class_params):
        for second in class_params[index + 1 :]:
            graph.add_edge(graph.ensure_node(first), graph.ensure_node(second))
    entry_live = liveness.live_in[function.entry.label] & class_mask
    masked = entry_live
    while masked:
        low = masked & -masked
        masked ^= low
        vreg = by_id[low.bit_length() - 1]
        node = graph.ensure_node(vreg)
        for param in class_params:
            graph.add_edge(node, graph.ensure_node(param))
    for _block, _index, instr in function.instructions():
        for vreg in instr.defs:
            if vreg.rclass == rclass:
                graph.ensure_node(vreg)
        for vreg in instr.uses:
            if vreg.rclass == rclass:
                graph.ensure_node(vreg)

    def live_nodes(mask):
        masked = mask & class_mask
        while masked:
            low = masked & -masked
            masked ^= low
            yield graph.ensure_node(by_id[low.bit_length() - 1])

    for block in function.blocks:
        live = liveness.live_out[block.label]
        for instr in reversed(block.instrs):
            defs_mask = 0
            for d in instr.defs:
                defs_mask |= 1 << d.id
            if instr.is_call:
                across = live & ~defs_mask
                for node in live_nodes(across):
                    for color in caller_saved:
                        graph.add_edge(node, color)
            copy_source_mask = 0
            if instr.is_copy:
                copy_source_mask = 1 << instr.uses[0].id
            for d in instr.defs:
                if d.rclass != rclass:
                    continue
                d_node = graph.ensure_node(d)
                interfering = live & ~(1 << d.id) & ~copy_source_mask
                for node in live_nodes(interfering):
                    graph.add_edge(d_node, node)
            live = live & ~defs_mask
            for u in instr.uses:
                live |= 1 << u.id

    _seed_freeze(graph)
    return graph


def assert_same_graph(graph, reference):
    assert graph.rclass == reference.rclass
    assert graph.k == reference.k
    assert graph.vregs == reference.vregs  # nodes, same order
    assert graph.node_of == reference.node_of
    assert graph.adj_mask == reference.adj_mask  # edges
    assert graph.adj_list == reference.adj_list  # neighbor order too
    assert graph.edge_count() == reference.edge_count()


def assert_builds_match_seed(function, target):
    """The fused build and the single-class build of ``function`` both
    equal the seed's single-class builds."""
    liveness = Liveness(function, CFG(function))
    fused = build_interference_graphs(
        function, target, liveness, rclasses=_CLASSES
    )
    for rclass in _CLASSES:
        reference = seed_build_interference_graph(
            function, rclass, target, liveness
        )
        assert_same_graph(fused[rclass], reference)
        assert_same_graph(
            build_interference_graph(function, rclass, target, liveness),
            reference,
        )


class TestFusedBuild:
    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_fused_build_matches_seed_single_class_builds(self, seed):
        source = generate_program(seed, statements=10)
        for function in compile_source(source):
            assert_builds_match_seed(function, rt_pc())

    def test_fused_build_on_the_svd_workload(self):
        from repro.workloads.svd import workload

        for function in workload().compile():
            assert_builds_match_seed(function, rt_pc())


class TestCoalescingHandOff:
    @pytest.mark.parametrize("target", [rt_pc(), EXPERIMENT_TARGET],
                             ids=["rt_pc", "12-6"])
    @pytest.mark.parametrize("program", sorted(all_workloads()))
    def test_colored_graphs_equal_a_fresh_build(self, program, target):
        """Every pass that coalesces colors the graphs of coalescing's
        quiet last round instead of building them again; the final pass's
        graphs (kept under full paranoia) equal a fresh build."""
        for function in all_workloads()[program].compile():
            result = allocate_function(function, target, "briggs",
                                       paranoia="full")
            for pass_stats in result.stats.passes:
                coalesced = "coalesce" not in pass_stats.reused
                assert coalesced == (
                    "interference" in pass_stats.reused
                ), (function.name, pass_stats.index, pass_stats.reused)
            fresh = build_interference_graphs(result.function, target)
            assert result.graphs.keys() == fresh.keys()
            for rclass, graph in result.graphs.items():
                assert_same_graph(graph, fresh[rclass])


class TestParallelModuleAllocation:
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        method=st.sampled_from(["briggs", "chaitin"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_jobs2_matches_serial(self, seed, method):
        source = generate_program(seed)
        target = rt_pc()
        serial = allocate_module(compile_source(source), target, method)
        parallel = allocate_module(
            compile_source(source), target, method, jobs=2
        )
        assert serial.results.keys() == parallel.results.keys()
        for name in serial.results:
            left = serial.results[name]
            right = parallel.results[name]
            assert _flat_assignment(left) == _flat_assignment(right)
            assert (
                left.stats.registers_spilled == right.stats.registers_spilled
            )
            assert (
                left.stats.total_registers_spilled
                == right.stats.total_registers_spilled
            )
            assert left.stats.pass_count == right.stats.pass_count

    def test_jobs2_matches_serial_on_svd(self):
        from repro.workloads.svd import workload

        target = rt_pc()
        serial = allocate_module(workload().compile(), target, "briggs")
        parallel = allocate_module(
            workload().compile(), target, "briggs", jobs=2, validate=True
        )
        for name in serial.results:
            assert _flat_assignment(serial.results[name]) == _flat_assignment(
                parallel.results[name]
            )
        assert serial.total_spilled() == parallel.total_spilled()

    def test_parallel_swaps_allocated_functions_into_module(self):
        from repro.workloads.svd import workload

        module = workload().compile()
        allocation = allocate_module(module, rt_pc(), "briggs", jobs=2)
        for name, result in allocation.results.items():
            assert module.functions[name] is result.function
        # The merged assignment covers the swapped-in functions' registers.
        for function in module:
            for _block, _index, instr in function.instructions():
                for vreg in list(instr.defs) + list(instr.uses):
                    assert vreg in allocation.assignment

    def test_non_picklable_strategy_falls_back_to_serial(self):
        class LocalBriggs(BriggsAllocator):  # local class: not picklable
            pass

        from repro.workloads.svd import workload

        reference = allocate_module(workload().compile(), rt_pc(), "briggs")
        # The fallback is never silent: the reason is warned about and
        # recorded on the allocation.
        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            allocation = allocate_module(
                workload().compile(), rt_pc(), LocalBriggs(), jobs=2
            )
        assert "not picklable" in allocation.parallel_fallback
        for name in reference.results:
            assert _flat_assignment(reference.results[name]) == (
                _flat_assignment(allocation.results[name])
            )
