"""The conflict-repair strategy.

Three layers: the plain-graph engine (round structure, conflict rule,
determinism, rounds in process), the invariant helper, and the
``RepairAllocator`` strategy adapter through the driver (precolored
clique respected, paranoia-clean, spill ranking by cost/degree).
"""

import multiprocessing

import pytest

from repro.errors import InvariantError
from repro.frontend import compile_source
from repro.machine.target import rt_pc
from repro.regalloc import allocate_function, allocate_module
from repro.regalloc.matula import smallest_last_order
from repro.regalloc.pool import active_pools, shutdown_pools
from repro.regalloc.repair import (
    RepairAllocator,
    repair_color,
    verify_coloring,
)
from repro.robustness.fuzz import GraphSpec, build_graph
from repro.workloads.synth import generate_graph


def cycle(n):
    return [[(i - 1) % n, (i + 1) % n] for i in range(n)]


def complete(n):
    return [[j for j in range(n) if j != i] for i in range(n)]


class TestEngine:
    def test_colors_a_cycle_with_two_or_three_colors(self):
        adjacency = cycle(8)
        outcome = repair_color(adjacency, 3)
        assert not outcome.spilled
        verify_coloring(adjacency, outcome.colors, 3)

    def test_odd_cycle_needs_three(self):
        adjacency = cycle(7)
        outcome = repair_color(adjacency, 2)
        assert outcome.spilled  # 7-cycle is not 2-colorable
        verify_coloring(adjacency, outcome.colors, 2, outcome.spilled)

    def test_complete_graph_spills_exactly_the_excess(self):
        adjacency = complete(6)
        outcome = repair_color(adjacency, 4)
        assert len(outcome.spilled) == 2
        verify_coloring(adjacency, outcome.colors, 4, outcome.spilled)

    def test_empty_and_single_node(self):
        assert repair_color([], 4).colors == []
        outcome = repair_color([[]], 4)
        assert outcome.colors == [0] and not outcome.spilled

    def test_zero_colors_spills_everything(self):
        adjacency = cycle(5)
        outcome = repair_color(adjacency, 0)
        assert sorted(outcome.spilled) == list(range(5))

    def test_small_chunks_force_conflicts_but_stay_valid(self):
        graph = generate_graph(600, 10.0, seed=3)
        outcome = repair_color(graph.adjacency, 8, chunk_size=16)
        assert outcome.conflicts > 0  # cross-chunk races actually happened
        verify_coloring(graph.adjacency, outcome.colors, 8, outcome.spilled)

    def test_conflict_rule_earlier_position_wins(self):
        # Two adjacent vertices in different chunks race to color 0; the
        # one earlier in the coloring order must keep it.
        adjacency = [[1], [0]]
        outcome = repair_color(adjacency, 2, order=[0, 1], chunk_size=1)
        assert outcome.colors == [0, 1]

    def test_custom_order_is_respected(self):
        adjacency = cycle(6)
        outcome = repair_color(adjacency, 3, order=[5, 4, 3, 2, 1, 0])
        verify_coloring(adjacency, outcome.colors, 3, outcome.spilled)

    def test_color_order_permutation_is_honoured(self):
        outcome = repair_color([[]], 3, color_order=[2, 0, 1])
        assert outcome.colors == [2]

    def test_precolored_prefix_kept_and_excluded_from_spills(self):
        # Nodes 0..2 form the physical clique; node 3 conflicts with all
        # of them and k=3, so it must spill — never a precolored node.
        adjacency = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
        outcome = repair_color(adjacency, 3, precolored=3)
        assert outcome.colors[:3] == [0, 1, 2]
        assert outcome.spilled == [3]
        verify_coloring(adjacency, outcome.colors, 3, outcome.spilled,
                        precolored=3)

    def test_max_rounds_budget_falls_back_to_sweep(self):
        graph = generate_graph(400, 8.0, seed=5)
        budget = repair_color(graph.adjacency, 8, chunk_size=8,
                              max_rounds=1)
        assert budget.rounds == 1
        assert budget.sweep_settled > 0
        verify_coloring(graph.adjacency, budget.colors, 8, budget.spilled)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="chunk_size"):
            repair_color([[]], 2, chunk_size=0)
        with pytest.raises(ValueError, match="precolored"):
            repair_color([[]], 2, precolored=5)
        # The order must be a permutation of the vertices: a short order
        # or a repeated vertex would leave a node neither colored nor
        # spilled, an unknown vertex would index past the graph.
        with pytest.raises(ValueError, match="order has 1 entries"):
            repair_color([[1], [0]], 2, order=[0])
        with pytest.raises(ValueError, match="order has 4 entries"):
            repair_color([[1], [0], []], 2, order=[0, 0, 1, 2])
        with pytest.raises(ValueError, match="out-of-range vertex 5"):
            repair_color([[1], [0]], 2, order=[0, 5])

    def test_graph_scale_rounds_start_no_worker_process(self):
        # Every speculation round runs in the calling process, however
        # large the graph and however many CPUs the host has.
        shutdown_pools()
        graph = generate_graph(100_000, 8.0, seed=9)
        outcome = repair_color(graph.adjacency, 16)
        assert active_pools() == []
        assert multiprocessing.active_children() == []
        assert outcome.parallel_rounds == 0


class TestDeterminism:
    def test_same_seed_same_coloring(self):
        graph = generate_graph(2_000, 8.0, seed=11)
        first = repair_color(graph.adjacency, 8, seed=42, chunk_size=128)
        second = repair_color(graph.adjacency, 8, seed=42, chunk_size=128)
        assert first.colors == second.colors
        assert first.spilled == second.spilled

    def test_different_seed_may_differ_but_stays_valid(self):
        graph = generate_graph(500, 8.0, seed=11)
        for seed in (1, 2, 3):
            outcome = repair_color(graph.adjacency, 8, seed=seed)
            verify_coloring(graph.adjacency, outcome.colors, 8,
                            outcome.spilled)


class TestVerifyColoring:
    def test_detects_monochromatic_edge(self):
        with pytest.raises(InvariantError, match="monochromatic"):
            verify_coloring([[1], [0]], [0, 0], 2)

    def test_detects_out_of_range_color(self):
        with pytest.raises(InvariantError, match="outside"):
            verify_coloring([[]], [5], 2)

    def test_detects_uncovered_node(self):
        with pytest.raises(InvariantError, match="neither"):
            verify_coloring([[]], [-1], 2)

    def test_detects_colored_and_spilled_overlap(self):
        with pytest.raises(InvariantError, match="both"):
            verify_coloring([[]], [0], 2, spilled=[0])

    def test_detects_lost_precolor(self):
        with pytest.raises(InvariantError, match="precolored"):
            verify_coloring([[1], [0]], [1, 0], 2, precolored=1)


class TestStrategy:
    def test_registered_as_driver_method(self):
        source = "subroutine main\ns1 = 1.0\ns2 = s1 + 2.0\nprint s2\nend"
        function = compile_source(source).function("main")
        result = allocate_function(function, rt_pc(), "repair",
                                   paranoia="full")
        assert result.method == "repair"

    def test_matches_sequential_first_fit_without_chunk_races(self):
        # A single chunk makes repair one sequential first-fit sweep in
        # reversed smallest-last order; cross-check against a hand-rolled
        # reference of exactly that (briggs-degree select semantics).
        graph = generate_graph(200, 6.0, seed=8)
        k = 8
        reference = [-1] * graph.n
        for node in reversed(smallest_last_order(graph.adjacency)):
            taken = {reference[u] for u in graph.adjacency[node]}
            color = next((c for c in range(k) if c not in taken), -1)
            reference[node] = color
        outcome = repair_color(graph.adjacency, k, chunk_size=graph.n)
        assert outcome.colors == reference

    def test_allocate_class_respects_precolored_clique(self):
        spec = GraphSpec(6, 3, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
                         [1.0] * 6)
        graph, costs = build_graph(spec)
        outcome = RepairAllocator().allocate_class(graph, costs)
        assert outcome.ran_select
        for vreg, color in outcome.colors.items():
            assert 0 <= color < 3
            assert not graph.is_precolored(graph.node_of[vreg])

    def test_spill_candidates_ranked_cheapest_cost_degree_first(self):
        # K5 at k=3 must spill two nodes.  Which two is decided by the
        # coloring order (the saturated tail), but the *list* the driver
        # receives must come ranked by Chaitin's cost/degree estimate,
        # cheapest victim first.
        edges = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        spec = GraphSpec(5, 3, edges, [5.0, 1.0, 4.0, 3.0, 2.0])
        graph, costs = build_graph(spec)
        outcome = RepairAllocator().allocate_class(graph, costs)
        assert len(outcome.spilled_vregs) == 2
        estimates = [
            costs.cost(v) / max(1, graph.degree(graph.node_of[v]))
            for v in outcome.spilled_vregs
        ]
        assert estimates == sorted(estimates)

    def test_module_allocation_round_trips(self):
        source = (
            "subroutine main\n"
            "s1 = 1.0\n"
            "s2 = s1 * 2.0\n"
            "s3 = s1 + s2\n"
            "print s3\n"
            "end"
        )
        allocation = allocate_module(compile_source(source), rt_pc(),
                                     "repair", validate=True)
        assert allocation.results


class TestSynthGraph:
    def test_generator_is_deterministic(self):
        first = generate_graph(1_000, 8.0, seed=5)
        second = generate_graph(1_000, 8.0, seed=5)
        assert first.adjacency == second.adjacency
        assert first.edges == second.edges

    def test_adjacency_is_symmetric_sorted_and_loop_free(self):
        graph = generate_graph(300, 6.0, seed=1)
        for vertex, row in enumerate(graph.adjacency):
            assert row == sorted(set(row))
            assert vertex not in row
            for neighbor in row:
                assert vertex in graph.adjacency[neighbor]

    def test_bitset_rows_match_adjacency(self):
        graph = generate_graph(64, 5.0, seed=3)
        rows = graph.bitset_rows()
        for vertex, row in enumerate(graph.adjacency):
            mask = 0
            for neighbor in row:
                mask |= 1 << neighbor
            assert rows[vertex] == mask

    def test_bitset_rows_refuse_graph_scale(self):
        graph = generate_graph(0, 0.0, seed=0)
        graph.n = 10**6  # simulate scale without paying generation
        with pytest.raises(ValueError, match="bitset"):
            graph.bitset_rows()

    def test_density_lands_near_target(self):
        graph = generate_graph(5_000, 8.0, seed=2)
        average_degree = 2 * graph.edges / graph.n
        assert 7.0 < average_degree <= 8.0

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError, match="n must"):
            generate_graph(-1, 8.0)
        with pytest.raises(ValueError, match="density"):
            generate_graph(10, -2.0)
