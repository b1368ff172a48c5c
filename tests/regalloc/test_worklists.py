"""Tests for the Matula–Beck degree buckets, and the linear work they
buy simplify and select."""

import pytest

from repro.analysis.cfg import CFG
from repro.analysis.liveness import Liveness
from repro.errors import AllocationError
from repro.experiments.runner import EXPERIMENT_TARGET
from repro.frontend import compile_source
from repro.regalloc import (
    DegreeBuckets,
    InterferenceGraph,
    build_interference_graphs,
    compute_spill_costs,
    select_colors,
    simplify,
)
from repro.workloads import get_workload
from repro.workloads.cedeta import (
    generate_fcn,
    generate_gradnt,
    generate_hssian,
    generate_terms,
)


class CountingGraph(InterferenceGraph):
    """An interference graph that counts every neighbor handed out by
    ``neighbors()``: the whole of a phase's edge work."""

    visits = 0

    def neighbors(self, node):
        for neighbor in super().neighbors(node):
            self.visits += 1
            yield neighbor

    def degree(self, node):
        return len(self.adj_list[node])


def _hssian(n_vars):
    """The generated HSSIAN routine at ``n_vars`` variables."""
    terms = generate_terms(n=n_vars, seed=7)
    source = "\n".join([
        generate_fcn(terms, n_vars),
        generate_gradnt(terms, n_vars),
        generate_hssian(terms, n_vars),
    ])
    return compile_source(source).function("hssian")


def _gradnt():
    return get_workload("cedeta").compile().function("gradnt")


class TestBasics:
    def test_add_and_len(self):
        b = DegreeBuckets(4, max_degree=3)
        b.add(0, 2)
        b.add(1, 0)
        assert len(b) == 2
        assert 0 in b
        assert 2 not in b

    def test_duplicate_add_rejected(self):
        b = DegreeBuckets(2, max_degree=1)
        b.add(0, 0)
        with pytest.raises(AllocationError, match="already"):
            b.add(0, 1)

    def test_degree_bound_enforced(self):
        b = DegreeBuckets(2, max_degree=1)
        with pytest.raises(AllocationError, match="exceeds"):
            b.add(0, 5)

    def test_pop_min_returns_lowest_degree(self):
        b = DegreeBuckets(3, max_degree=5)
        b.add(0, 5)
        b.add(1, 2)
        b.add(2, 4)
        assert b.pop_min() == 1
        assert b.pop_min() == 2
        assert b.pop_min() == 0
        assert len(b) == 0

    def test_pop_empty_raises(self):
        b = DegreeBuckets(1, max_degree=1)
        with pytest.raises(AllocationError, match="empty"):
            b.pop_min()

    def test_remove_specific_node(self):
        b = DegreeBuckets(3, max_degree=3)
        b.add(0, 1)
        b.add(1, 1)
        b.add(2, 1)
        b.remove(1)
        assert 1 not in b
        assert sorted([b.pop_min(), b.pop_min()]) == [0, 2]

    def test_remove_absent_raises(self):
        b = DegreeBuckets(2, max_degree=1)
        with pytest.raises(AllocationError, match="not in"):
            b.remove(0)


class TestDecrement:
    def test_decrement_moves_bucket(self):
        b = DegreeBuckets(2, max_degree=3)
        b.add(0, 3)
        b.add(1, 1)
        b.decrement(0)
        b.decrement(0)
        # 0 now has degree 1 like node 1; pop order by bucket then list.
        popped = {b.pop_min(), b.pop_min()}
        assert popped == {0, 1}
        assert b.degree[0] == 1

    def test_decrement_absent_is_noop(self):
        b = DegreeBuckets(2, max_degree=2)
        b.add(0, 2)
        b.decrement(1)  # must not raise
        assert len(b) == 1

    def test_decrement_zero_raises(self):
        b = DegreeBuckets(1, max_degree=1)
        b.add(0, 0)
        with pytest.raises(AllocationError, match="degree-0"):
            b.decrement(0)


class TestScanPointer:
    def test_scan_restarts_below_after_pop(self):
        # Removing a node of degree i may only create degree i-1 nodes.
        b = DegreeBuckets(4, max_degree=5)
        b.add(0, 3)
        b.add(1, 4)
        b.add(2, 5)
        assert b.pop_min() == 0
        assert b.scan_from == 2  # 3 - 1
        b.decrement(1)  # 1 drops to degree 3
        assert b.pop_min() == 1

    def test_add_lower_degree_rewinds_scan(self):
        b = DegreeBuckets(3, max_degree=5)
        b.add(0, 5)
        assert b.min_degree() == 5
        b.add(1, 1)
        assert b.min_degree() == 1

    def test_nodes_sorted_by_degree(self):
        b = DegreeBuckets(4, max_degree=9)
        b.add(0, 9)
        b.add(1, 0)
        b.add(2, 4)
        b.add(3, 4)
        nodes = b.nodes()
        assert nodes[0] == 1
        assert set(nodes[1:3]) == {2, 3}
        assert nodes[3] == 0


class TestLinearWork:
    """§2.2/§3.3: outside the cost/degree victim search, simplify and
    select take time linear in the size of the interference graph."""

    def test_full_simplification_matches_naive(self):
        # Simulate removing nodes from a random graph and confirm the
        # buckets always yield a node of globally minimal degree.
        import random

        rng = random.Random(7)
        n = 60
        adjacency = [set() for _ in range(n)]
        for _ in range(250):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                adjacency[a].add(b)
                adjacency[b].add(a)
        buckets = DegreeBuckets(n, max_degree=n)
        for node in range(n):
            buckets.add(node, len(adjacency[node]))
        alive = set(range(n))
        while len(buckets):
            node = buckets.pop_min()
            naive_min = min(len(adjacency[v] & alive) for v in alive)
            assert len(adjacency[node] & alive) == naive_min
            alive.discard(node)
            for neighbor in adjacency[node]:
                if neighbor in alive:
                    buckets.decrement(neighbor)

    @pytest.mark.parametrize(
        "function",
        [
            pytest.param(lambda: _hssian(6), id="hssian-6"),
            pytest.param(lambda: _hssian(10), id="hssian-10"),
            pytest.param(lambda: _hssian(14), id="hssian-14"),
            pytest.param(_gradnt, id="gradnt"),
        ],
    )
    def test_each_phase_visits_every_edge_once(self, function):
        """Simplify walks the neighbors of each node it removes, select
        those of each node it colors, once each: the summed degree of
        the nodes processed, at most 2·E per phase."""
        function = function()
        costs = compute_spill_costs(function)
        graphs = build_interference_graphs(
            function, EXPERIMENT_TARGET, Liveness(function, CFG(function))
        ).values()
        for graph in graphs:
            graph.__class__ = CountingGraph
        constrained = 0
        for optimistic in (True, False):
            for graph in graphs:
                graph.visits = 0
                outcome = simplify(graph, costs, optimistic=optimistic)
                removed = outcome.stack + outcome.marked_for_spill
                assert sorted(removed) == list(range(graph.k, graph.num_nodes))
                assert graph.visits == sum(map(graph.degree, removed))
                assert graph.visits <= 2 * graph.edge_count()
                constrained += len(outcome.constrained_choices)

                graph.visits = 0
                select_colors(graph, outcome.stack)
                assert graph.visits == sum(map(graph.degree, outcome.stack))
        # The graphs are pressured enough that the cost/degree victim
        # search ran; it reads the buckets' degrees, never neighbors().
        assert constrained
