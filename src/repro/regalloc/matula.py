"""Standalone Matula–Beck smallest-last ordering and greedy coloring.

The paper's §2.2 credits Matula & Beck [MaBe 81] for the key data
structure and for the observation that coloring in reverse smallest-last
order is both linear-time and stronger than Chaitin's simplification.
This module exposes the algorithm over a *plain* graph (no precolored
nodes, no costs) — conflict-repair coloring
(:mod:`repro.regalloc.repair`) takes its order from here, and the
unit/property tests use it as the pure graph-coloring reference point.
"""

from __future__ import annotations

from repro.regalloc.worklists import DegreeBuckets


def smallest_last_order(adjacency: list) -> list:
    """Smallest-last vertex ordering of a graph given as adjacency lists.

    Returns the vertices in *removal* order: each vertex had minimum
    degree in the subgraph remaining when it was removed.  Reversing the
    result gives the coloring order.  Runs in O(V + E).
    """
    n = len(adjacency)
    if n == 0:
        return []
    buckets = DegreeBuckets(n, max_degree=max(1, n))
    removed = [False] * n
    for node in range(n):
        buckets.add(node, len(adjacency[node]))
    order = []
    while len(buckets):
        node = buckets.pop_min()
        order.append(node)
        removed[node] = True
        for neighbor in adjacency[node]:
            if not removed[neighbor]:
                buckets.decrement(neighbor)
    return order


def greedy_color(adjacency: list, order: list | None = None) -> list:
    """First-fit coloring in reverse smallest-last order.

    Returns a color per vertex.  Uses at most ``1 + max over the ordering
    of the back-degree`` colors — the Matula–Beck bound (equal to one plus
    the graph's degeneracy when the smallest-last order is used).
    """
    n = len(adjacency)
    if order is None:
        order = smallest_last_order(adjacency)
    else:
        _validate_order(order, n)
    colors = [-1] * n
    for node in reversed(order):
        taken = 0
        for neighbor in adjacency[node]:
            color = colors[neighbor]
            if color >= 0:
                taken |= 1 << color
        color = 0
        while (taken >> color) & 1:
            color += 1
        colors[node] = color
    return colors


def _validate_order(order: list, n: int) -> None:
    """A caller-supplied order must be a permutation of range(n).

    Without this, a short order silently leaves vertices uncolored at -1
    and a duplicated vertex is recolored against a half-built taken mask
    — both produce a wrong coloring with no error.
    """
    if len(order) != n:
        raise ValueError(
            f"order has {len(order)} entries for a {n}-vertex graph")
    seen = [False] * n
    for vertex in order:
        if not 0 <= vertex < n:
            raise ValueError(f"order contains out-of-range vertex {vertex!r}")
        if seen[vertex]:
            raise ValueError(f"order lists vertex {vertex} more than once")
        seen[vertex] = True


def degeneracy(adjacency: list) -> int:
    """Graph degeneracy: max, over the smallest-last removal, of the degree
    at removal time.  ``degeneracy + 1`` bounds the greedy color count."""
    n = len(adjacency)
    if n == 0:
        return 0
    buckets = DegreeBuckets(n, max_degree=max(1, n))
    removed = [False] * n
    for node in range(n):
        buckets.add(node, len(adjacency[node]))
    worst = 0
    while len(buckets):
        degree = buckets.min_degree()
        worst = max(worst, degree)
        node = buckets.pop_min()
        removed[node] = True
        for neighbor in adjacency[node]:
            if not removed[neighbor]:
                buckets.decrement(neighbor)
    return worst
