"""Exact minimum Steiner tree via the Dreyfus–Wagner dynamic program.

``dp[S][v]`` is the minimum weight of a tree that spans terminal subset ``S``
plus the node ``v``. The recurrence alternates subset merges at a common
node with shortest-path relaxations:

    dp[S][v] = min( min_{∅≠T⊊S} dp[T][v] + dp[S∖T][v],
                    min_u dp[S][u] + wd(u, v) )

Runtime is O(3^t · n + 2^t · n²) for ``t`` terminals, practical up to about
t = 12 on the instance sizes used by the benchmark harness.
"""

import heapq
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.model.graph import Edge, Node, WeightedGraph, canonical_edge


def steiner_tree_cost(
    graph: WeightedGraph, terminals: Iterable[Node]
) -> int:
    """Exact minimum weight of a Steiner tree spanning ``terminals``."""
    cost, _ = _dreyfus_wagner(graph, list(terminals), reconstruct=False)
    return cost


def steiner_tree_edges(
    graph: WeightedGraph, terminals: Iterable[Node]
) -> FrozenSet[Edge]:
    """An optimal Steiner tree's edge set (any optimum; deterministic)."""
    _, edges = _dreyfus_wagner(graph, list(terminals), reconstruct=True)
    assert edges is not None
    return edges


def _dreyfus_wagner(
    graph: WeightedGraph,
    terminals: Sequence[Node],
    reconstruct: bool,
) -> Tuple[int, Optional[FrozenSet[Edge]]]:
    terminals = sorted(set(terminals), key=repr)
    if len(terminals) <= 1:
        return 0, frozenset()
    nodes = graph.nodes
    t = len(terminals)
    full = (1 << t) - 1

    # dp[mask] : dict node -> cost ; choice[(mask, v)] records how the value
    # was attained for reconstruction.
    dp: List[Dict[Node, int]] = [dict() for _ in range(full + 1)]
    choice: Dict[Tuple[int, Node], Tuple[str, object]] = {}

    for i, term in enumerate(terminals):
        mask = 1 << i
        row = graph.distances_from(term)
        for v in nodes:
            dp[mask][v] = row[v]
            if reconstruct:
                choice[(mask, v)] = ("path", term)

    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue  # singletons initialized above
        table = dp[mask]
        # Merge step: split mask into sub ∪ (mask ∖ sub) at each node.
        sub = (mask - 1) & mask
        while sub:
            if sub < (mask ^ sub):  # enumerate each split once
                other = mask ^ sub
                d_sub, d_other = dp[sub], dp[other]
                for v in nodes:
                    cand = d_sub[v] + d_other[v]
                    if v not in table or cand < table[v]:
                        table[v] = cand
                        if reconstruct:
                            choice[(mask, v)] = ("merge", sub)
            sub = (sub - 1) & mask
        # Relax step: Dijkstra from all nodes with their current values.
        heap = [(c, repr(v), v) for v, c in table.items()]
        heapq.heapify(heap)
        settled: Set[Node] = set()
        while heap:
            c, _, u = heapq.heappop(heap)
            if u in settled or table.get(u, c + 1) < c:
                continue
            settled.add(u)
            for v in graph.neighbors(u):
                cand = c + graph.weight(u, v)
                if v not in table or cand < table[v]:
                    table[v] = cand
                    if reconstruct:
                        choice[(mask, v)] = ("edge", u)
                    heapq.heappush(heap, (cand, repr(v), v))

    root = terminals[0]
    best_cost = dp[full][root]
    if not reconstruct:
        return best_cost, None

    # Reconstruction: unwind the (mask, node) choices.
    edges: Set[Edge] = set()
    stack: List[Tuple[int, Node]] = [(full, root)]
    while stack:
        mask, v = stack.pop()
        if mask == 0:
            continue
        kind, data = choice[(mask, v)]
        if kind == "path":
            path = graph.shortest_path(data, v)  # type: ignore[arg-type]
            edges.update(
                canonical_edge(a, b) for a, b in zip(path, path[1:])
            )
        elif kind == "merge":
            sub = int(data)  # type: ignore[call-overload]
            stack.append((sub, v))
            stack.append((mask ^ sub, v))
        else:  # kind == "edge"
            u = data
            edges.add(canonical_edge(u, v))  # type: ignore[arg-type]
            stack.append((mask, u))  # type: ignore[arg-type]
    return best_cost, frozenset(edges)
