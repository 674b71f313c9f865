"""Weighted undirected graphs and the metrics used by the paper.

The CONGEST model of Section 2 assumes a connected graph ``G = (V, E, W)``
with positive, polynomially bounded integer weights. Three graph parameters
drive all running-time bounds:

* ``D``  — the *unweighted* diameter (max hop distance),
* ``WD`` — the *weighted* diameter (max weighted distance),
* ``s``  — the *shortest-path diameter*: the maximum over node pairs of the
  minimum number of hops among all least-weight paths between the pair.

This module provides :class:`WeightedGraph`, a small immutable adjacency
structure with deterministic shortest-path computations (ties between
least-weight paths are broken first by hop count, then lexicographically by
predecessor identifier, mirroring the paper's "different paths have different
weight, ties broken lexicographically" convention), plus weighted balls with
fractionally contained edges as used by moat growing.
"""

import heapq
from fractions import Fraction
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx

from repro.exceptions import GraphValidationError

Node = Hashable
Edge = Tuple[Node, Node]
WeightedEdge = Tuple[Node, Node, int]


def canonical_edge(u: Node, v: Node) -> Edge:
    """Return the canonical (sorted) representation of the undirected edge."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


class Ball:
    """A weighted ball ``B_G(v, r)`` with fractionally contained edges.

    Following Section 2 of the paper, the ball of radius ``r`` around ``v``
    contains every node at weighted distance at most ``r`` from ``v`` and, for
    an edge ``{w, u}`` with ``w`` inside the ball, the fraction
    ``(r - wd(v, w)) / W(w, u)`` of the edge closest to ``w``.

    Attributes:
        center: the ball's center node.
        radius: the (possibly fractional) radius.
        nodes: the set of nodes inside the ball.
        edge_fractions: mapping from canonical edge to the fraction of the
            edge's weight contained in the ball, as a ``Fraction`` in [0, 1].
    """

    __slots__ = ("center", "radius", "nodes", "edge_fractions")

    def __init__(
        self,
        center: Node,
        radius: Fraction,
        nodes: FrozenSet[Node],
        edge_fractions: Mapping[Edge, Fraction],
    ) -> None:
        self.center = center
        self.radius = radius
        self.nodes = nodes
        self.edge_fractions = dict(edge_fractions)

    def contains_node(self, v: Node) -> bool:
        return v in self.nodes

    def covered_weight(self) -> Fraction:
        """Total edge weight (counting fractions) inside the ball."""
        return sum(self.edge_fractions.values(), Fraction(0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Ball(center={self.center!r}, radius={self.radius}, "
            f"|nodes|={len(self.nodes)})"
        )


class WeightedGraph:
    """An undirected, connected graph with positive integer edge weights.

    Nodes may be arbitrary hashable, mutually comparable values; the test
    suite and generators use integers, matching the paper's O(log n)-bit
    identifiers. The structure is immutable after construction, which lets
    the metrics ``D``, ``WD``, ``s`` and per-source distance rows be
    cached.
    """

    def __init__(
        self,
        nodes: Iterable[Node],
        edges: Iterable[WeightedEdge],
        validate: bool = True,
    ) -> None:
        self._adj: Dict[Node, Dict[Node, int]] = {v: {} for v in nodes}
        for u, v, w in edges:
            if u == v:
                raise GraphValidationError(f"self-loop on node {u!r}")
            if u not in self._adj or v not in self._adj:
                raise GraphValidationError(
                    f"edge ({u!r}, {v!r}) references unknown node"
                )
            if v in self._adj[u] and self._adj[u][v] != w:
                raise GraphValidationError(
                    f"conflicting weights for edge ({u!r}, {v!r})"
                )
            self._adj[u][v] = w
            self._adj[v][u] = w
        self._nodes: Tuple[Node, ...] = tuple(
            sorted(self._adj, key=repr)
        )
        self._rank: Optional[Dict[Node, int]] = None
        self._rank_adj: List[Tuple[Tuple[int, int], ...]] = []
        self._rows: Dict[Node, Dict[Node, int]] = {}
        self._metric_cache: Dict[str, int] = {}
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[WeightedEdge], validate: bool = True
    ) -> "WeightedGraph":
        """Build a graph whose node set is implied by the edge list."""
        edges = list(edges)
        nodes = {u for u, _, _ in edges} | {v for _, v, _ in edges}
        return cls(nodes, edges, validate=validate)

    @classmethod
    def from_networkx(cls, graph: nx.Graph, weight: str = "weight") -> "WeightedGraph":
        """Build from a networkx graph; missing weights default to 1."""
        edges = [
            (u, v, int(data.get(weight, 1)))
            for u, v, data in graph.edges(data=True)
        ]
        return cls(graph.nodes(), edges)

    def to_networkx(self) -> nx.Graph:
        """Export to a networkx graph with a ``weight`` attribute."""
        graph = nx.Graph()
        graph.add_nodes_from(self._nodes)
        for u, v, w in self.edges():
            graph.add_edge(u, v, weight=w)
        return graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[Node, ...]:
        """All nodes, in deterministic (sorted) order."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def edges(self) -> List[WeightedEdge]:
        """All edges as (u, v, weight) with canonical endpoint order."""
        seen: Set[Edge] = set()
        result: List[WeightedEdge] = []
        for u in self._nodes:
            for v, w in self._adj[u].items():
                edge = canonical_edge(u, v)
                if edge not in seen:
                    seen.add(edge)
                    result.append((edge[0], edge[1], w))
        return result

    def edge_set(self) -> FrozenSet[Edge]:
        """All edges as a frozen set of canonical pairs."""
        return frozenset(canonical_edge(u, v) for u, v, _ in self.edges())

    def has_node(self, v: Node) -> bool:
        return v in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Node) -> Tuple[Node, ...]:
        """Neighbors of ``v`` in deterministic order."""
        return tuple(sorted(self._adj[v], key=repr))

    def adjacency(self, v: Node) -> Mapping[Node, int]:
        """The neighbor → weight mapping of ``v``, unsorted.

        A read-only view of the internal adjacency, for topology
        compilers that impose their own order (sorting here would
        redo per-call what they do once); everything else should use
        :meth:`neighbors`, whose order is the deterministic contract.
        """
        return MappingProxyType(self._adj[v])

    def degree(self, v: Node) -> int:
        return len(self._adj[v])

    def weight(self, u: Node, v: Node) -> int:
        """Weight of the edge {u, v}; raises KeyError if absent."""
        return self._adj[u][v]

    def total_weight(self) -> int:
        """Sum of all edge weights."""
        return sum(w for _, _, w in self.edges())

    def edge_weight_sum(self, edges: Iterable[Edge]) -> int:
        """Total weight of the given edge set."""
        return sum(self._adj[u][v] for u, v in edges)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the Section 2 model assumptions.

        Raises GraphValidationError if the graph is empty, has non-positive
        or non-integer weights, or is disconnected.
        """
        if not self._nodes:
            raise GraphValidationError("graph has no nodes")
        for u, v, w in self.edges():
            if not isinstance(w, int) or isinstance(w, bool):
                raise GraphValidationError(
                    f"edge ({u!r}, {v!r}) has non-integer weight {w!r}"
                )
            if w <= 0:
                raise GraphValidationError(
                    f"edge ({u!r}, {v!r}) has non-positive weight {w}"
                )
        if not self.is_connected():
            raise GraphValidationError("graph is not connected")

    def is_connected(self) -> bool:
        """Whether the graph is connected (single component)."""
        if not self._nodes:
            return False
        seen = {self._nodes[0]}
        stack = [self._nodes[0]]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(self._nodes)

    # ------------------------------------------------------------------
    # Shortest paths (deterministic tie-breaking)
    # ------------------------------------------------------------------

    def _ranked(self) -> Tuple[Dict[Node, int], List[Tuple[Tuple[int, int], ...]]]:
        """Each node's position in :attr:`nodes`, and the adjacency as
        (neighbor rank, weight) runs indexed by rank (built on first use).

        ``nodes`` is sorted by ``repr``, so comparing ranks is comparing
        ``repr`` strings — the deterministic order every tie-break in
        this module uses — at the cost of an integer comparison. Each
        run keeps the internal mapping's order, so a search over ranks
        discovers nodes in the same order as one over node keys.
        """
        if self._rank is None:
            rank = {v: i for i, v in enumerate(self._nodes)}
            self._rank_adj = [
                tuple((rank[v], w) for v, w in self._adj[u].items())
                for u in self._nodes
            ]
            self._rank = rank
        return self._rank, self._rank_adj

    def _sssp(
        self, source: Node, stop: int = -1
    ) -> Tuple[List[int], List[int], List[int], List[int]]:
        """The one single-source pass behind every oracle query.

        Dijkstra over the lexicographic key (distance, hops, predecessor
        rank), entirely in rank space. Returns rank-indexed lists
        (order, dist, hops, parent): ``order`` holds the reached ranks
        in discovery order; ``dist[r]`` is wd(source, ·) (-1 when
        unreached); ``hops[r]`` the minimum hop count among least-weight
        paths (with positive weights, (dist, hops) is itself a positive
        path length); ``parent[r]`` the smallest-rank predecessor
        achieving both (-1 at the source). Heap entries are
        (dist, hops, rank), so pops among equal keys follow the ``repr``
        order too. The search ends early once rank ``stop`` is settled:
        its path back to the source is final by then.
        """
        rank, adj = self._ranked()
        n = len(self._nodes)
        first = rank[source]
        dist = [-1] * n
        hops = [0] * n
        parent = [-1] * n
        done = [False] * n
        dist[first] = 0
        order = [first]
        heap: List[Tuple[int, int, int]] = [(0, 0, first)]
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            d, h, r = pop(heap)
            if done[r]:
                continue
            if r == stop:
                break
            done[r] = True
            h += 1
            for v, w in adj[r]:
                nd = d + w
                old = dist[v]
                if old < 0:
                    order.append(v)
                # A settled v never passes: its key is below (d, h - 1).
                elif nd > old or (
                    nd == old
                    and (h > hops[v] or (h == hops[v] and r >= parent[v]))
                ):
                    continue
                dist[v] = nd
                hops[v] = h
                parent[v] = r
                push(heap, (nd, h, v))
        return order, dist, hops, parent

    def dijkstra(
        self, source: Node
    ) -> Tuple[Dict[Node, int], Dict[Node, Optional[Node]]]:
        """Single-source shortest paths with deterministic tie-breaking.

        Among least-weight paths, prefers fewer hops, then the
        lexicographically smallest predecessor. Returns (distances, parents);
        ``parents[source] is None``.
        """
        order, dist, _, parent = self._sssp(source)
        nodes = self._nodes
        return (
            {nodes[r]: dist[r] for r in order},
            {
                nodes[r]: nodes[parent[r]] if parent[r] >= 0 else None
                for r in order
            },
        )

    def distances_from(self, source: Node) -> Dict[Node, int]:
        """The distance row wd(source, ·) (cached per source).

        The row is shared with later callers; do not mutate it.
        """
        row = self._rows.get(source)
        if row is None:
            row = self._rows[source] = self.dijkstra(source)[0]
        return row

    def distance(self, u: Node, v: Node) -> int:
        """Weighted distance wd(u, v)."""
        return self.distances_from(u)[v]

    def shortest_path(self, u: Node, v: Node) -> List[Node]:
        """A deterministic least-weight path from ``u`` to ``v`` (node list)."""
        rank, _ = self._ranked()
        goal = rank.get(v, -1)
        _, dist, _, parent = self._sssp(u, stop=goal)
        if goal < 0 or dist[goal] < 0:
            raise GraphValidationError(f"{v!r} unreachable from {u!r}")
        path = [goal]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        return [self._nodes[r] for r in reversed(path)]

    @staticmethod
    def path_edges(path: Sequence[Node]) -> List[Edge]:
        """Canonical edge list of a node path."""
        return [canonical_edge(a, b) for a, b in zip(path, path[1:])]

    def path_weight(self, path: Sequence[Node]) -> int:
        """Total weight of a node path."""
        return sum(self._adj[a][b] for a, b in zip(path, path[1:]))

    def all_pairs_distances(self) -> Dict[Node, Dict[Node, int]]:
        """All-pairs weighted distances: every :meth:`distances_from` row."""
        return {v: self.distances_from(v) for v in self._nodes}

    def min_hop_shortest_path_hops(self, source: Node) -> Dict[Node, int]:
        """For each node, the min hop count among least-weight paths from
        ``source`` (not cached).

        This is the inner quantity of the shortest-path diameter ``s``.
        """
        order, _, hops, _ = self._sssp(source)
        nodes = self._nodes
        return {nodes[r]: hops[r] for r in order}

    # ------------------------------------------------------------------
    # Paper metrics
    # ------------------------------------------------------------------

    def unweighted_diameter(self) -> int:
        """D — the hop diameter of the graph (cached)."""
        if "D" not in self._metric_cache:
            best = 0
            for source in self._nodes:
                level = {source: 0}
                frontier = [source]
                depth = 0
                while frontier:
                    depth += 1
                    nxt = []
                    for u in frontier:
                        for v in self._adj[u]:
                            if v not in level:
                                level[v] = depth
                                nxt.append(v)
                    frontier = nxt
                best = max(best, max(level.values()))
            self._metric_cache["D"] = best
        return self._metric_cache["D"]

    def weighted_diameter(self) -> int:
        """WD — the maximum weighted distance between any node pair (cached)."""
        if "WD" not in self._metric_cache:
            apd = self.all_pairs_distances()
            self._metric_cache["WD"] = max(
                max(row.values()) for row in apd.values()
            )
        return self._metric_cache["WD"]

    def shortest_path_diameter(self) -> int:
        """s — max over pairs of min hops among least-weight paths (cached)."""
        if "s" not in self._metric_cache:
            # n single-source passes, each reduced to one integer at
            # once: no hop or distance row outlives its pass.
            self._metric_cache["s"] = max(
                max(self._sssp(source)[2]) for source in self._nodes
            )
        return self._metric_cache["s"]

    # ------------------------------------------------------------------
    # Weighted balls (moat geometry)
    # ------------------------------------------------------------------

    def ball(self, center: Node, radius: Fraction) -> Ball:
        """The weighted ball ``B_G(center, radius)`` with fractional edges.

        See Section 2 of the paper: an edge {w, u} with ``w`` inside the ball
        contributes the fraction of its weight covered by the remaining
        radius at ``w`` (from both endpoints if both are inside).
        """
        radius = Fraction(radius)
        dist, _ = self.dijkstra(center)
        nodes = frozenset(v for v, d in dist.items() if d <= radius)
        edge_fractions: Dict[Edge, Fraction] = {}
        for u, v, w in self.edges():
            covered = Fraction(0)
            if u in nodes:
                covered += min(Fraction(w), radius - dist[u])
            if v in nodes:
                covered += min(Fraction(w), radius - dist[v])
            covered = min(covered, Fraction(w))
            if covered > 0:
                edge_fractions[canonical_edge(u, v)] = covered / w
        return Ball(center, radius, nodes, edge_fractions)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self.num_nodes}, m={self.num_edges})"
