"""Distributed (multi-source) Bellman–Ford.

The deterministic algorithm computes Voronoi decompositions w.r.t. reduced
weights with active moats as sources (Lemma 4.8); the randomized algorithm
computes the Voronoi decomposition w.r.t. the sampled set S (Lemma G.2) and
the footnote-2 estimation of ``s``. All are instances of multi-source
Bellman–Ford: every source starts with an initial distance and a *tag* (the
region/center identity); in each round, nodes whose tentative distance
improved announce (distance, tag) to all neighbors.

The iteration count until stabilization is at most the maximum hop length of
a relevant least-weight path — the quantity ``s`` bounds — so the measured
round count is exactly the paper's cost for these steps.
"""

from fractions import Fraction
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.congest.run import CongestRun
from repro.model.graph import Node, WeightedGraph

Number = object  # int or Fraction
Tag = Hashable


class BellmanFordResult:
    """Outcome of a multi-source Bellman–Ford execution.

    Attributes:
        dist: tentative distance per reached node (from its source).
        tag: the source tag (e.g. Voronoi center) per reached node.
        parent: predecessor towards the source (None at sources).
        iterations: number of relaxation rounds executed.
        stabilized: False when the run was cut off by ``max_iterations``.
    """

    def __init__(
        self,
        dist: Dict[Node, Number],
        tag: Dict[Node, Tag],
        parent: Dict[Node, Optional[Node]],
        iterations: int,
        stabilized: bool,
    ) -> None:
        self.dist = dist
        self.tag = tag
        self.parent = parent
        self.iterations = iterations
        self.stabilized = stabilized

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BellmanFordResult(reached={len(self.dist)}, "
            f"iterations={self.iterations}, stabilized={self.stabilized})"
        )


class ReducedWeights:
    """The reduced edge weights Ŵ_j of one merge phase (Definition 4.5).

    ``Ŵ_j(e) = max(0, W(e) − Σ_{x ∈ e} min(W(e), l(x)))`` where ``l(x)``
    is the leftover of a node covered by a moat (absent or 0 for
    uncovered nodes). The leftovers are fixed within a phase, so each
    edge's value is computed once and serves both directions.
    """

    __slots__ = ("graph", "leftover", "_memo")

    def __init__(
        self, graph: WeightedGraph, leftover: Mapping[Node, Fraction]
    ) -> None:
        self.graph = graph
        self.leftover = leftover
        self._memo: Dict[Tuple[Node, Node], Fraction] = {}

    def __call__(self, x: Node, y: Node) -> Fraction:
        value = self._memo.get((x, y))
        if value is None:
            w = Fraction(self.graph.weight(x, y))
            cov = Fraction(0)
            for endpoint in (x, y):
                lo = self.leftover.get(endpoint)
                if lo is not None and lo > 0:
                    cov += min(w, lo)
            value = max(Fraction(0), w - cov)
            self._memo[(x, y)] = self._memo[(y, x)] = value
        return value


def bellman_ford(
    graph: WeightedGraph,
    sources: Mapping[Node, Tuple[Number, Tag]],
    run: CongestRun,
    edge_weight: Optional[Callable[[Node, Node], Number]] = None,
    blocked: Optional[AbstractSet[Node]] = None,
    max_iterations: Optional[int] = None,
) -> BellmanFordResult:
    """Run synchronous multi-source Bellman–Ford, charging real rounds.

    Args:
        graph: the network, or a spanning subgraph of it whose edges the
            announcements follow (the F-subgraph of Corollary G.11).
        sources: node → (initial distance, tag). Tags identify regions;
            ties between equal distances are broken by (repr(tag), repr
            (parent)) so the decomposition is deterministic, mirroring the
            paper's lexicographic tie-breaking.
        run: ledger to charge rounds/messages against.
        edge_weight: override for the relaxation weight of an edge (used
            with the *reduced* weights Ŵ_j of Definition 4.5, see
            :class:`ReducedWeights`); defaults to the graph weight. Must
            be non-negative; may return Fractions.
        blocked: nodes that neither adopt nor forward distances (frozen
            inactive regions; Lemma 4.8 leaves their trees untouched).
        max_iterations: stop (possibly unstabilized) after this many rounds
            — the footnote-2 "run for √n iterations" device.

    Returns a :class:`BellmanFordResult`. The relaxation is the ledger's
    :meth:`~repro.congest.run.CongestRun.bellman_ford` kernel, whose
    default is :func:`relax`.
    """
    return run.bellman_ford(
        graph, sources, edge_weight, blocked or frozenset(), max_iterations
    )


def relax(
    run: CongestRun,
    graph: WeightedGraph,
    sources: Mapping[Node, Tuple[Number, Tag]],
    edge_weight: Optional[Callable[[Node, Node], Number]],
    blocked: AbstractSet[Node],
    max_iterations: Optional[int],
) -> BellmanFordResult:
    """The relaxation body of :func:`bellman_ford`."""
    if edge_weight is None:
        edge_weight = graph.weight
    # Nodes announce over ``graph``'s edges. On the ledger's own network
    # the ledger reads and charges them; a subgraph's announcements are
    # charged as explicit traffic.
    if graph is run.graph:
        neighbors, announce = run.neighbors, run.tick_from
    else:
        neighbors = graph.neighbors

        def announce(senders: List[Node]) -> None:
            run.tick({(u, v): 1 for u in senders for v in neighbors(u)})

    dist: Dict[Node, Number] = {}
    tag: Dict[Node, Tag] = {}
    parent: Dict[Node, Optional[Node]] = {}
    for v, (d0, source_tag) in sources.items():
        dist[v] = Fraction(d0)
        tag[v] = source_tag
        parent[v] = None

    # Sources never change their (distance, tag, parent): the paper's
    # decompositions extend existing trees without touching them
    # (Lemma 4.8: "the old trees are not touched, but simply extended").
    immutable = frozenset(sources)

    changed: Set[Node] = set(sources)
    iterations = 0
    while changed:
        if max_iterations is not None and iterations >= max_iterations:
            return BellmanFordResult(dist, tag, parent, iterations, False)
        iterations += 1
        updates: Dict[Node, Tuple[Number, str, str, Tag, Node]] = {}
        announcers = sorted(changed, key=run.key)
        for u in announcers:
            du = dist[u]
            tu = tag[u]
            tu_key = repr(tu)
            u_key = run.key(u)
            for v in neighbors(u):
                if v in blocked or v in immutable:
                    continue
                cand_dist = du + edge_weight(u, v)
                current = updates.get(v)
                if current is None or (cand_dist, tu_key, u_key) < current[:3]:
                    updates[v] = (cand_dist, tu_key, u_key, tu, u)
        announce(announcers)
        changed = set()
        for v, (cand_dist, new_tag_key, _, new_tag, new_parent) in (
            updates.items()
        ):
            if v in dist:
                # Strictly smaller (dist, tag) only — comparing the parent
                # as well would let equal-distance updates flip parents
                # forever across zero-weight (fully covered) edges.
                if (cand_dist, new_tag_key) >= (dist[v], repr(tag[v])):
                    continue
            dist[v] = cand_dist
            tag[v] = new_tag
            parent[v] = new_parent
            changed.add(v)
    return BellmanFordResult(dist, tag, parent, iterations, True)
