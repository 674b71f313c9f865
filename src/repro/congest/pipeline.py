"""Pipelined, filtered upcast of candidate merges (Lemma 4.14 machinery).

The deterministic algorithm repeatedly collects, at a BFS root, the ascending
sequence of *candidate merges* while discarding those that close cycles in
the candidate multigraph — exactly the MST edge-elimination procedure of
Garay–Kutten–Peleg [11, 16] that the paper re-uses:

1. each node scans its buffer in ascending order and deletes merges closing
   a cycle with the union of the already fixed forest F'_c and the smaller
   merges it currently believes in;
2. it announces the least-weight unannounced surviving merge to its parent;
3. buffers accumulate received merges.

Pipelining guarantees that after ``depth + i`` rounds the ``i`` smallest
surviving merges have reached the root, giving O(D + |result|) rounds overall
(Corollary 4.16 additionally stops early at a phase boundary, which the
``stop_predicate`` hook implements).
"""

from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.congest.bfs import BFSTree
from repro.congest.run import CongestRun
from repro.model.graph import Node
from repro.util import UnionFind


class MergeItem:
    """A candidate merge flowing through the filtered upcast.

    Attributes:
        key: a totally ordered tuple — for the paper's order this is
            (phase index, reduced weight, tie-break identifiers), cf.
            Lemma 4.13.
        a, b: the two entities (terminals / moat leaders) the merge joins;
            used for cycle filtering.
        payload: opaque data carried along (e.g. the inducing edge and path
            information); not part of the order.
    """

    __slots__ = ("key", "a", "b", "payload")

    def __init__(
        self, key: tuple, a: Hashable, b: Hashable, payload: object = None
    ) -> None:
        self.key = key
        self.a = a
        self.b = b
        self.payload = payload

    def __lt__(self, other: "MergeItem") -> bool:
        return self.key < other.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MergeItem) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MergeItem(key={self.key!r}, {self.a!r}–{self.b!r})"


def kruskal_filter(
    items: Sequence[MergeItem],
    base_component: Mapping[Hashable, Hashable],
) -> List[MergeItem]:
    """Ascending Kruskal scan: keep merges that do not close cycles.

    ``base_component`` maps each entity to its connectivity component under
    the already-fixed forest F'_c (entities absent from the mapping are their
    own components).
    """
    uf = UnionFind()
    alive: List[MergeItem] = []
    for item in sorted(items):
        rep_a = base_component.get(item.a, item.a)
        rep_b = base_component.get(item.b, item.b)
        if uf.union(rep_a, rep_b):
            alive.append(item)
    return alive


def pipelined_filtered_upcast(
    tree: BFSTree,
    local_items: Dict[Node, List[MergeItem]],
    base_component: Mapping[Hashable, Hashable],
    run: CongestRun,
    stop_predicate: Optional[Callable[[List[MergeItem]], bool]] = None,
) -> List[MergeItem]:
    """Collect the ascending cycle-free merge sequence at the root.

    Args:
        tree: BFS tree used for the convergecast.
        local_items: candidate merges initially known per node (Ec(u)).
        base_component: entity → component under the fixed forest F'_c;
            merges internal to one component are filtered immediately.
        run: ledger to charge rounds against.
        stop_predicate: called on each *finalized* ascending prefix of
            accepted merges; once it returns True the collection stops and
            exactly that prefix is returned (Corollary 4.16's early stop at
            the end of a merge phase). Prefixes are finalized using the
            pipelining invariant: after depth + i rounds the i smallest
            surviving merges are at the root.

    Returns the accepted merges in ascending order. The collection is the
    ledger's :meth:`~repro.congest.run.CongestRun.filtered_upcast` kernel,
    whose default is :func:`filtered_upcast`; it runs in a
    ``pipelined-upcast`` profiler span.
    """
    with run.span("pipelined-upcast"):
        return run.filtered_upcast(
            tree, local_items, base_component, stop_predicate
        )


def filtered_upcast(
    run: CongestRun,
    tree: BFSTree,
    local_items: Dict[Node, List[MergeItem]],
    base_component: Mapping[Hashable, Hashable],
    stop_predicate: Optional[Callable[[List[MergeItem]], bool]],
) -> List[MergeItem]:
    """The round-by-round body of :func:`pipelined_filtered_upcast`:
    every round each node re-runs the Kruskal filter over its buffer and
    announces its least unannounced surviving merge."""
    buffers: Dict[Node, List[MergeItem]] = {v: [] for v in tree.parent}
    announced: Dict[Node, Set[tuple]] = {v: set() for v in tree.parent}
    seen: Dict[Node, Set[tuple]] = {v: set() for v in tree.parent}
    for v, items in local_items.items():
        for item in items:
            if item.key not in seen[v]:
                seen[v].add(item.key)
                buffers[v].append(item)

    rounds_in_primitive = 0
    while True:
        # Root-side early stop on the finalized prefix.
        root_alive = kruskal_filter(buffers[tree.root], base_component)
        finalized = max(0, rounds_in_primitive - tree.depth)
        prefix = root_alive[: min(finalized, len(root_alive))]
        if stop_predicate is not None:
            for cut in range(1, len(prefix) + 1):
                if stop_predicate(prefix[:cut]):
                    run.charge_rounds(
                        tree.depth, "phase-end stop broadcast (Cor. 4.16)"
                    )
                    return prefix[:cut]

        traffic: Dict[Tuple[Node, Node], int] = {}
        arrivals: List[Tuple[Node, MergeItem]] = []
        for v in tree.parent:
            if v == tree.root:
                continue
            candidate = None
            for item in kruskal_filter(buffers[v], base_component):
                if item.key not in announced[v]:
                    candidate = item
                    break
            if candidate is None:
                continue
            parent = tree.parent[v]
            assert parent is not None
            announced[v].add(candidate.key)
            traffic[(v, parent)] = 1
            arrivals.append((parent, candidate))

        if not arrivals:
            # Sends depend only on buffers and the announced sets, and
            # buffers change only through sends — one quiet round means the
            # system is quiescent. Charge O(depth) for the convergecast that
            # detects this (Lemma 4.14's termination detection).
            run.charge_rounds(
                tree.depth, "termination detection (Lemma 4.14)"
            )
            final = kruskal_filter(buffers[tree.root], base_component)
            if stop_predicate is not None:
                for cut in range(1, len(final) + 1):
                    if stop_predicate(final[:cut]):
                        return final[:cut]
            return final

        rounds_in_primitive += 1
        run.tick(traffic)
        for parent, item in arrivals:
            if item.key not in seen[parent]:
                seen[parent].add(item.key)
                buffers[parent].append(item)
