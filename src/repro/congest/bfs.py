"""Distributed BFS-tree construction.

Nearly every step of the paper's algorithms coordinates over a BFS tree
rooted at a distinguished node R (usually the maximum identifier): Lemmas
2.3/2.4 (input transforms), Lemma 4.14 (candidate-merge filtering), Appendix
F (growth-phase coordination), and the randomized algorithm's Steps 3a/3c.

The construction is the textbook flooding algorithm: in round ``d`` the
nodes at hop distance ``d`` from the root announce themselves; a node joins
the tree the first round it hears an announcement, picking the smallest-
identifier announcer as its parent. It completes in D + O(1) rounds.
"""

from typing import Dict, List, Optional

from repro.congest.run import CongestRun
from repro.model.graph import Node, WeightedGraph


class BFSTree:
    """A rooted BFS tree: parents, children, and depth bookkeeping."""

    def __init__(
        self,
        root: Node,
        parent: Dict[Node, Optional[Node]],
        depth_of: Dict[Node, int],
    ) -> None:
        self.root = root
        self.parent = parent
        self.depth_of = depth_of
        self.children: Dict[Node, List[Node]] = {v: [] for v in parent}
        for v, p in parent.items():
            if p is not None:
                self.children[p].append(v)
        for kids in self.children.values():
            kids.sort(key=repr)
        self.depth = max(depth_of.values()) if depth_of else 0

    def nodes_bottom_up(self) -> List[Node]:
        """All nodes ordered by decreasing depth (children before parents)."""
        return sorted(
            self.parent, key=lambda v: (-self.depth_of[v], repr(v))
        )

    def nodes_top_down(self) -> List[Node]:
        """All nodes ordered by increasing depth (parents before children)."""
        return sorted(
            self.parent, key=lambda v: (self.depth_of[v], repr(v))
        )

    def path_to_root(self, v: Node) -> List[Node]:
        """The tree path from ``v`` to the root, inclusive."""
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])  # type: ignore[arg-type]
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BFSTree(root={self.root!r}, depth={self.depth})"


def default_root(graph: WeightedGraph) -> Node:
    """The paper's canonical root choice: the largest identifier."""
    return max(graph.nodes, key=repr)


def build_bfs_tree(
    graph: WeightedGraph,
    run: CongestRun,
    root: Optional[Node] = None,
) -> BFSTree:
    """Construct a BFS tree by flooding, charging D + O(1) rounds to ``run``.

    Round-by-round: every node that joined the tree in the previous round
    sends a "join me" message to all neighbors; an unjoined node picks the
    smallest-identifier sender as its parent. The last flooding round
    (the final frontier finds nobody new) models local termination
    detection at the frontier.

    ``graph`` must be the ledger's network. The flood itself is the
    ledger's :meth:`~repro.congest.run.CongestRun.bfs_tree` kernel, whose
    default is :func:`flood`.
    """
    if root is None:
        root = default_root(graph)
    return run.bfs_tree(root)


def flood(run: CongestRun, root: Node) -> BFSTree:
    """The flooding body of :func:`build_bfs_tree` on ``run``'s network."""
    key = run.key
    parent: Dict[Node, Optional[Node]] = {root: None}
    depth_of: Dict[Node, int] = {root: 0}
    frontier: List[Node] = [root]
    depth = 0
    while frontier:
        depth += 1
        proposals: Dict[Node, List[Node]] = {}
        for u in frontier:
            for v in run.neighbors(u):
                if v not in parent:
                    proposals.setdefault(v, []).append(u)
        run.tick_from(frontier)
        frontier = []
        for v, candidates in sorted(
            proposals.items(), key=lambda kv: key(kv[0])
        ):
            parent[v] = min(candidates, key=key)
            depth_of[v] = depth
            frontier.append(v)
    return BFSTree(root, parent, depth_of)
