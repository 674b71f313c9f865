"""Distributed input transforms (Lemmas 2.3 and 2.4).

* :func:`distributed_requests_to_components` — DSF-CR → DSF-IC in O(D + t)
  rounds: connection requests that do not close cycles in the demand forest
  are piped up a BFS tree (at most t − 1 of them survive), the root
  broadcasts the surviving demand forest, and every node locally computes
  the demand components and their canonical labels.
* :func:`distributed_minimalize` — DSF-IC → minimal DSF-IC in O(D + k)
  rounds: at most two (terminal, label) witnesses per label are piped up the
  tree, the root identifies labels with ≥ 2 terminals and broadcasts them.

Outputs are identical to the centralized transforms of
:mod:`repro.model.transforms`; the tests assert this.
"""

from typing import Dict, Hashable, List, Set, Tuple

from repro.congest.bfs import BFSTree, build_bfs_tree
from repro.congest.broadcast import broadcast_items
from repro.congest.pipeline import MergeItem, pipelined_filtered_upcast
from repro.congest.run import CongestRun
from repro.model.graph import Node
from repro.model.instance import (
    ConnectionRequestInstance,
    SteinerForestInstance,
)
from repro.util import UnionFind


def distributed_requests_to_components(
    instance: ConnectionRequestInstance,
    run: CongestRun,
    tree: BFSTree = None,
) -> SteinerForestInstance:
    """Transform DSF-CR to an equivalent DSF-IC instance (Lemma 2.3)."""
    graph = instance.graph
    if tree is None:
        tree = build_bfs_tree(graph, run)

    # Upcast demand pairs, filtering cycle-closing ones en route: the
    # Kruskal-filtered pipelined upcast of Lemma 4.14 over an empty fixed
    # forest, in ``repr`` order of the pairs. At most t-1 pairs survive
    # anywhere, so with pipelining this takes O(depth + t) rounds; the
    # survivors at the root form an acyclic demand forest.
    local_items: Dict[Node, List[MergeItem]] = {}
    for v, targets in instance.requests.items():
        for w in sorted(targets, key=repr):
            pair = (v, w) if repr(v) <= repr(w) else (w, v)
            local_items.setdefault(v, []).append(
                MergeItem(key=(repr(pair),), a=pair[0], b=pair[1], payload=pair)
            )
    surviving: List[Tuple[Node, Node]] = [
        item.payload
        for item in pipelined_filtered_upcast(tree, local_items, {}, run)
    ]
    broadcast_items(tree, surviving, run)

    # Local computation at every node (identical everywhere).
    uf = UnionFind()
    for u, w in surviving:
        uf.union(u, w)
    labels: Dict[Node, Hashable] = {}
    for group in uf.sets():
        label = min(group, key=repr)
        for v in group:
            labels[v] = label
    return SteinerForestInstance(graph, labels)


def distributed_minimalize(
    instance: SteinerForestInstance,
    run: CongestRun,
    tree: BFSTree = None,
) -> SteinerForestInstance:
    """Drop singleton input components distributively (Lemma 2.4)."""
    graph = instance.graph
    if tree is None:
        tree = build_bfs_tree(graph, run)

    # Pipe up at most two (label, terminal) witnesses per label.
    buffers: Dict[Node, List[Tuple[Hashable, Node]]] = {
        v: [] for v in tree.parent
    }
    forwarded: Dict[Node, Set[Tuple[Hashable, Node]]] = {
        v: set() for v in tree.parent
    }
    for v, label in instance.labels.items():
        buffers[v].append((label, v))
    while True:
        traffic: Dict[Tuple[Node, Node], int] = {}
        arrivals: List[Tuple[Node, Tuple[Hashable, Node]]] = []
        for v in tree.parent:
            if v == tree.root:
                continue
            sent_per_label: Dict[Hashable, int] = {}
            for item in forwarded[v]:
                sent_per_label[item[0]] = sent_per_label.get(item[0], 0) + 1
            candidate = None
            for item in sorted(buffers[v], key=repr):
                if item in forwarded[v]:
                    continue
                if sent_per_label.get(item[0], 0) >= 2:
                    continue  # two witnesses suffice; ignore the rest
                candidate = item
                break
            if candidate is None:
                continue
            parent = tree.parent[v]
            assert parent is not None
            forwarded[v].add(candidate)
            traffic[(v, parent)] = 1
            arrivals.append((parent, candidate))
        if not traffic:
            run.charge_rounds(tree.depth, "termination detection")
            break
        run.tick(traffic)
        for parent, item in arrivals:
            if item not in buffers[parent]:
                buffers[parent].append(item)

    witnesses: Dict[Hashable, Set[Node]] = {}
    for label, v in buffers[tree.root]:
        witnesses.setdefault(label, set()).add(v)
    plural_labels = sorted(
        (label for label, vs in witnesses.items() if len(vs) >= 2),
        key=repr,
    )
    broadcast_items(tree, plural_labels, run)

    keep = set(plural_labels)
    labels = {
        v: label for v, label in instance.labels.items() if label in keep
    }
    return SteinerForestInstance(graph, labels)
