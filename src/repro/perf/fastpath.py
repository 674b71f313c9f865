"""The ledger-level fast path: the flatarray tier for the paper pipeline.

The paper's Steiner-forest pipeline (moat growing, pruning, the
sublinear composition) is **ledger-level** — the solvers drive the
communication primitives (:mod:`repro.congest.bfs`,
:mod:`repro.congest.bellman_ford`, :mod:`repro.congest.broadcast`,
:mod:`repro.congest.pipeline`) directly against a
:class:`~repro.congest.run.CongestRun`. Profiling (``repro profile``,
``bench_e18_profile.py``) shows their wall time goes to three places:

* per-message ledger validation (``has_edge`` + ``repr``-based
  ``canonical_edge``) on every ``tick(traffic)``,
* per-call ``graph.neighbors`` re-sorting and ``repr`` key computation
  inside the primitives' round loops,
* full re-sorts of monotonically growing buffers, and in the pipelined
  upcast a per-round Kruskal filter of every node's buffer compared
  ``Fraction``-keyed tuples.

This module compiles all of that away once per execution:

* :class:`CompiledTopology` precomputes per-node neighbor tuples, node
  ``repr`` keys, per-node canonical-edge Counters, and the full-graph
  broadcast Counter;
* :class:`FastCongestRun` answers the ledger's topology reads
  (``neighbors``, ``key``, ``canonical``) from the compilation and its
  bulk charges (``tick_from``, ``tick_all``) with whole-Counter updates,
  so the primitives' one body runs on it unchanged; ``tick`` validates
  via one dict lookup per message;
* it replaces two kernels with incremental versions of the same
  algorithm: ``upcast`` keeps every buffer sorted by ``insort`` instead
  of re-sorting per round, and ``filtered_upcast`` runs on integer key
  ranks (:func:`rank_keys`), keeps only each node's alive merges
  (pruned for good), and visits only nodes with a merge to announce.

Every execution is **identical** to the reference ledger's — same
rounds, messages, per-edge traffic, phases, and solver output
(``tests/test_perf.py`` runs the distributed and sublinear solvers on
every tier across the graph-family matrix against literal pins). The
``reference`` path (a plain ``CongestRun``) stays the simple,
obviously-correct baseline and is never modified by backend selection.
"""

import math
from bisect import insort
from collections import Counter
from fractions import Fraction
from typing import Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.congest.bfs import BFSTree
from repro.congest.pipeline import MergeItem
from repro.congest.run import CongestRun, non_edge_violation, per_direction_violation
from repro.model.graph import Edge, Node, WeightedGraph
from repro.simbackend import numpy_tier_available, validate_backend


def rank_keys(keys: List[tuple]) -> List[int]:
    """Dense ascending ranks of ``keys``: equal keys share a rank.

    One C-level sort on exact surrogates. When every key leads with a
    :class:`~fractions.Fraction`, ``p/q`` becomes the int
    ``p · (L // q)`` for ``L`` the lcm of the leading denominators — the
    same order and the same equalities, with no ``Fraction`` compares
    (Python ints cannot overflow). Other keys sort as they are.
    """
    if keys and all(key and type(key[0]) is Fraction for key in keys):
        scale = math.lcm(*{key[0].denominator for key in keys})
        keys = [
            (key[0].numerator * (scale // key[0].denominator),) + key[1:]
            for key in keys
        ]
    ranks = [0] * len(keys)
    rank = -1
    last: Any = object()
    for position in sorted(range(len(keys)), key=keys.__getitem__):
        if keys[position] != last:
            rank += 1
            last = keys[position]
        ranks[position] = rank
    return ranks


class CompiledTopology:
    """One-time compilation of a graph for the ledger fast path.

    Attributes:
        graph: the compiled :class:`~repro.model.graph.WeightedGraph`.
        repr_of: node → ``repr(node)`` (the sort key every primitive's
            deterministic tie-breaking is defined in terms of).
        neighbors: node → the graph's deterministic neighbor tuple,
            cached (``WeightedGraph.neighbors`` re-sorts per call).
        canon: directed pair ``(u, v)`` → canonical edge, both
            directions of every edge (non-edges are absent, which is
            what the fast ``tick`` validation relies on).
        out_counter: node → Counter of the canonical edges to all its
            neighbors (the per-node full-broadcast charge).
        degree: node → its degree (``sum(out_counter.values())``).
        full_counter: Counter of every canonical edge with multiplicity
            2 — the all-nodes-to-all-neighbors broadcast round the
            solvers' owner-exchange steps charge.
        num_directed: total directed edge count (2m).
    """

    __slots__ = (
        "graph",
        "repr_of",
        "neighbors",
        "canon",
        "out_counter",
        "degree",
        "full_counter",
        "num_directed",
    )

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        nodes = graph.nodes
        repr_of = {v: repr(v) for v in nodes}
        self.repr_of = repr_of
        self.neighbors: Dict[Node, Tuple[Node, ...]] = {
            v: graph.neighbors(v) for v in nodes
        }
        canon: Dict[Tuple[Node, Node], Edge] = {}
        out_counter: Dict[Node, Counter] = {}
        degree: Dict[Node, int] = {}
        full: Counter = Counter()
        for v in nodes:
            nbrs = self.neighbors[v]
            degree[v] = len(nbrs)
            rv = repr_of[v]
            edges = []
            for u in nbrs:
                edge = (v, u) if rv <= repr_of[u] else (u, v)
                canon[(v, u)] = edge
                edges.append(edge)
            counter = Counter(edges)
            out_counter[v] = counter
            full.update(counter)
        self.canon = canon
        self.out_counter = out_counter
        self.degree = degree
        self.full_counter = full
        self.num_directed = sum(degree.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledTopology(n={len(self.degree)}, "
            f"directed_edges={self.num_directed})"
        )


class FastCongestRun(CongestRun):
    """A :class:`CongestRun` with a compiled topology (the flatarray
    ledger).

    Drop-in compatible: the topology reads and bulk charges come from
    the :class:`CompiledTopology`, the ``upcast`` kernel keeps sorted
    buffers and the ``filtered_upcast`` kernel runs on ranked, pruned
    buffers; everything else is the inherited reference body. ``tick``
    keeps the full CONGEST validation contract (same error types and
    messages) but resolves edge membership and canonical form with one
    dict lookup per message.

    Args:
        graph: the network the algorithm runs on.
        bandwidth_bits: see :class:`CongestRun`.
        max_rounds: see :class:`CongestRun`.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        bandwidth_bits: Optional[int] = None,
        max_rounds: int = 10_000_000,
    ) -> None:
        super().__init__(
            graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds
        )
        self.compiled = CompiledTopology(graph)

    def tick(self, traffic: Optional[Mapping[Tuple[Node, Node], int]] = None) -> None:
        """Advance one round; charge ``traffic`` via the compiled edge map.

        Identical contract and end state to :meth:`CongestRun.tick` —
        the round preamble and the violation errors are literally shared
        (:meth:`CongestRun._advance_round`, :func:`non_edge_violation`,
        :func:`per_direction_violation`), only edge resolution differs
        (one dict lookup instead of ``has_edge`` + ``canonical_edge``).
        """
        self._advance_round()
        if traffic:
            canon = self.compiled.canon
            edge_messages = self.edge_messages
            charged = 0
            for pair, count in traffic.items():
                if count == 0:
                    continue
                edge = canon.get(pair)
                if edge is None:
                    raise non_edge_violation(*pair)
                if count > 1:
                    raise per_direction_violation(count, *pair)
                edge_messages[edge] += 1
                charged += 1
            self.messages += charged
            if self.profiler is not None and charged:
                self.profiler.add_messages(charged)

    # -- topology reads and bulk charges ----------------------------------

    def neighbors(self, v: Node) -> Tuple[Node, ...]:
        return self.compiled.neighbors[v]

    def key(self, v: Node) -> str:
        return self.compiled.repr_of[v]

    def canonical(self, u: Node, v: Node) -> Edge:
        return self.compiled.canon[(u, v)]

    def tick_from(self, senders: Iterable[Node]) -> None:
        self.tick()
        compiled = self.compiled
        out_counter = compiled.out_counter
        degree = compiled.degree
        for u in senders:
            self.charge_counter(out_counter[u], degree[u])

    def tick_all(self) -> None:
        self.tick()
        compiled = self.compiled
        self.charge_counter(compiled.full_counter, compiled.num_directed)

    # -- incremental kernels ----------------------------------------------

    def upcast(
        self,
        tree: BFSTree,
        local_items: Dict[Node, Iterable[Any]],
        key: Callable[[Any], Hashable],
    ) -> List[Any]:
        """:func:`repro.congest.broadcast.pipelined_upcast` with sorted
        buffers.

        Buffer entries are ``(repr(item), sequence, item)`` triples kept
        sorted by ``insort``: the sequence number (global insertion
        order) breaks ``repr`` ties exactly like the reference's
        *stable* per-round ``sorted(..., key=repr)``, so the candidate
        scan visits items in the identical order without re-sorting.
        """
        canon = self.compiled.canon
        buffers: Dict[Node, List[Tuple[str, int, Any]]] = {
            v: [] for v in tree.parent
        }
        seen: Dict[Node, Set[Hashable]] = {v: set() for v in tree.parent}
        forwarded: Dict[Node, Set[Hashable]] = {v: set() for v in tree.parent}
        sequence = 0
        for v, items in local_items.items():
            for item in items:
                k = key(item)
                if k not in seen[v]:
                    seen[v].add(k)
                    insort(buffers[v], (repr(item), sequence, item))
                    sequence += 1
        while True:
            charges: List[Edge] = []
            arrivals: List[Tuple[Node, str, Any]] = []
            for v in tree.parent:
                if v == tree.root:
                    continue
                candidate = None
                candidate_repr = ""
                for item_repr, _, item in buffers[v]:
                    if key(item) not in forwarded[v]:
                        candidate = item
                        candidate_repr = item_repr
                        break
                if candidate is None:
                    continue
                parent = tree.parent[v]
                assert parent is not None
                forwarded[v].add(key(candidate))
                charges.append(canon[(v, parent)])
                arrivals.append((parent, candidate_repr, candidate))
            if not charges:
                break
            self.tick()
            self.charge_messages(charges)
            for parent, item_repr, item in arrivals:
                k = key(item)
                if k not in seen[parent]:
                    seen[parent].add(k)
                    insort(buffers[parent], (item_repr, sequence, item))
                    sequence += 1
        return [item for _, _, item in buffers[tree.root]]

    def filtered_upcast(
        self,
        tree: BFSTree,
        local_items: Dict[Node, List[MergeItem]],
        base_component: Mapping[Hashable, Hashable],
        stop_predicate: Optional[Callable[[List[MergeItem]], bool]],
    ) -> List[MergeItem]:
        """:func:`repro.congest.pipeline.filtered_upcast` on integer
        key ranks (:func:`rank_keys`), with pruned buffers.

        Adding merges can only close more cycles, so a merge dead at a
        node stays dead: each node keeps just its alive ranks, re-filtered
        once per round in which something new arrived, and its pending
        (alive, unannounced) ranks in descending order. A round visits,
        in tree order, only nodes with a pending rank. The stop predicate
        is asked once per newly finalized root rank: the finalized prefix
        never changes (the pipelining invariant, asserted). Merges with
        equal keys must join the same two entities (``MergeItem``
        equality is by key), so each rank's endpoints are resolved
        through ``base_component`` once.
        """
        order = list(tree.parent)
        index = {v: i for i, v in enumerate(order)}
        root = index[tree.root]
        canon = self.compiled.canon
        # hops[i]: (parent index, canonical tree edge) of non-root node i.
        hops = [
            None if p is None else (index[p], canon[(v, p)])
            for v, p in tree.parent.items()
        ]
        flat = [(index[v], item) for v, items in local_items.items() for item in items]
        # held[i]: rank → the first item of that rank node i received
        # (the reference's per-node ``seen`` set, keeping the object).
        held: List[Dict[int, MergeItem]] = [{} for _ in order]
        ends: Dict[int, Tuple[Hashable, Hashable]] = {}
        for (i, item), rank in zip(flat, rank_keys([m.key for _, m in flat])):
            held[i].setdefault(rank, item)
            if rank not in ends:
                ends[rank] = (
                    base_component.get(item.a, item.a),
                    base_component.get(item.b, item.b),
                )
        alive: Dict[int, List[int]] = {}
        pending: Dict[int, List[int]] = {}
        sent: Dict[int, Set[int]] = {}

        def refilter(i: int, merged: List[int]) -> None:
            # Ascending Kruskal scan. Alive ranks form a forest over the
            # components, so a plain linked union-find is enough.
            merged.sort()
            link: Dict[Hashable, Hashable] = {}
            kept = []
            for rank in merged:
                a, b = ends[rank]
                while a in link:
                    a = link[a]
                while b in link:
                    b = link[b]
                if a != b:
                    link[a] = b
                    kept.append(rank)
            alive[i] = kept
            done = sent.setdefault(i, set())
            pending[i] = [rank for rank in reversed(kept) if rank not in done]

        for i, box in enumerate(held):
            if box:
                refilter(i, list(box))
        active = [i for i in pending if i != root and pending[i]]
        checked: List[int] = []
        prefix: List[MergeItem] = []

        def stops(limit: int) -> bool:
            # Extend the checked root prefix to ``limit`` ranks.
            root_alive = alive.get(root, [])
            assert root_alive[: len(checked)] == checked, "finalized prefix changed"
            for rank in root_alive[len(checked) : limit]:
                checked.append(rank)
                prefix.append(held[root][rank])
                if stop_predicate(prefix[:]):
                    return True
            return False

        rounds_in_primitive = 0
        while True:
            # Root-side early stop on the finalized prefix.
            finalized = rounds_in_primitive - tree.depth
            if stop_predicate is not None and finalized > len(checked):
                if stops(finalized):
                    self.charge_rounds(
                        tree.depth, "phase-end stop broadcast (Cor. 4.16)"
                    )
                    return prefix

            if not active:
                self.charge_rounds(
                    tree.depth, "termination detection (Lemma 4.14)"
                )
                final = alive.get(root, [])
                if stop_predicate is not None and stops(len(final)):
                    return prefix
                return [held[root][rank] for rank in final]

            charges: List[Edge] = []
            arrivals: Dict[int, List[int]] = {}
            for i in active:
                rank = pending[i].pop()
                sent[i].add(rank)
                p, edge = hops[i]
                charges.append(edge)
                if rank not in held[p]:
                    held[p][rank] = held[i][rank]
                    arrivals.setdefault(p, []).append(rank)
            rounds_in_primitive += 1
            self.tick()
            self.charge_messages(charges)
            for p, fresh in arrivals.items():
                refilter(p, alive.get(p, []) + fresh)
            active = sorted(
                i for i in set(active).union(arrivals) if i != root and pending[i]
            )


def make_ledger_run(
    backend: Any,
    graph: WeightedGraph,
    bandwidth_bits: Optional[int] = None,
    max_rounds: int = 10_000_000,
) -> CongestRun:
    """Build the ledger a solver should charge, per backend spec.

    The experiment runner and the CLI thread the ``--backend`` axis into
    the paper's solvers through this function:

    * ``reference`` → a plain :class:`CongestRun`;
    * ``flatarray`` → a :class:`FastCongestRun`;
    * ``numpy`` → a :class:`repro.perf.npkernels.NumpyCongestRun` (only
      valid when the optional numpy extra is installed — otherwise the
      shared validation rejects the name);
    * ``auto`` → ``numpy`` when the extra is installed, ``flatarray``
      otherwise or when numpy declines the graph's weights.

    Raises:
        ValueError: on unknown backend names or any parameters — validated
            by :func:`~repro.simbackend.validate_backend`, the same check
            scenario specs and the CLI apply.
    """
    spec = validate_backend(backend)
    name = spec["name"]
    if name == "auto":
        name = "numpy" if numpy_tier_available() else "flatarray"
    if name == "numpy":
        # Import deferred (and guaranteed to succeed): the spec passed
        # validation, so the numpy tier is listed ⇒ numpy imports.
        from repro.perf.npkernels import NumpyCongestRun

        try:
            return NumpyCongestRun(
                graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds
            )
        except OverflowError:
            # Edge weights outside the int64 grid: an explicit numpy
            # request fails loudly, but auto degrades to flatarray.
            if spec["name"] != "auto":
                raise
            name = "flatarray"
    if name == "flatarray":
        return FastCongestRun(
            graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds
        )
    return CongestRun(graph, bandwidth_bits=bandwidth_bits, max_rounds=max_rounds)
