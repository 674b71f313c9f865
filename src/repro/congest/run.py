"""The round/message ledger for CONGEST executions.

Every communication primitive charges rounds and per-edge messages against a
:class:`CongestRun`. A message models one O(log n)-bit CONGEST message; the
ledger enforces that no primitive sends more than one message per edge
direction per round (raising :class:`CongestViolationError` otherwise) and
keeps per-edge traffic counters so experiments can meter the traffic across a
graph cut (the Alice–Bob cut of the Section 3 lower-bound gadgets).

The ledger is also the one dispatch point between the paper's primitives and
the machinery that runs them: the primitives read the network through it
(``neighbors``, ``key``, ``canonical``, ``tick_from``, ``tick_all``) and run
their bodies as its *kernels* (``bfs_tree`` … ``grow_radii``, and the oracle
query ``shortest_path_diameter``), whose defaults here are the reference
bodies. A ledger subclass may answer the reads from a precomputed topology or
override a kernel with an equivalent algorithm; it must reproduce the
reference execution exactly.
"""

import math
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.exceptions import CongestViolationError, SimulationError
from repro.model.graph import Edge, Node, WeightedGraph, canonical_edge

#: A directed message count: (sender, receiver) -> number of messages.
DirectedTraffic = Mapping[Tuple[Node, Node], int]


def non_edge_violation(sender: Node, receiver: Node) -> CongestViolationError:
    """The canonical non-edge traffic error (shared with every ledger
    subclass so the wording cannot drift)."""
    return CongestViolationError(
        f"message over non-edge ({sender!r}, {receiver!r})"
    )


def per_direction_violation(
    count: int, sender: Node, receiver: Node
) -> CongestViolationError:
    """The canonical CONGEST per-direction bound error (shared with every
    ledger subclass)."""
    return CongestViolationError(
        f"{count} messages from {sender!r} to {receiver!r} "
        "in one round (CONGEST allows 1)"
    )


def maybe_span(profiler: Optional[Any], name: str) -> ContextManager[None]:
    """``profiler.span(name)`` when a profiler is present, else a
    ``nullcontext()`` — the one no-op span rule, shared by
    :meth:`CongestRun.span` and the centralized solvers that take a
    profiler without a ledger. The unprofiled path allocates no
    generator."""
    if profiler is None:
        return nullcontext()
    return profiler.span(name)


class CongestRun:
    """Accumulates rounds, messages and per-edge traffic for one execution.

    Args:
        graph: the network the algorithm runs on.
        bandwidth_bits: message size B in bits; defaults to ⌈log₂ n⌉ · 4,
            a concrete stand-in for the model's c·log n bound (identifiers,
            weights, and labels each fit in O(log n) bits).
        max_rounds: safety limit; exceeding it raises SimulationError,
            which usually indicates a non-terminating algorithm.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        bandwidth_bits: Optional[int] = None,
        max_rounds: int = 10_000_000,
    ) -> None:
        self.graph = graph
        if bandwidth_bits is None:
            bandwidth_bits = 4 * max(1, math.ceil(math.log2(max(2, graph.num_nodes))))
        self.bandwidth_bits = bandwidth_bits
        self.max_rounds = max_rounds
        self.rounds = 0
        self.messages = 0
        self.edge_messages: Counter = Counter()
        self.phase_rounds: Dict[str, int] = {}
        self._phase: Optional[str] = None
        #: Optional :class:`repro.perf.PhaseProfiler` observing this run
        #: (attach via ``profiler.attach(run)``). When None — the default
        #: — charging pays exactly one attribute check and nothing else,
        #: so profiling-off executions are byte-identical to pre-profiler
        #: ones (pinned by tests/test_perf.py).
        self.profiler: Optional[Any] = None

    def span(self, name: str) -> ContextManager[None]:
        """A named wall-time span on the attached profiler; a no-op
        context when none is attached (:func:`maybe_span`)."""
        return maybe_span(self.profiler, name)

    # ------------------------------------------------------------------
    # Phases (for per-step round breakdowns in experiments)
    # ------------------------------------------------------------------

    def set_phase(self, name: Optional[str]) -> None:
        """Attribute subsequently charged rounds to ``name``."""
        self._phase = name
        if self.profiler is not None:
            self.profiler.switch_phase(name)

    def _attribute(self, rounds: int) -> None:
        if self._phase is not None:
            self.phase_rounds[self._phase] = (
                self.phase_rounds.get(self._phase, 0) + rounds
            )
        if self.profiler is not None:
            self.profiler.add_rounds(rounds)

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------

    def _advance_round(self) -> None:
        """Shared round preamble: count the round, attribute it (phase +
        profiler), enforce ``max_rounds``. Every ledger subclass's
        ``tick`` starts here, so the bookkeeping cannot diverge."""
        self.rounds += 1
        self._attribute(1)
        if self.rounds > self.max_rounds:
            raise SimulationError(
                f"exceeded max_rounds={self.max_rounds}; "
                "the algorithm appears not to terminate"
            )

    def tick(self, traffic: Optional[DirectedTraffic] = None) -> None:
        """Advance one synchronous round, delivering ``traffic`` messages.

        ``traffic`` maps directed node pairs (sender, receiver) to message
        counts; each count must be ≤ 1 per the CONGEST model, and the pair
        must be an edge of the graph.
        """
        self._advance_round()
        if traffic:
            charged = 0
            for (sender, receiver), count in traffic.items():
                if count == 0:
                    continue
                if not self.graph.has_edge(sender, receiver):
                    raise non_edge_violation(sender, receiver)
                if count > 1:
                    raise per_direction_violation(count, sender, receiver)
                self.messages += count
                self.edge_messages[canonical_edge(sender, receiver)] += count
                charged += count
            if self.profiler is not None and charged:
                self.profiler.add_messages(charged)

    def charge_messages(self, canonical_edges: Iterable[Edge]) -> None:
        """Batch-charge pre-validated traffic for the current round.

        One message per entry; each entry must already be a canonical
        edge of the graph with at most one occurrence per direction this
        round (the calling kernel guarantees this structurally, so
        re-validating per message would only re-pay the cost
        :meth:`tick` exists to amortize). Keeps the charging rules
        (message count + per-edge counters) owned by the ledger, with
        the same end state as ``tick(traffic)``.
        """
        edge_messages = self.edge_messages
        count = 0
        for edge in canonical_edges:
            edge_messages[edge] += 1
            count += 1
        self.messages += count
        if self.profiler is not None and count:
            self.profiler.add_messages(count)

    def charge_counter(self, counter: Mapping[Edge, int], count: int) -> None:
        """Batch-charge a precompiled canonical-edge multiset for the
        current round.

        ``counter`` maps canonical graph edges to per-edge message
        counts summing to ``count``; like :meth:`charge_messages` the
        caller guarantees the CONGEST per-direction bound structurally
        (e.g. a precompiled per-node out-edge multiset), so the ledger
        applies the whole delta in one C-speed ``Counter.update``
        instead of one Python-level check per message. End state is
        identical to ``tick(traffic)`` with the equivalent directed
        traffic.
        """
        self.edge_messages.update(counter)
        self.messages += count
        if self.profiler is not None and count:
            self.profiler.add_messages(count)

    def charge_rounds(self, rounds: int, reason: str = "") -> None:
        """Analytically charge ``rounds`` rounds without per-edge traffic.

        Used for steps whose congestion-freeness the paper proves but whose
        message-level simulation would be redundant (e.g. time-multiplexing
        O(log n) independent executions: we simulate each execution and
        multiply the rounds here). The ``reason`` documents the charge.
        """
        if rounds < 0:
            raise ValueError("cannot charge negative rounds")
        self.rounds += rounds
        self._attribute(rounds)
        if self.rounds > self.max_rounds:
            raise SimulationError(
                f"exceeded max_rounds={self.max_rounds} while charging "
                f"{rounds} rounds ({reason})"
            )

    # ------------------------------------------------------------------
    # Topology reads and bulk charges
    # ------------------------------------------------------------------

    def neighbors(self, v: Node) -> Tuple[Node, ...]:
        """The neighbours of ``v`` in the graph's deterministic order."""
        return self.graph.neighbors(v)

    def key(self, v: Node) -> str:
        """The sort key of node ``v``: every primitive breaks ties by
        ``repr``."""
        return repr(v)

    def canonical(self, u: Node, v: Node) -> Edge:
        """The canonical form of the graph edge ``{u, v}``."""
        return canonical_edge(u, v)

    def tick_from(self, senders: Iterable[Node]) -> None:
        """One round in which every node of ``senders`` sends one message
        to each of its neighbours (a flooding or relaxation round)."""
        self.tick({(u, v): 1 for u in senders for v in self.neighbors(u)})

    def tick_all(self) -> None:
        """One round in which every node sends one message to each of
        its neighbours (an owner-exchange round)."""
        self.tick_from(self.graph.nodes)

    # ------------------------------------------------------------------
    # Kernels: each public primitive (named in the docstring) runs its
    # body through one of these; the defaults are the reference bodies.
    # ``shortest_path_diameter`` is the one centralized oracle query a
    # solver asks through the ledger (it charges nothing), so a tier can
    # answer it from its own topology too.
    # ------------------------------------------------------------------

    def bfs_tree(self, root: Node) -> Any:
        """:func:`repro.congest.bfs.build_bfs_tree`."""
        from repro.congest.bfs import flood

        return flood(self, root)

    def bellman_ford(self, graph, sources, edge_weight, blocked, max_iterations) -> Any:
        """:func:`repro.congest.bellman_ford.bellman_ford`."""
        from repro.congest.bellman_ford import relax

        return relax(self, graph, sources, edge_weight, blocked, max_iterations)

    def broadcast(self, tree: Any, items: List[Any]) -> List[Any]:
        """:func:`repro.congest.broadcast.broadcast_items` (≥ 1 item,
        depth ≥ 1)."""
        from repro.congest.broadcast import pipelined_broadcast

        return pipelined_broadcast(self, tree, items)

    def convergecast(self, tree: Any, values: Dict[Node, Any], combine: Callable) -> Any:
        """:func:`repro.congest.broadcast.convergecast_aggregate`."""
        from repro.congest.broadcast import tree_convergecast

        return tree_convergecast(self, tree, values, combine)

    def upcast(self, tree: Any, local_items: Dict[Node, Any], key: Callable) -> List[Any]:
        """:func:`repro.congest.broadcast.upcast_items`."""
        from repro.congest.broadcast import pipelined_upcast

        return pipelined_upcast(self, tree, local_items, key)

    def filtered_upcast(self, tree, local_items, base_component, stop_predicate) -> List[Any]:
        """:func:`repro.congest.pipeline.pipelined_filtered_upcast`."""
        from repro.congest.pipeline import filtered_upcast

        return filtered_upcast(self, tree, local_items, base_component, stop_predicate)

    def grow_radii(
        self,
        leftover: Dict[Node, Fraction],
        owner: Dict[Node, Optional[Node]],
        parent: Dict[Node, Optional[Node]],
        sources: Mapping[Node, Any],
        tree_owner: Dict[Node, Optional[Node]],
        tree_parent: Dict[Node, Optional[Node]],
        tree_dist: Dict[Node, Fraction],
        mu: Fraction,
    ) -> None:
        """The end-of-phase radius growth of
        :func:`repro.core.distributed.distributed_moat_growing`, a local
        computation at every node: each covered node of a moat active
        during the phase (a member of ``sources``) gains ``mu`` of
        leftover; each other node the phase's Bellman–Ford reached within
        ``mu`` joins its tree owner's moat with leftover ``mu - d``."""
        for x, lo in list(leftover.items()):
            if owner[x] is not None and x in sources:
                leftover[x] = lo + mu
        for x, d in tree_dist.items():
            if x in sources:
                continue
            if d <= mu:
                owner[x] = tree_owner[x]
                parent[x] = tree_parent[x]
                leftover[x] = mu - d

    def shortest_path_diameter(self) -> int:
        """The shortest-path diameter ``s`` that
        :func:`repro.core.sublinear.sublinear_moat_growing` and
        :func:`repro.core.pruning.fast_pruning` set σ from
        (:meth:`WeightedGraph.shortest_path_diameter`). A centralized
        query: it charges no rounds or messages."""
        return self.graph.shortest_path_diameter()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def bits(self) -> int:
        """Total bits sent, counting each message at the full budget B."""
        return self.messages * self.bandwidth_bits

    def cut_messages(self, cut_edges: Iterable[Edge]) -> int:
        """Messages that crossed the given edge cut."""
        return sum(
            self.edge_messages[canonical_edge(u, v)] for u, v in cut_edges
        )

    def cut_bits(self, cut_edges: Iterable[Edge]) -> int:
        """Bits that crossed the given edge cut (messages × B)."""
        return self.cut_messages(cut_edges) * self.bandwidth_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CongestRun(rounds={self.rounds}, messages={self.messages}, "
            f"B={self.bandwidth_bits})"
        )
