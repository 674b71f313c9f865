"""Tests for the generic node-program simulator and backend specs."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.congest import CongestRun
from repro.congest.simulator import EchoBroadcast, FloodMaxLeaderElection, NodeProgram, Simulator
from repro.engine.registry import GRAPH_FAMILIES
from repro.exceptions import CongestViolationError, SimulationError
from repro.model import WeightedGraph
from repro.netmodel import TraceRecorder
from repro.simbackend import (
    BACKENDS,
    is_default_backend,
    normalize_backend,
    validate_backend,
)


class TestSimulatorCore:
    def test_requires_program_per_node(self, path5):
        with pytest.raises(SimulationError):
            Simulator(path5, {0: FloodMaxLeaderElection()})

    def test_send_to_non_neighbor_rejected(self, path5):
        class Bad(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(4, "x")

            def on_round(self, ctx, inbox):
                ctx.halt()

        sim = Simulator(path5, {v: Bad() for v in path5.nodes})
        with pytest.raises(CongestViolationError):
            sim.start()

    def test_double_send_rejected(self, path5):
        class Chatty(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(1, "a")
                    ctx.send(1, "b")

            def on_round(self, ctx, inbox):
                ctx.halt()

        sim = Simulator(path5, {v: Chatty() for v in path5.nodes})
        with pytest.raises(CongestViolationError):
            sim.start()

    def test_rounds_charged_to_shared_ledger(self, path5):
        run = CongestRun(path5)
        programs = {v: FloodMaxLeaderElection() for v in path5.nodes}
        sim = Simulator(path5, programs, run=run)
        sim.run_to_completion()
        assert run.rounds > 0
        assert run.messages > 0

    def test_non_terminating_program_guard(self, path5):
        class Forever(NodeProgram):
            def on_start(self, ctx):
                for v in ctx.neighbors:
                    ctx.send(v, "ping")

            def on_round(self, ctx, inbox):
                for v in ctx.neighbors:
                    ctx.send(v, "ping")

        sim = Simulator(path5, {v: Forever() for v in path5.nodes})
        with pytest.raises(SimulationError):
            sim.run_to_completion(max_rounds=10)

    def test_edge_weight_accessor(self, triangle):
        seen = {}

        class Probe(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    seen["w"] = ctx.edge_weight(2)
                ctx.halt()

            def on_round(self, ctx, inbox):
                ctx.halt()

        Simulator(triangle, {v: Probe() for v in triangle.nodes}).start()
        assert seen["w"] == 4


class _Tag:
    """A hashable node with a controllable repr (adversarial for sorting)."""

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


class TestDeliveryOrder:
    @staticmethod
    def _inbox_order(graph, receiver, payloads):
        """Sender labels in ``receiver``'s round-1 inbox."""
        received = []

        class Sender(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id in payloads:
                    ctx.send(receiver, payloads[ctx.node_id])

            def on_round(self, ctx, inbox):
                ctx.halt()

        class Receiver(NodeProgram):
            def on_start(self, ctx):
                pass

            def on_round(self, ctx, inbox):
                received.extend(sender for sender, _ in inbox)
                ctx.halt()

        programs = {
            v: Receiver() if v == receiver else Sender() for v in graph.nodes
        }
        Simulator(graph, programs).run_to_completion()
        return received

    def test_inbox_sorted_by_sender_not_payload(self, path5):
        star = WeightedGraph([0, 1, 2, 3], [(1, 0, 1), (2, 0, 1), (3, 0, 1)])
        for payloads in ({1: "z", 2: "a", 3: "m"}, {1: 0, 2: 99, 3: -5}):
            assert self._inbox_order(star, 0, payloads) == [1, 2, 3]

    def test_inbox_order_numeric_with_mixed_digit_ids(self):
        # repr-sorting would interleave two-digit IDs ("10" < "2" < "9");
        # the type-stable key sorts sender IDs numerically.
        senders = [2, 9, 10, 11]
        star = WeightedGraph([5] + senders, [(s, 5, 1) for s in senders])
        payloads = {s: "p" for s in senders}
        assert self._inbox_order(star, 5, payloads) == [2, 9, 10, 11]

    def test_order_independent_of_payload_contents(self):
        # Adversarial node reprs make the repr of the *whole* outbox item
        # diverge only inside the payload region: the old sort key
        # (repr of ((sender, receiver), payload)) flipped the delivery
        # order depending on the payload, the fixed key cannot.
        receiver = _Tag("r")
        plain = _Tag("a")
        tricky = _Tag("a, r), Z")
        graph = WeightedGraph(
            [receiver, plain, tricky],
            [(plain, receiver, 1), (tricky, receiver, 1)],
        )
        orders = [
            self._inbox_order(graph, receiver, {plain: payload, tricky: 0})
            for payload in (5, ["x"])
        ]
        assert orders[0] == orders[1]
        assert [s.label for s in orders[0]] == ["a", "a, r), Z"]


class TestMaxRoundsLimit:
    class _Forever(NodeProgram):
        def __init__(self):
            self.rounds_seen = 0

        def on_start(self, ctx):
            for v in ctx.neighbors:
                ctx.send(v, "ping")

        def on_round(self, ctx, inbox):
            self.rounds_seen += 1
            for v in ctx.neighbors:
                ctx.send(v, "ping")

    def test_limit_is_inclusive_not_exceeded(self, path5):
        programs = {v: self._Forever() for v in path5.nodes}
        sim = Simulator(path5, programs)
        with pytest.raises(SimulationError):
            sim.run_to_completion(max_rounds=5)
        # Exactly max_rounds rounds executed, never max_rounds + 1.
        assert max(p.rounds_seen for p in programs.values()) == 5

    def test_zero_limit_executes_no_rounds(self, path5):
        programs = {v: self._Forever() for v in path5.nodes}
        sim = Simulator(path5, programs)
        with pytest.raises(SimulationError):
            sim.run_to_completion(max_rounds=0)
        assert all(p.rounds_seen == 0 for p in programs.values())

    def test_quiescing_exactly_at_limit_succeeds(self, path5):
        class Relay(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(1, "tok")

            def on_round(self, ctx, inbox):
                if inbox and ctx.node_id < 4:
                    ctx.send(ctx.node_id + 1, "tok")

        programs = {v: Relay() for v in path5.nodes}
        rounds = Simulator(path5, programs).run_to_completion(max_rounds=4)
        assert rounds == 4


class TestFloodMax:
    def test_everyone_learns_max(self, grid44):
        programs = {v: FloodMaxLeaderElection() for v in grid44.nodes}
        sim = Simulator(grid44, programs)
        rounds = sim.run_to_completion()
        top = max(grid44.nodes)
        assert all(p.leader == top for p in programs.values())
        # Diameter-ish rounds plus patience slack.
        assert rounds <= grid44.unweighted_diameter() + 6

    def test_on_path(self, path5):
        programs = {v: FloodMaxLeaderElection() for v in path5.nodes}
        Simulator(path5, programs).run_to_completion()
        assert all(p.leader == 4 for p in programs.values())

    def test_two_digit_ids_beat_repr_order(self):
        # Regression: repr(9) > repr(10), so the old comparison elected
        # node 9 on any graph containing both. Integer IDs must elect 10.
        graph = WeightedGraph([9, 10], [(9, 10, 1)])
        programs = {v: FloodMaxLeaderElection() for v in graph.nodes}
        Simulator(graph, programs).run_to_completion()
        assert programs[9].leader == 10
        assert programs[10].leader == 10

    def test_wider_id_range_elects_true_max(self):
        nodes = [1, 5, 9, 10, 11, 30, 100]
        edges = [(a, b, 1) for a, b in zip(nodes, nodes[1:])]
        graph = WeightedGraph(nodes, edges)
        programs = {v: FloodMaxLeaderElection() for v in graph.nodes}
        Simulator(graph, programs).run_to_completion()
        assert all(p.leader == 100 for p in programs.values())


class TestEchoBroadcast:
    def test_all_informed_with_parents(self, grid33):
        root = 0
        programs = {v: EchoBroadcast(root) for v in grid33.nodes}
        Simulator(grid33, programs).run_to_completion()
        assert all(p.informed for p in programs.values())
        assert programs[root].parent is None
        for v, p in programs.items():
            if v != root:
                assert p.parent is not None

    def test_parent_pointers_reach_root(self, grid33):
        root = 4
        programs = {v: EchoBroadcast(root) for v in grid33.nodes}
        Simulator(grid33, programs).run_to_completion()
        for v in grid33.nodes:
            x, hops = v, 0
            while x != root:
                x = programs[x].parent
                hops += 1
                assert hops <= grid33.num_nodes

    def test_single_node_graph_completes_immediately(self):
        graph = WeightedGraph([0], [])
        program = EchoBroadcast(0)
        sim = Simulator(graph, {0: program})
        rounds = sim.run_to_completion()
        assert rounds == 0
        assert program.informed and program.done
        assert program.parent is None
        assert sim.all_halted

    def test_path_root_at_one_end(self, path5):
        programs = {v: EchoBroadcast(0) for v in path5.nodes}
        rounds = Simulator(path5, programs).run_to_completion()
        # Wave travels 4 hops out, echo travels 4 hops back.
        assert rounds == 8
        assert all(p.informed and p.done for p in programs.values())
        # The parent pointers form the path back to the root.
        assert [programs[v].parent for v in path5.nodes] == [None, 0, 1, 2, 3]


class TestRunToCompletion:
    """Contract violations and the round guard surface through a full
    run, with the messages callers match on."""

    def test_round_counter_tracks_executed_rounds(self, path5):
        programs = {v: FloodMaxLeaderElection() for v in path5.nodes}
        sim = Simulator(path5, programs)
        assert sim.round == 0
        rounds = sim.run_to_completion()
        assert sim.round == rounds
        assert sim.all_halted or not sim.has_pending

    def test_takes_no_backend(self, path5):
        programs = {v: FloodMaxLeaderElection() for v in path5.nodes}
        with pytest.raises(TypeError):
            Simulator(path5, programs, backend="flatarray")

    def test_violations_surface(self, path5):
        class Bad(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(4, "x")

            def on_round(self, ctx, inbox):
                ctx.halt()

        sim = Simulator(path5, {v: Bad() for v in path5.nodes})
        with pytest.raises(CongestViolationError, match="non-neighbor"):
            sim.run_to_completion()

    def test_double_send_rejected(self, path5):
        class Chatty(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(1, "a")
                    ctx.send(1, "b")

            def on_round(self, ctx, inbox):
                ctx.halt()

        sim = Simulator(path5, {v: Chatty() for v in path5.nodes})
        with pytest.raises(CongestViolationError, match="already sent"):
            sim.run_to_completion()

    def test_max_rounds_guard(self, path5):
        programs = {v: TestMaxRoundsLimit._Forever() for v in path5.nodes}
        sim = Simulator(path5, programs)
        with pytest.raises(SimulationError, match="did not quiesce in 5"):
            sim.run_to_completion(max_rounds=5)
        assert sim.round == 5

    def test_ledger_untouched_after_strict_reject(self):
        # A network model raising mid-flush (strict BandwidthCap) leaves
        # the ledger as it was: it is only charged after the whole flush.
        class Blob(NodeProgram):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(1, "x" * 100)

            def on_round(self, ctx, inbox):
                ctx.halt()

        graph = WeightedGraph([0, 1], [(0, 1, 1)])
        sim = Simulator(
            graph,
            {v: Blob() for v in graph.nodes},
            network={
                "model": "bandwidth",
                "params": {"cap_bits": 64, "strict": True},
            },
        )
        with pytest.raises(CongestViolationError):
            sim.run_to_completion()
        assert sim.run.rounds == 0
        assert sim.run.messages == 0
        assert dict(sim.run.edge_messages) == {}


#: Small instances with adversity parameters that exercise retransmission
#: and crashes (CrashStop victims are the first two nodes).
PINNED_CASES = {
    "grid-reliable-floodmax": (
        "grid", {"rows": 3, "cols": 4}, "reliable", "floodmax",
    ),
    "gnp-lossy-floodmax": (
        "gnp",
        {"n": 12, "p": 0.3},
        {"model": "lossy", "params": {"drop_p": 0.2, "retransmit": 2}},
        "floodmax",
    ),
    "powerlaw-crash-echo": (
        "powerlaw",
        {"n": 12, "m_attach": 2},
        {"model": "crash", "params": {"victims": [0, 1], "at_round": 2}},
        "echo",
    ),
}


def _execute(case):
    """One full seeded run; returns (fingerprint, programs, graph)."""
    family, params, network, program = PINNED_CASES[case]
    graph = GRAPH_FAMILIES[family].build(random.Random(0xC0FFEE), **params)
    fingerprint, programs = _run_program(graph, program, network)
    return fingerprint, programs, graph


def _run_program(graph, program, network):
    """Run ``program`` on every node of ``graph``; returns (fingerprint,
    programs)."""
    if program == "floodmax":
        programs = {v: FloodMaxLeaderElection() for v in graph.nodes}
    else:
        programs = {v: EchoBroadcast(graph.nodes[0]) for v in graph.nodes}
    trace = TraceRecorder()
    sim = Simulator(graph, programs, network=network, trace=trace, net_seed=17)
    rounds = sim.run_to_completion()
    fingerprint = {
        "rounds": rounds,
        "messages": sim.run.messages,
        "bits": sim.run.bits,
        "edge_messages": sorted(sim.run.edge_messages.items(), key=repr),
        "network_stats": dict(sim.network.stats),
        "trace": trace.events,
    }
    return fingerprint, programs


def _digest(fingerprint):
    text = json.dumps(fingerprint, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


#: Network statistics and fingerprint digests of the adverse cases.
PINNED_ADVERSE = {
    "gnp-lossy-floodmax": (
        {"retransmissions": 11},
        "986a896803c172e735151e60e0b8890bec20d1fc562e7d4347fa4ca818e25982",
    ),
    "powerlaw-crash-echo": (
        {"crashed": 2, "lost_sender_crashed": 4, "lost_receiver_crashed": 4},
        "bf57e204f9d576840c4b99584cc3ed283eaea50897083074c27e765a20431d68",
    ),
}


class TestPinnedExecutions:
    """Seeded executions pinned to literal values: rounds, ledger
    traffic (messages, bits, per-edge counters), network statistics and
    the full trace event stream (by digest). Any change to send
    validation, flush order, scheduling or halt/crash handling moves
    them."""

    def test_pinned_grid_execution(self):
        fingerprint, programs, graph = _execute("grid-reliable-floodmax")
        assert (fingerprint["rounds"], fingerprint["messages"]) == (6, 119)
        assert fingerprint["bits"] == 1904
        assert _digest(fingerprint) == (
            "74e3a758c9758106e85762e285d7e1e48de9b82d428db0d9278f907b18b85911"
        )
        # Every node elected the true maximum id.
        assert [programs[v].leader for v in graph.nodes] == (
            [max(graph.nodes)] * graph.num_nodes
        )

    @pytest.mark.parametrize("case", sorted(PINNED_ADVERSE))
    def test_pinned_adverse_execution(self, case):
        stats, digest = PINNED_ADVERSE[case]
        fingerprint, _, _ = _execute(case)
        assert fingerprint["network_stats"] == stats
        assert _digest(fingerprint) == digest

    def test_loss_accounting_matches_trace(self):
        fingerprint, _, _ = _execute("gnp-lossy-floodmax")
        stats = fingerprint["network_stats"]
        # The channel actually misbehaved on this seed.
        assert stats.get("retransmissions", 0) + stats.get("dropped", 0) > 0
        drops = sum(
            1
            for e in fingerprint["trace"]
            if e["event"] == "send" and e["dropped"]
        )
        assert drops == stats.get("dropped", 0)


#: Pinned fingerprints taken before the message-level engines were
#: collapsed into :class:`Simulator`. A moved pin is a behaviour change.
PINS = json.loads(
    (Path(__file__).parent / "fixtures" / "pinned_executions.json").read_text()
)

#: Small sizes for the seed families; the others build with defaults.
MATRIX_FAMILY_PARAMS = {
    "gnp": {"n": 12, "p": 0.3},
    "geometric": {"n": 10, "radius": 0.5},
    "grid": {"rows": 3, "cols": 4},
    "ring": {"num_blobs": 3, "blob_size": 3},
    "powerlaw": {"n": 12, "m_attach": 2},
}

#: Every built-in network model; CrashStop victims are resolved per
#: graph (the first two nodes).
MATRIX_NETWORKS = {
    "reliable": lambda g: "reliable",
    "delay": lambda g: {"model": "delay", "params": {"max_delay": 3}},
    "lossy": lambda g: {
        "model": "lossy", "params": {"drop_p": 0.2, "retransmit": 2},
    },
    "crash": lambda g: {
        "model": "crash",
        "params": {"victims": list(g.nodes[:2]), "at_round": 2},
    },
    "bandwidth": lambda g: {"model": "bandwidth", "params": {"cap_bits": 16}},
}

MATRIX_CASES = [
    f"{program}-{family}-{network}"
    for program in ("echo", "floodmax")
    for family in sorted(GRAPH_FAMILIES)
    for network in sorted(MATRIX_NETWORKS)
]


@pytest.mark.parametrize("case", MATRIX_CASES)
def test_reference_matrix_pinned(case):
    """Every built-in NodeProgram × graph family × network model: rounds,
    messages and the digest of the full execution (ledger traffic,
    network statistics, trace stream, final program states)."""
    program, family, network = case.split("-")
    graph = GRAPH_FAMILIES[family].build(
        random.Random(0xC0FFEE), **MATRIX_FAMILY_PARAMS.get(family, {})
    )
    fingerprint, programs = _run_program(
        graph, program, MATRIX_NETWORKS[network](graph)
    )
    if program == "floodmax":
        fingerprint["programs"] = [programs[v].leader for v in graph.nodes]
    else:
        fingerprint["programs"] = [
            (programs[v].informed, programs[v].parent, programs[v].done)
            for v in graph.nodes
        ]
    rounds, messages, digest = PINS["simulator"][case]
    assert (fingerprint["rounds"], fingerprint["messages"]) == (
        rounds, messages,
    )
    assert _digest(fingerprint) == digest


class TestBackendSpecs:
    def test_none_and_name_and_dict(self):
        assert normalize_backend(None) == {"name": "reference", "params": {}}
        assert normalize_backend("flatarray") == {
            "name": "flatarray", "params": {},
        }
        # Normalization does not validate: stored specs carrying the
        # retired auto thresholds keep their exact shape (and cache key).
        spec = normalize_backend({"name": "auto", "params": {"threshold": 2}})
        assert spec == {"name": "auto", "params": {"threshold": 2}}

    def test_spec_round_trips_through_json(self):
        spec = validate_backend({"name": "auto"})
        assert validate_backend(json.loads(json.dumps(spec))) == spec

    def test_default_detection(self):
        assert is_default_backend(None)
        assert is_default_backend("reference")
        assert not is_default_backend("flatarray")
        assert not is_default_backend(
            {"name": "reference", "params": {"x": 1}}
        )

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError, match="unexpected backend spec keys"):
            normalize_backend({"name": "flatarray", "oops": 1})
        with pytest.raises(ValueError, match="must be an object"):
            normalize_backend({"name": "auto", "params": None})
        with pytest.raises(ValueError, match="unknown simulation backends"):
            validate_backend("quantum")
        with pytest.raises(ValueError, match="unknown simulation backends"):
            validate_backend("sharded")
        with pytest.raises(ValueError, match="bad parameters"):
            validate_backend({"name": "flatarray", "params": {"nope": 1}})
        with pytest.raises(ValueError, match="threshold and numpy_threshold"):
            validate_backend({"name": "auto", "params": {"threshold": 2}})
        with pytest.raises(ValueError, match="threshold and numpy_threshold"):
            validate_backend({"name": "auto", "params": {"numpy_threshold": 9}})
        with pytest.raises(TypeError):
            normalize_backend(42)

    def test_tier_table_covers_builtins(self):
        # The numpy tier is listed exactly when the optional extra
        # imports (find_spec would call a present-but-broken numpy
        # "available"); the dependency-free table stays three-strong.
        expected = {"reference", "flatarray", "auto"}
        try:
            import numpy  # noqa: F401
        except ImportError:
            pass
        else:
            expected.add("numpy")
        assert set(BACKENDS) == expected
