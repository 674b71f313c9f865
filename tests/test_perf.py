"""The perf subsystem: profiler exactness, zero-effect, fast-path
conformance, and the auto tier.

Three contracts are pinned here:

1. **Profiler exactness** — per-phase counters equal the ledger's own
   accounting on a hand-computable execution, and the injected-clock
   wall-time attribution is exact.
2. **Profiling is free** — attaching a profiler changes nothing about
   the computation: solver outputs and the ledger are byte-identical,
   job cache keys without the flag are unchanged from schema v1–v4, and
   the algorithm seed ignores the flag.
3. **Ledger fast-path conformance** — the distributed and sublinear
   pipelines under a :class:`FastCongestRun` (and under ``auto``)
   reproduce the reference execution field by field across the graph
   family matrix, and the filtered-upcast kernel matches the reference
   body on randomized merges, next to the two facts it relies on
   (Kruskal-filter monotonicity and the pipelining invariant).
"""

import hashlib
import json
import random
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
import test_congest_primitives as primitive_cases

from repro.congest.bfs import build_bfs_tree
from repro.congest.broadcast import broadcast_items, upcast_items
from repro.congest.pipeline import (
    MergeItem,
    kruskal_filter,
    pipelined_filtered_upcast,
)
from repro.congest.run import CongestRun, maybe_span
from repro.core.distributed import distributed_moat_growing
from repro.core.moat import moat_growing
from repro.core.sublinear import sublinear_moat_growing
from repro.engine.algorithms import ALGORITHMS
from repro.engine.jobs import Job
from repro.engine.registry import GRAPH_FAMILIES
from repro.engine.runner import execute_job
from repro.exceptions import CongestViolationError
from repro.model.graph import WeightedGraph
from repro.model.instance import SteinerForestInstance
from repro.perf import (
    CompiledTopology,
    FastCongestRun,
    PhaseProfiler,
    make_ledger_run,
)
from repro.simbackend import numpy_tier_available
from repro.telemetry import render_profile_report
from repro.workloads import random_instance

requires_numpy = pytest.mark.skipif(
    not numpy_tier_available(),
    reason="optional numpy extra not installed",
)

FAMILY_PARAMS = {
    "gnp": {"n": 14, "p": 0.3},
    "grid": {"rows": 3, "cols": 4},
    "ring": {"num_blobs": 3, "blob_size": 3},
    "powerlaw": {"n": 14, "m_attach": 2},
    "caterpillar": {"spine": 5, "legs": 2},
}


def _instance(family):
    # Families not in FAMILY_PARAMS build with their defaults.
    graph = GRAPH_FAMILIES[family].build(
        random.Random(0xE18), **FAMILY_PARAMS.get(family, {})
    )
    terminals = {
        graph.nodes[0]: "a",
        graph.nodes[-1]: "a",
        graph.nodes[1]: "b",
        graph.nodes[-2]: "b",
    }
    return SteinerForestInstance(graph, terminals)


def _ledger_fingerprint(result):
    return (
        result.solution.weight,
        sorted(result.solution.edges, key=repr),
        result.rounds,
        result.run.messages,
        sorted(result.run.edge_messages.items(), key=repr),
        dict(result.run.phase_rounds),
    )


class FakeClock:
    """A deterministic perf_counter: advances 1.0 per call."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestPhaseProfiler:
    def test_counters_exact_on_manual_ledger(self):
        graph = WeightedGraph([0, 1, 2], [(0, 1, 1), (1, 2, 1)])
        run = CongestRun(graph)
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.attach(run)
        run.set_phase("alpha")
        run.tick({(0, 1): 1, (1, 2): 1})
        run.tick({(1, 0): 1})
        run.charge_rounds(3, "analytic")
        run.set_phase("beta")
        run.tick()
        run.charge_messages([(0, 1)])
        run.charge_counter({(1, 2): 2}, 2)
        profiler.finish()
        by_name = {s.name: s for s in profiler.phases}
        assert by_name["alpha"].rounds == 5
        assert by_name["alpha"].messages == 3
        assert by_name["beta"].rounds == 1
        assert by_name["beta"].messages == 3
        # Cross-check against the ledger's own accounting.
        totals = profiler.to_dict(bandwidth_bits=run.bandwidth_bits)["totals"]
        assert totals["rounds"] == run.rounds == 6
        assert totals["messages"] == run.messages == 6
        assert totals["bits"] == run.bits

    def test_wall_time_attribution_with_injected_clock(self):
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.switch_phase("outer")  # clock -> 1
        with profiler.span("inner"):  # flush at 2 (outer +1), 3 on exit
            pass
        profiler.finish()  # flush at 4 (outer +1)
        by_name = {s.name: s for s in profiler.phases}
        # Self-time semantics: the inner span's second is not double
        # counted on the phase.
        assert by_name["outer"].wall_time == pytest.approx(2.0)
        assert by_name["outer/inner"].wall_time == pytest.approx(1.0)

    def test_profiler_totals_match_pipeline_ledger(self):
        # Hand-checkable instance: a path, one demand between the ends.
        graph = WeightedGraph(
            [0, 1, 2, 3], [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
        )
        instance = SteinerForestInstance(graph, {0: "a", 3: "a"})
        run = CongestRun(graph)
        profiler = PhaseProfiler()
        profiler.attach(run)
        result = distributed_moat_growing(instance, run=run)
        profiler.finish()
        assert result.solution.weight == 3
        totals = profiler.to_dict()["totals"]
        assert totals["rounds"] == run.rounds
        assert totals["messages"] == run.messages
        # Phase frames cover the solver's narration.
        names = {s.name for s in profiler.phases}
        assert "setup" in names and "path-selection" in names
        assert any(name.startswith("phase-") for name in names)

    def test_phase_switch_inside_span_wins(self):
        # A span wrapped around a whole solver must not pop the phase
        # frame the solver's set_phase installed (and set_phase(None)
        # inside a span must not raise on exit).
        profiler = PhaseProfiler(clock=FakeClock())
        with profiler.span("whole-solve"):
            profiler.switch_phase("setup")
            profiler.add_rounds(2)
        profiler.add_rounds(1)  # still attributed to the live phase
        with profiler.span("outer"):
            profiler.switch_phase(None)
        profiler.finish()
        by_name = {s.name: s for s in profiler.phases}
        assert by_name["setup"].rounds == 3
        assert by_name["whole-solve"].rounds == 0

    def test_attach_starts_the_clock(self):
        # Time between attach and the first phase is reported, not
        # dropped: attach at t=0, first phase at t=5, finish at t=6.
        now = [0.0]
        profiler = PhaseProfiler(clock=lambda: now[0])
        run = CongestRun(WeightedGraph([0, 1], [(0, 1, 1)]))
        profiler.attach(run)
        now[0] = 5.0
        run.set_phase("alpha")
        now[0] = 6.0
        profiler.finish()
        by_name = {s.name: s.wall_time for s in profiler.phases}
        assert by_name == {"(unattributed)": 5.0, "alpha": 1.0}

    def test_maybe_span_without_profiler_is_noop(self):
        with maybe_span(None, "anything"):
            value = 42
        assert value == 42
        # The unprofiled path allocates no generator context manager.
        assert isinstance(maybe_span(None, "anything"), nullcontext)
        assert isinstance(CongestRun(WeightedGraph([0], [])).span("x"), nullcontext)

    def test_render_profile_report_smoke(self):
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.switch_phase("setup")
        profiler.add_rounds(4)
        profiler.add_messages(10)
        profiler.finish()
        record = {
            "scenario": "s",
            "algorithm": "distributed",
            "backend_name": "flatarray",
            "profile": profiler.to_dict(),
        }
        text = render_profile_report([record])
        assert "setup" in text and "flatarray" in text
        assert render_profile_report([]).startswith("no profiled records")

    def test_report_straggler_phases_average_over_the_whole_group(self):
        # A phase only one of two jobs reaches must print half its value
        # ("mean per job" is over the group, not over reaching jobs).
        short = {"phases": [{"phase": "p1", "rounds": 4, "messages": 2,
                             "wall_time": 0.0}]}
        long = {
            "phases": [
                {"phase": "p1", "rounds": 4, "messages": 2, "wall_time": 0.0},
                {"phase": "p2", "rounds": 6, "messages": 8, "wall_time": 0.0},
            ]
        }
        base = {"scenario": "s", "algorithm": "a", "backend_name": "reference"}
        text = render_profile_report(
            [dict(base, profile=short), dict(base, profile=long)]
        )
        p2_row = next(line for line in text.splitlines() if line.startswith("p2"))
        assert "3.0" in p2_row and "4.0" in p2_row


class TestProfilingIsFree:
    def test_solver_output_identical_with_profiler(self):
        instance = _instance("gnp")
        plain = distributed_moat_growing(instance, run=CongestRun(instance.graph))
        run = CongestRun(instance.graph)
        PhaseProfiler().attach(run)
        profiled = distributed_moat_growing(instance, run=run)
        assert _ledger_fingerprint(plain) == _ledger_fingerprint(profiled)

    def test_moat_output_identical_with_profiler(self):
        instance = _instance("grid")
        plain = moat_growing(instance)
        profiled = moat_growing(instance, profiler=PhaseProfiler())
        assert plain.solution.weight == profiled.solution.weight
        assert plain.solution.edges == profiled.solution.edges

    def test_unprofiled_job_identity_is_schema_v4_stable(self):
        legacy = {
            "scenario": "s",
            "family": "gnp",
            "family_params": {"n": 12, "p": 0.3},
            "k": 2,
            "component_size": 2,
            "algorithm": "moat",
            "algo_params": {},
            "seed_index": 0,
            "exact": False,
        }
        job = Job.from_dict(legacy)
        assert job.profile is False
        assert "profile" not in job.identity()
        # The profiled twin hashes to its own key but draws the same
        # coin flips and instance.
        profiled = Job.from_dict(dict(legacy, profile=True))
        assert profiled.key != job.key
        assert profiled.algorithm_seed() == job.algorithm_seed()
        assert profiled.graph_seed() == job.graph_seed()
        assert profiled.placement_seed() == job.placement_seed()

    @pytest.mark.parametrize("algorithm", ["distributed", "moat", "spanner"])
    def test_execute_job_profile_only_adds_payload(self, algorithm):
        base = {
            "scenario": "perf-test",
            "family": "gnp",
            "family_params": {"n": 10, "p": 0.4},
            "k": 2,
            "component_size": 2,
            "algorithm": algorithm,
            "seed_index": 0,
        }
        plain = execute_job(base)
        profiled = execute_job(dict(base, profile=True))
        assert "profile" not in plain
        phases = profiled["profile"]["phases"]
        assert phases and all("wall_time" in row for row in phases)
        for metric in ("weight", "rounds", "messages", "n", "m", "t"):
            if metric in plain["metrics"]:
                assert plain["metrics"][metric] == profiled["metrics"][metric]

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_profile_accounts_for_the_whole_job(self, algorithm):
        # Work no phase or span claims (the ledger build, sublinear's
        # shortest-path diameter before its first phase) must land in
        # (unattributed) or a span, not drop out of the totals.
        record = execute_job({
            "scenario": "perf-test",
            "family": "gnp",
            "family_params": {"n": 128, "p": 0.06},
            "k": 3,
            "component_size": 2,
            "algorithm": algorithm,
            "seed_index": 0,
            "profile": True,
        })
        profiled = record["profile"]["totals"]["wall_time"]
        assert profiled == pytest.approx(
            record["metrics"]["wall_time"], rel=0.05
        )


class TestLedgerFastPathConformance:
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize(
        "engine",
        [
            "flatarray",
            "auto",
            pytest.param("numpy", marks=requires_numpy),
        ],
    )
    def test_distributed_pipeline_matches_reference(self, family, engine):
        instance = _instance(family)
        reference = distributed_moat_growing(
            instance, run=CongestRun(instance.graph)
        )
        if engine in ("auto", "numpy"):
            fast_run = make_ledger_run(engine, instance.graph)
        else:
            fast_run = FastCongestRun(instance.graph)
        fast = distributed_moat_growing(instance, run=fast_run)
        assert _ledger_fingerprint(reference) == _ledger_fingerprint(fast)
        merges_ref = [
            (m.phase, str(m.mu), m.terminal_a, m.terminal_b, m.edge, m.path)
            for m in reference.merges
        ]
        merges_fast = [
            (m.phase, str(m.mu), m.terminal_a, m.terminal_b, m.edge, m.path)
            for m in fast.merges
        ]
        assert merges_ref == merges_fast

    @pytest.mark.parametrize("family", ["gnp", "grid", "ring"])
    @pytest.mark.parametrize(
        "engine",
        ["flatarray", pytest.param("numpy", marks=requires_numpy)],
    )
    def test_sublinear_pipeline_matches_reference(self, family, engine):
        instance = _instance(family)
        reference = sublinear_moat_growing(
            instance, run=CongestRun(instance.graph)
        )
        fast = sublinear_moat_growing(
            instance, run=make_ledger_run(engine, instance.graph)
        )
        assert _ledger_fingerprint(reference) == _ledger_fingerprint(fast)
        assert reference.sigma == fast.sigma
        assert reference.num_growth_phases == fast.num_growth_phases
        assert reference.num_merge_phases == fast.num_merge_phases

    def test_tree_primitives_match_reference(self):
        instance = _instance("powerlaw")
        graph = instance.graph

        def run_primitives(run):
            tree = build_bfs_tree(graph, run)
            items = upcast_items(
                tree,
                {v: [(repr(v), "payload")] for v in graph.nodes},
                run,
            )
            broadcast_items(tree, items, run)
            return (
                tree.root,
                dict(tree.parent),
                tree.depth,
                items,
                run.rounds,
                run.messages,
                sorted(run.edge_messages.items(), key=repr),
            )

        baseline = run_primitives(CongestRun(graph))
        assert baseline == run_primitives(FastCongestRun(graph))
        if numpy_tier_available():
            assert baseline == run_primitives(make_ledger_run("numpy", graph))

    def test_fast_tick_validation_matches_reference_errors(self):
        graph = WeightedGraph([0, 1, 2], [(0, 1, 1), (1, 2, 1)])
        for traffic in ({(0, 2): 1}, {(0, 1): 2}):
            with pytest.raises(CongestViolationError) as ref_error:
                CongestRun(graph).tick(traffic)
            with pytest.raises(CongestViolationError) as fast_error:
                FastCongestRun(graph).tick(traffic)
            assert str(fast_error.value) == str(ref_error.value)

    def test_fast_tick_max_rounds_matches_reference_error(self):
        from repro.exceptions import SimulationError

        graph = WeightedGraph([0, 1], [(0, 1, 1)])
        errors = []
        for ledger in (
            CongestRun(graph, max_rounds=1),
            FastCongestRun(graph, max_rounds=1),
        ):
            ledger.tick()
            with pytest.raises(SimulationError) as caught:
                ledger.tick()
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    def test_compiled_topology_shapes(self):
        graph = WeightedGraph([0, 1, 2], [(0, 1, 1), (1, 2, 1)])
        compiled = CompiledTopology(graph)
        assert compiled.num_directed == 4
        assert compiled.degree == {0: 1, 1: 2, 2: 1}
        assert compiled.canon[(1, 0)] == (0, 1)
        assert sum(compiled.full_counter.values()) == 4


# -- the filtered-upcast kernel (Lemma 4.14) on every tier -------------------

#: The tiers whose ledgers override ``filtered_upcast`` (numpy inherits
#: the flat-array kernel).
FAST_TIERS = ["flatarray", pytest.param("numpy", marks=requires_numpy)]


class TestPipelinedFilteredUpcastOnFastTiers(primitive_cases.TestPipelinedFilteredUpcast):
    """The reference primitive's cases, on each fast tier's kernel."""

    @pytest.fixture(autouse=True, params=FAST_TIERS)
    def _tier(self, request):
        self.tier = request.param

    def _tree(self, graph):
        run = make_ledger_run(self.tier, graph)
        return build_bfs_tree(graph, run), run


#: Base components of the randomized cases: t0–t2 and t3–t4 are already
#: merged by the fixed forest F'_c; the other entities stand alone.
RANDOM_BASE = {"t0": "c0", "t1": "c0", "t2": "c0", "t3": "c1", "t4": "c1"}


def _random_merges(seed, nodes, str_keys):
    """Candidate merges in both solver shapes, keyed like
    ``core.distributed`` (a ``Fraction`` with mixed denominators, then
    the entity pair) or like ``congest.transforms`` (``(repr(pair),)``).
    A third of them reappear at another node with the entities swapped
    and their own payload: equal keys, distinct objects."""
    rng = random.Random(seed)
    entities = [f"t{i}" for i in range(14)]
    items = {}
    for v in nodes:
        for _ in range(rng.randint(0, 3)):
            a, b = sorted(rng.sample(entities, 2))
            if str_keys:
                key = (repr((a, b)),)
            else:
                mu = Fraction(rng.randint(1, 40), rng.choice((1, 2, 3, 5, 6)))
                key = (mu, (a, b))
            items.setdefault(v, []).append(MergeItem(key, a, b, payload=v))
    for item in [m for ms in list(items.values()) for m in ms][::3]:
        w = rng.choice(nodes)
        items.setdefault(w, []).append(
            MergeItem(item.key, item.b, item.a, payload=("copy", w))
        )
    return items


def _run_filtered_upcast(run, graph, root, items, stop_predicate):
    tree = build_bfs_tree(graph, run, root=root)
    accepted = pipelined_filtered_upcast(
        tree, items, RANDOM_BASE, run, stop_predicate=stop_predicate
    )
    return (
        [(m.key, m.a, m.b, m.payload) for m in accepted],
        run.rounds,
        run.messages,
        dict(run.edge_messages),
    )


#: (graph, BFS root, item nodes): a grid with merges everywhere, where the
#: finalized prefix grows while traffic still flows, and a long path with
#: merges only next to its root, where the convergecast goes quiet before
#: any prefix is finalized (the stop fires in termination detection).
def _random_topologies():
    grid = WeightedGraph.from_networkx(
        nx.convert_node_labels_to_integers(nx.grid_2d_graph(6, 6))
    )
    path = WeightedGraph(list(range(40)), [(i, i + 1, 1) for i in range(39)])
    return {
        "grid": (grid, 0, grid.nodes),
        "path": (path, 0, [0, 1, 2, 3]),
    }


@pytest.mark.parametrize("tier", FAST_TIERS)
@pytest.mark.parametrize("topology", ["grid", "path"])
@pytest.mark.parametrize("str_keys", [False, True], ids=["fraction", "str"])
@pytest.mark.parametrize("seed", range(6))
def test_filtered_upcast_tier_matches_reference(tier, topology, str_keys, seed):
    """Randomized differential check of the kernel against the reference
    body: same accepted objects in the same order, same rounds, messages
    and per-edge traffic — with no stop, a stop at the first finalized
    merge, and a stop at the full result."""
    graph, root, item_nodes = _random_topologies()[topology]
    items = _random_merges(seed, list(item_nodes), str_keys)
    full = _run_filtered_upcast(CongestRun(graph), graph, root, items, None)
    assert full[0], "the case must accept merges"
    for stop_at in (None, 1, len(full[0])):
        stop = None if stop_at is None else (lambda p, n=stop_at: len(p) == n)
        expected = _run_filtered_upcast(CongestRun(graph), graph, root, items, stop)
        got = _run_filtered_upcast(
            make_ledger_run(tier, graph), graph, root, items, stop
        )
        assert got == expected


def test_kruskal_filter_is_monotone():
    """Adding merges only closes more cycles: kruskal_filter(A ∪ B) ∩ A ⊆
    kruskal_filter(A), so an item dead at a node stays dead (the fast
    kernel prunes it for good)."""
    rng = random.Random(0x4A14)
    entities = range(8)
    for _ in range(300):
        merges = [
            MergeItem((key,), *rng.sample(entities, 2))
            for key in rng.sample(range(100), rng.randint(1, 14))
        ]
        base = {e: e % 3 for e in entities if rng.random() < 0.3}
        cut = rng.randint(0, len(merges))
        part, rest = merges[:cut], merges[cut:]
        alive_part = {m.key for m in kruskal_filter(part, base)}
        alive_all = {m.key for m in kruskal_filter(part + rest, base)}
        assert alive_all & {m.key for m in part} <= alive_part


def test_reference_finalized_prefix_only_grows():
    """The pipelining invariant, observed on the reference body: each
    round's finalized root prefix extends the previous round's, so the
    fast kernel asks the stop predicate once per new merge."""
    graph, root, item_nodes = _random_topologies()["grid"]
    for seed in range(6):
        calls = []

        def record(prefix):
            calls.append([m.key for m in prefix])
            return False

        run = CongestRun(graph)
        tree = build_bfs_tree(graph, run, root=root)
        items = _random_merges(seed, list(item_nodes), str_keys=False)
        accepted = pipelined_filtered_upcast(
            tree, items, RANDOM_BASE, run, stop_predicate=record
        )
        final = [m.key for m in accepted]
        # The reference re-asks cuts 1..L every round: a call of length 1
        # opens a round, whose finalized prefix is its last (longest) call.
        per_round = []
        for call in calls:
            if len(call) == 1:
                per_round.append(call)
            per_round[-1] = call
        assert len(per_round) >= 2
        for earlier, later in zip(per_round, per_round[1:]):
            assert later[: len(earlier)] == earlier
        assert all(call == final[: len(call)] for call in calls)


#: Ledger fingerprints of the distributed and sublinear pipelines on
#: every registered family, taken before the message-level engines were
#: collapsed into the Simulator. A moved pin is a behaviour change.
LEDGER_PINS = json.loads(
    (Path(__file__).parent / "fixtures" / "pinned_executions.json").read_text()
)["ledger"]

PIPELINES = {
    "distributed": distributed_moat_growing,
    "sublinear": sublinear_moat_growing,
}


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize(
    "tier",
    [
        "reference",
        "flatarray",
        "auto",
        pytest.param("numpy", marks=requires_numpy),
    ],
)
def test_ledger_tier_matches_pin(tier, pipeline, family):
    """Every tier reproduces the pinned rounds, messages, per-edge
    traffic, phase rounds and forest on every registered family."""
    instance = _instance(family)
    run = make_ledger_run(tier, instance.graph)
    result = PIPELINES[pipeline](instance, run=run)
    text = json.dumps(_ledger_fingerprint(result), sort_keys=True, default=repr)
    rounds, messages, digest = LEDGER_PINS[f"{pipeline}-{family}"]
    assert (result.rounds, result.run.messages) == (rounds, messages)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _path_graph(num_nodes):
    """A cheap connected graph at exactly ``num_nodes`` nodes."""
    return WeightedGraph(
        list(range(num_nodes)),
        [(i, i + 1, 1) for i in range(num_nodes - 1)],
    )


#: Node counts on both sides of the size thresholds ``auto`` once
#: applied (64 and 1024); none of them moves its choice any more.
AUTO_SIZES = [2, 63, 64, 1023, 1024]


def _auto_ledger_type():
    """``NumpyCongestRun`` when the extra is installed, else flatarray."""
    if numpy_tier_available():
        from repro.perf.npkernels import NumpyCongestRun

        return NumpyCongestRun
    return FastCongestRun


class TestAutoTier:
    @pytest.mark.parametrize("num_nodes", AUTO_SIZES)
    def test_auto_ignores_instance_size(self, num_nodes):
        run = make_ledger_run("auto", _path_graph(num_nodes))
        assert type(run) is _auto_ledger_type()

    def test_ledger_tiers_by_name(self):
        small = random_instance(8, 2, random.Random(1)).graph
        assert type(make_ledger_run("auto", small)) is _auto_ledger_type()
        assert type(make_ledger_run("flatarray", small)) is FastCongestRun
        assert type(make_ledger_run("reference", small)) is CongestRun
        with pytest.raises(ValueError):
            make_ledger_run("warpdrive", small)
        # The retired sharded engine is rejected, not aliased.
        with pytest.raises(ValueError, match="unknown simulation backends"):
            make_ledger_run("sharded", small)
        # No tier takes parameters — one --backend spec, one validation
        # path, the same check scenario specs apply.
        with pytest.raises(ValueError, match="bad parameters"):
            make_ledger_run(
                {"name": "flatarray", "params": {"typo": 1}}, small
            )

    @pytest.mark.parametrize(
        "params",
        [
            {"threshold": 4},
            {"numpy_threshold": 8},
            {"threshold": 64, "numpy_threshold": 1},
        ],
    )
    def test_retired_threshold_params_rejected(self, params):
        small = random_instance(8, 2, random.Random(1)).graph
        with pytest.raises(ValueError, match="threshold and numpy_threshold"):
            make_ledger_run({"name": "auto", "params": params}, small)

    @requires_numpy
    def test_ledger_numpy_tier(self):
        small = random_instance(8, 2, random.Random(1)).graph
        from repro.perf.npkernels import NumpyCongestRun

        assert type(make_ledger_run("numpy", small)) is NumpyCongestRun
