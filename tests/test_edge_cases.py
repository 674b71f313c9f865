"""Edge-case and failure-injection tests across the pipeline."""

import random

import pytest

from repro.congest import CongestRun
from repro.congest.transforms import (
    distributed_minimalize,
    distributed_requests_to_components,
)
from repro.core import (
    distributed_moat_growing,
    moat_growing,
    rounded_moat_growing,
    sublinear_moat_growing,
)
from repro.exceptions import SimulationError
from repro.lowerbounds import dsf_cr_gadget
from repro.model import (
    ConnectionRequestInstance,
    SteinerForestInstance,
    WeightedGraph,
)
from repro.perf import make_ledger_run
from repro.randomized import randomized_steiner_forest
from repro.simbackend import numpy_tier_available


@pytest.fixture
def two_nodes():
    return WeightedGraph([0, 1], [(0, 1, 5)])


@pytest.fixture
def weight_spread():
    """Four nodes whose edge weights span 1 to 3·10^6."""
    return WeightedGraph(
        range(4),
        [(0, 1, 1), (1, 2, 10**6), (2, 3, 1), (0, 3, 3 * 10**6)],
    )


class TestDegenerateGraphs:
    def test_two_node_pair(self, two_nodes):
        inst = SteinerForestInstance(two_nodes, {0: "x", 1: "x"})
        for solver in (
            moat_growing,
            lambda i: rounded_moat_growing(i, 0.5),
            distributed_moat_growing,
        ):
            result = solver(inst)
            assert result.solution.edges == frozenset({(0, 1)})

    def test_two_node_randomized(self, two_nodes):
        inst = SteinerForestInstance(two_nodes, {0: "x", 1: "x"})
        result = randomized_steiner_forest(inst, rng=random.Random(0))
        assert result.solution.is_feasible(inst)

    def test_all_nodes_same_component(self, grid33):
        inst = SteinerForestInstance(grid33, {v: "all" for v in grid33.nodes})
        result = distributed_moat_growing(inst)
        assert len(result.solution.edges) == grid33.num_nodes - 1

    def test_empty_labels_everywhere(self, grid33):
        inst = SteinerForestInstance(grid33, {})
        for solver in (moat_growing, distributed_moat_growing,
                       lambda i: sublinear_moat_growing(i, 0.5)):
            assert solver(inst).solution.edges == frozenset()

    def test_terminals_adjacent(self, path5):
        inst = SteinerForestInstance(path5, {2: "x", 3: "x"})
        result = distributed_moat_growing(inst)
        assert result.solution.edges == frozenset({(2, 3)})

    def test_many_singleton_components(self, grid33):
        inst = SteinerForestInstance(
            grid33, {v: f"solo-{v}" for v in grid33.nodes}
        )
        assert distributed_moat_growing(inst).solution.edges == frozenset()


class TestFailureInjection:
    def test_max_rounds_aborts_distributed_run(self, grid44):
        inst = SteinerForestInstance(grid44, {0: "x", 15: "x"})
        run = CongestRun(grid44, max_rounds=3)
        with pytest.raises(SimulationError):
            distributed_moat_growing(inst, run)

    def test_max_rounds_aborts_sublinear_run(self, grid44):
        inst = SteinerForestInstance(grid44, {0: "x", 15: "x"})
        run = CongestRun(grid44, max_rounds=3)
        with pytest.raises(SimulationError):
            sublinear_moat_growing(inst, 0.5, run=run)

    def test_max_rounds_aborts_randomized_run(self, grid44):
        inst = SteinerForestInstance(grid44, {0: "x", 15: "x"})
        run = CongestRun(grid44, max_rounds=2)
        with pytest.raises(SimulationError):
            randomized_steiner_forest(inst, rng=random.Random(0), run=run)


class TestTransformEdgeCases:
    def test_no_requests(self, grid33):
        cr = ConnectionRequestInstance(grid33, {})
        run = CongestRun(grid33)
        ic = distributed_requests_to_components(cr, run)
        assert ic.num_terminals == 0

    def test_all_singletons_minimalized_away(self, grid33):
        ic = SteinerForestInstance(
            grid33, {0: "a", 4: "b", 8: "c"}
        )
        run = CongestRun(grid33)
        minimal = distributed_minimalize(ic, run)
        assert minimal.num_terminals == 0

    def test_asymmetric_gadget_requests_through_pipeline(self):
        """Lemma 3.1's gadget uses asymmetric requests; the transform +
        deterministic solver pipeline must handle them end to end."""
        gadget = dsf_cr_gadget(4, {1, 2}, {3, 4})
        run = CongestRun(gadget.instance.graph)
        ic = distributed_requests_to_components(gadget.instance, run)
        result = distributed_moat_growing(ic, run)
        result.solution.assert_feasible(gadget.instance)
        result.solution.assert_feasible(ic)


class TestWeightExtremes:
    def test_huge_weight_spread(self, weight_spread):
        inst = SteinerForestInstance(weight_spread, {0: "x", 2: "x"})
        result = distributed_moat_growing(inst)
        assert result.solution.weight == 10**6 + 1

    def test_uniform_weights_many_ties(self, grid44):
        """All-ties instance: outputs may differ from the centralized run
        but must keep the approximation guarantee."""
        inst = SteinerForestInstance(
            grid44, {0: "a", 15: "a", 3: "b", 12: "b"}
        )
        central = moat_growing(inst)
        dist = distributed_moat_growing(inst)
        dist.solution.assert_feasible(inst)
        assert dist.solution.weight <= 2 * central.dual_lower_bound


#: The degenerate instances above as (graph fixture, labels of its
#: node list).
DEGENERATE_CASES = {
    "two-node-pair": ("two_nodes", lambda nodes: {0: "x", 1: "x"}),
    "terminals-adjacent": ("path5", lambda nodes: {2: "x", 3: "x"}),
    "empty-labels": ("grid33", lambda nodes: {}),
    "one-component": ("grid33", lambda nodes: {v: "all" for v in nodes}),
    "singletons": ("grid33", lambda nodes: {v: f"solo-{v}" for v in nodes}),
    "weight-spread": ("weight_spread", lambda nodes: {0: "x", 2: "x"}),
    "uniform-ties": (
        "grid44", lambda nodes: {0: "a", 15: "a", 3: "b", 12: "b"}
    ),
}

LEDGER_PIPELINES = {
    "distributed": distributed_moat_growing,
    "sublinear": lambda instance, run: sublinear_moat_growing(
        instance, 0.5, run=run
    ),
}


def _ledger_outcome(result):
    return (
        result.solution.weight,
        sorted(result.solution.edges, key=repr),
        result.rounds,
        result.run.messages,
        sorted(result.run.edge_messages.items(), key=repr),
    )


@pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
@pytest.mark.parametrize("pipeline", sorted(LEDGER_PIPELINES))
@pytest.mark.parametrize(
    "tier",
    [
        "auto",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(
                not numpy_tier_available(),
                reason="optional numpy extra not installed",
            ),
        ),
    ],
)
def test_fast_tier_matches_reference_on_degenerate_inputs(
    request, tier, pipeline, case
):
    """``auto`` hands even two-node graphs to a fast tier, so every
    degenerate instance must charge exactly what reference charges."""
    fixture, labels = DEGENERATE_CASES[case]
    graph = request.getfixturevalue(fixture)
    inst = SteinerForestInstance(graph, labels(graph.nodes))
    solve = LEDGER_PIPELINES[pipeline]
    reference = solve(inst, CongestRun(graph))
    fast = solve(inst, make_ledger_run(tier, graph))
    assert _ledger_outcome(fast) == _ledger_outcome(reference)
