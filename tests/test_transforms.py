"""Tests for the DSF-CR ↔ DSF-IC transforms (Lemmas 2.3, 2.4)."""

import hashlib
import json
import random

import pytest

from repro.congest import (
    CongestRun,
    distributed_minimalize,
    distributed_requests_to_components,
)
from repro.model import (
    ConnectionRequestInstance,
    ForestSolution,
    SteinerForestInstance,
)
from repro.engine.registry import GRAPH_FAMILIES
from repro.model.transforms import (
    components_to_requests,
    minimalize_instance,
    requests_to_components,
)
from repro.perf import make_ledger_run
from repro.simbackend import numpy_tier_available
from tests.conftest import make_random_instance


class TestCentralizedTransforms:
    def test_requests_to_components_merges_transitively(self, grid44):
        cr = ConnectionRequestInstance(grid44, {0: {1}, 1: {2}, 5: {6}})
        ic = requests_to_components(cr)
        assert ic.label(0) == ic.label(1) == ic.label(2)
        assert ic.label(5) == ic.label(6)
        assert ic.label(0) != ic.label(5)

    def test_requests_to_components_equivalent_feasible_sets(self, grid44):
        cr = ConnectionRequestInstance(grid44, {0: {1}, 1: {2}})
        ic = requests_to_components(cr)
        path = ForestSolution(grid44, [(0, 1), (1, 2)])
        assert path.is_feasible(cr) and path.is_feasible(ic)
        partial = ForestSolution(grid44, [(0, 1)])
        assert not partial.is_feasible(cr) and not partial.is_feasible(ic)

    def test_minimalize_drops_singletons(self, grid44):
        ic = SteinerForestInstance(grid44, {0: "a", 15: "a", 3: "b"})
        minimal = minimalize_instance(ic)
        assert minimal.is_minimal()
        assert minimal.terminals == frozenset({0, 15})

    def test_minimalize_identity_on_minimal(self, grid_instance_2comp):
        assert (
            minimalize_instance(grid_instance_2comp).labels
            == grid_instance_2comp.labels
        )

    def test_components_to_requests_roundtrip(self, grid_instance_2comp):
        cr = components_to_requests(grid_instance_2comp)
        back = requests_to_components(cr)
        # Same partition of terminals (labels may be renamed).
        orig = sorted(
            sorted(c) for c in grid_instance_2comp.components.values()
        )
        again = sorted(sorted(c) for c in back.components.values())
        assert orig == again


class TestDistributedTransforms:
    def test_matches_centralized_requests(self, grid44):
        cr = ConnectionRequestInstance(
            grid44, {0: {15}, 15: {3}, 5: {6}, 9: {10, 11}}
        )
        run = CongestRun(grid44)
        dist = distributed_requests_to_components(cr, run)
        cent = requests_to_components(cr)
        assert dist.labels == cent.labels
        assert run.rounds > 0

    def test_matches_centralized_minimalize(self, grid44):
        ic = SteinerForestInstance(
            grid44, {0: "a", 15: "a", 3: "b", 7: "c", 8: "c", 9: "c"}
        )
        run = CongestRun(grid44)
        dist = distributed_minimalize(ic, run)
        assert dist.labels == minimalize_instance(ic).labels

    def test_requests_round_bound_O_D_plus_t(self, grid44):
        """Lemma 2.3: O(D + t) rounds."""
        cr = ConnectionRequestInstance(grid44, {0: {15}, 3: {12}, 5: {10}})
        run = CongestRun(grid44)
        distributed_requests_to_components(cr, run)
        d = grid44.unweighted_diameter()
        t = cr.num_terminals
        assert run.rounds <= 12 * (d + t)

    def test_minimalize_round_bound_O_D_plus_k(self, grid44):
        """Lemma 2.4: O(D + k) rounds."""
        ic = SteinerForestInstance(
            grid44, {0: "a", 15: "a", 3: "b", 12: "b", 5: "c"}
        )
        run = CongestRun(grid44)
        distributed_minimalize(ic, run)
        d = grid44.unweighted_diameter()
        k = ic.num_components
        assert run.rounds <= 12 * (d + k)

    def test_random_instances_match(self):
        for seed in range(5):
            ic = make_random_instance(seed)
            cr = components_to_requests(ic)
            run = CongestRun(ic.graph)
            dist = distributed_requests_to_components(cr, run)
            # Partitions agree with the original components.
            orig = sorted(sorted(c) for c in ic.components.values()
                          if len(c) >= 2)
            got = sorted(sorted(c) for c in dist.components.values()
                         if len(c) >= 2)
            assert orig == got


#: (family, params, seed, number of random requests) → (rounds, messages,
#: digest of per-edge traffic, phase rounds and output labels), taken on
#: the transform's original hand-written filtered upcast. Random request
#: pairs close cycles in the demand forest, so the en-route Kruskal filter
#: and the root-side re-filter both do work.
TRANSFORM_PINS = [
    (("grid", {"rows": 4, "cols": 5}, 1, 9),
     (35, 270, "ea8216035be27cc53b341bb2571d3e3d8f2ae2b4bcd3af2af8838023d25e5100")),
    (("grid", {"rows": 6, "cols": 6}, 2, 14),
     (40, 615, "6d6832b5c2c77b6b1295e5d928d47040655bf28574c5d4e37bcf2f6a5d2bc449")),
    (("gnp", {"n": 24, "p": 0.2}, 3, 12),
     (26, 418, "dc0c690b1410a3fe5dcfb7f9b74c78842354a42e2769e358f4d71807b33fe2e7")),
    (("gnp", {"n": 40, "p": 0.12}, 4, 25),
     (44, 1195, "242957f3d10c431b70b62ae410d4a0ce9de74acf7babd77c567c79a877fb7476")),
    (("caterpillar", {"spine": 8, "legs": 2}, 5, 10),
     (48, 320, "6042130ea5d87be1917980ec109c1d0b29c08d9c5569c4a13401a9221d13da6e")),
    (("caterpillar", {"spine": 12, "legs": 3}, 6, 30),
     (78, 1498, "5104483911a220ef2a1fbf02c40620d49a626d651810f51aadaa749b9aee0d68")),
]


def _random_requests(family, params, seed, num_requests):
    rng = random.Random(seed)
    graph = GRAPH_FAMILIES[family].build(rng, **params)
    nodes = list(graph.nodes)
    requests = {}
    for _ in range(num_requests):
        v, w = rng.sample(nodes, 2)
        requests.setdefault(v, set()).add(w)
    return ConnectionRequestInstance(graph, requests)


@pytest.mark.parametrize(
    "tier",
    [
        "reference",
        "flatarray",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(
                not numpy_tier_available(),
                reason="optional numpy extra not installed",
            ),
        ),
    ],
)
@pytest.mark.parametrize(
    ("case", "pin"), TRANSFORM_PINS, ids=[f"{c[0]}-{c[2]}" for c, _ in TRANSFORM_PINS]
)
def test_requests_to_components_pinned(case, pin, tier):
    """Every ledger tier reproduces the pinned Lemma 2.3 execution."""
    cr = _random_requests(*case)
    run = make_ledger_run(tier, cr.graph)
    ic = distributed_requests_to_components(cr, run)
    assert ic.labels == requests_to_components(cr).labels
    text = json.dumps(
        [
            sorted(run.edge_messages.items(), key=repr),
            dict(run.phase_rounds),
            sorted(ic.labels.items(), key=repr),
        ],
        sort_keys=True,
        default=repr,
    )
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (run.rounds, run.messages, digest) == pin
