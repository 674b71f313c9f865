"""Tests of the pipeline benchmark itself, at tiny sizes.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import layer_trace
import pipeline_bench as pb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Tiny versions of each workload's job generator.
TINY = {
    "oracle-central": lambda seed: pb.oracle_central_jobs(seed, 1, n=40),
    "ledger-gnp": lambda seed: pb.ledger_gnp_jobs(seed, 1, n=64),
    "ledger-highs": lambda seed: pb.ledger_highs_jobs(seed, 1, spine=12, side=5),
}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _originals():
    return {
        patch: vars(layer_trace.patch_owner(patch))[patch.attr]
        for patch in layer_trace.PATCHES
    }


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_workload_runs_clean(workload):
    jobs = TINY[workload](3)
    outcome = pb.run_timed(jobs, seconds=0)
    assert outcome.failures == []
    timed = pb.timed_metrics(outcome)
    layers, traced = pb.run_traced(jobs)
    assert traced.failures == []
    assert layers["trace.unattributed_s"][0] < 0.02 * layers["trace.wall_s"][0]
    assert all(value > 0 for value, _ in timed.values())
    names = set(layers) | set(timed) | {"setup_s"}
    assert all(NAME.match(name) for name in names)


def test_tiny_layer_split_matches_the_workload_shapes():
    central, _ = pb.run_traced(TINY["oracle-central"](1))
    ledger, _ = pb.run_traced(TINY["ledger-gnp"](1))
    assert central["model.dijkstra_calls"][0] > 0
    assert central["jobs.moat"][0] == central["jobs.rounded"][0] == 1
    assert ledger["model.dijkstra_calls"][0] == 0
    assert ledger["congest.rounds"][0] > 0
    tiers = ("reference", "flatarray", "numpy")
    assert sum(ledger[f"perf.tier_jobs.{t}"][0] for t in tiers) == 1


def test_wrap_and_restore_round_trip():
    before = _originals()
    tracer = layer_trace.Tracer()
    with layer_trace.patched(tracer):
        for patch, original in before.items():
            wrapped = vars(layer_trace.patch_owner(patch))[patch.attr]
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    assert _originals() == before
    assert all(_originals()[p] is before[p] for p in before)


def test_restore_when_the_block_raises():
    before = _originals()
    with pytest.raises(ValueError):
        with layer_trace.patched(layer_trace.Tracer()):
            raise ValueError("boom")
    assert all(_originals()[p] is before[p] for p in before)


def test_self_time_subtracts_children():
    tracer = layer_trace.Tracer()
    span = layer_trace.Span
    tracer.spans = [
        span(1, "inner", 0, 0, 1.0, 3.0, None),
        span(2, "inner", 0, 0, 4.0, 5.0, None),
        span(0, "outer", None, 0, 0.0, 10.0, None),
    ]
    assert tracer.self_times() == {"inner": 3.0, "outer": 7.0}
    assert tracer.calls() == {"inner": 2, "outer": 1}


def test_spans_nest_with_parent_and_root_links():
    tracer = layer_trace.Tracer()
    leaf = tracer.wrap("leaf", lambda: 1)
    mid = tracer.wrap("mid", lambda: leaf() + leaf())
    top = tracer.wrap("top", lambda: mid())
    assert top() == 2
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (t,), (m,) = by_name["top"], by_name["mid"]
    assert t.parent is None and m.parent == t.id
    assert all(s.parent == m.id and s.root == t.id for s in by_name["leaf"])


def test_seed_decides_the_inputs():
    for workload in pb.WORKLOADS.values():
        assert workload.job_list(5) == workload.job_list(5)
        assert workload.job_list(5) != workload.job_list(6)
        traced = workload.job_list(5, traced=True)
        assert traced == workload.job_list(5)[:len(traced)]


def test_benchmark_json_matches_the_program():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(pb.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    outcome = pb.run_timed(TINY["ledger-highs"](2), seconds=0)
    assert e2e == set(pb.timed_metrics(outcome)) | {"setup_s"}
    layers, _ = pb.run_traced(TINY["ledger-highs"](2))
    assert {m["name"] for m in spec["per_layer"]} == set(layers)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert units == {name: unit for name, (_, unit) in layers.items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ledger-gnp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
