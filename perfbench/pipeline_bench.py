"""Workloads, the timed loop and the traced run of the pipeline benchmark.

Every job goes through the public ``repro.engine.runner.execute_job``, one at
a time in this process (a closed loop with one client, like
``repro sweep --serial``). Each call rebuilds its instance from the job dict,
so no memoized all-pairs table or shortest-path diameter is shared between
jobs. The program receives only the generated job dicts; the workload seed
decides their ``seed_index`` values and so every graph and terminal set.

See ``README.md`` in this directory for why each workload exists and which
end-to-end metric each per-layer metric is expected to move.
"""

import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from layer_trace import Tracer, patched

Job = Dict[str, Any]

#: Record fields the tiers must agree on (``repro.perf`` conformance pin).
TIER_FIELDS = ("weight", "rounds", "messages", "bits", "max_edge_messages")

#: Job classes reported per layer: algorithm, plus the requested backend for
#: solvers that charge a ledger.
JOB_CLASSES = (
    "moat", "rounded", "sublinear.auto", "distributed.auto", "distributed.reference",
)
_LEDGER_SOLVERS = ("distributed", "sublinear")

#: Ledger class → tier name (``repro.perf.make_ledger_run``).
TIER_OF_LEDGER = {
    "CongestRun": "reference",
    "FastCongestRun": "flatarray",
    "NumpyCongestRun": "numpy",
}


def make_job(
    workload: str,
    family: str,
    family_params: Mapping[str, Any],
    k: int,
    component_size: int,
    algorithm: str,
    seed_index: int,
    backend: str = "reference",
    algo_params: Optional[Mapping[str, Any]] = None,
) -> Job:
    """A job dict in the shape ``Job.to_dict`` produces (default backend
    omitted, as in stored identities)."""
    job: Job = {
        "scenario": f"perfbench-{workload}",
        "family": family,
        "family_params": dict(family_params),
        "k": k,
        "component_size": component_size,
        "algorithm": algorithm,
        "algo_params": dict(algo_params or {}),
        "seed_index": seed_index,
        "exact": False,
    }
    if backend != "reference":
        job["backend"] = {"name": backend, "params": {}}
    return job


def _seed_indices(seed: int, count: int) -> List[int]:
    # Disjoint per seed for any seed ≥ 0; the same seed → the same inputs.
    return [seed * 1000 + i for i in range(count)]


#: Terminal placement of every workload: k=4 disjoint groups of 4 terminals,
#: placed uniformly. With k=3 pairs the number of merge phases (and so the
#: rounds and the job time) jumps by up to 2x between seeds; groups of 4
#: keep rounds within a few percent, so a run measures the code, not the
#: draw.
K, GROUP = 4, 4

#: Average degree of the gnp graphs. At degree 8 about half the draws at
#: n=2048 are disconnected and get the generator's Hamiltonian-path overlay
#: (+25% edges), which makes job time bimodal across seeds; at degree 12 the
#: overlay is rare (about 1% of draws at n=2048).
GNP_DEGREE = 12


def _gnp_params(n: int) -> Dict[str, Any]:
    return {"n": n, "p": GNP_DEGREE / (n - 1)}


def oracle_central_jobs(seed: int, instances: int = 1, n: int = 512) -> List[Job]:
    """``moat``, ``rounded`` and ``sublinear`` (both ε = 1/2; sublinear on
    ``auto``) on one gnp instance per seed index."""
    jobs = []
    for index in _seed_indices(seed, instances):
        for algorithm, backend, algo in (
            ("moat", "reference", None),
            ("rounded", "reference", {"eps": "1/2"}),
            ("sublinear", "auto", {"eps": "1/2"}),
        ):
            jobs.append(make_job(
                "oracle-central", "gnp", _gnp_params(n), K, GROUP, algorithm,
                index, backend=backend, algo_params=algo,
            ))
    return jobs


def ledger_gnp_jobs(seed: int, instances: int = 2, n: int = 2048) -> List[Job]:
    """``distributed`` on ``auto`` and on ``reference`` over one gnp
    instance per seed index."""
    return [
        make_job("ledger-gnp", "gnp", _gnp_params(n), K, GROUP,
                 "distributed", index, backend=backend)
        for index in _seed_indices(seed, instances)
        for backend in ("auto", "reference")
    ]


def ledger_highs_jobs(
    seed: int, instances: int = 3, spine: int = 400, side: int = 28
) -> List[Job]:
    """``distributed`` on ``auto`` and on ``reference`` over a caterpillar
    (spine × 3 nodes) and a side × side grid per seed index."""
    return [
        make_job("ledger-highs", family, params, K, GROUP, "distributed",
                 index, backend=backend)
        for index in _seed_indices(seed, instances)
        for family, params in (
            ("caterpillar", {"spine": spine, "legs": 2}),
            ("grid", {"rows": side, "cols": side}),
        )
        for backend in ("auto", "reference")
    ]


class Workload(NamedTuple):
    """A named job generator. The timed loop cycles through ``instances``
    seed indices; the traced run takes the first ``trace_instances``."""

    name: str
    jobs: Callable[..., List[Job]]
    instances: int
    trace_instances: int

    def job_list(self, seed: int, traced: bool = False) -> List[Job]:
        return self.jobs(
            seed, instances=self.trace_instances if traced else self.instances
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("oracle-central", oracle_central_jobs, 1, 1),
        Workload("ledger-gnp", ledger_gnp_jobs, 2, 1),
        Workload("ledger-highs", ledger_highs_jobs, 3, 2),
    )
}


def job_class(job: Job) -> str:
    """``algorithm`` or, for ledger solvers, ``algorithm.backend``."""
    if job["algorithm"] in _LEDGER_SOLVERS:
        return f"{job['algorithm']}.{requested_backend(job)}"
    return job["algorithm"]


def requested_backend(job: Job) -> str:
    return job.get("backend", {"name": "reference"})["name"]


def reference_twin(job: Job) -> Job:
    """The same job on the default ``reference`` tier."""
    twin = dict(job)
    twin.pop("backend", None)
    return twin


def comparable(record: Mapping[str, Any]) -> Dict[str, Any]:
    """A record without its wall-clock fields."""
    out = dict(record)
    out["metrics"] = {
        k: v for k, v in record["metrics"].items() if k != "wall_time"
    }
    return out


def tier_mismatch(auto: Mapping[str, Any], ref: Mapping[str, Any]) -> List[str]:
    """Fields on which an ``auto`` record disagrees with its reference twin."""
    return [
        name for name in TIER_FIELDS
        if auto["metrics"].get(name) != ref["metrics"].get(name)
    ]


def execute(job: Job) -> Dict[str, Any]:
    """Run one job through the module attribute, so a traced run's wrapper
    (installed on ``repro.engine.runner.execute_job``) sees the call."""
    from repro.engine import runner

    return runner.execute_job(job)


def calibration_loop() -> float:
    """Wall time of a fixed pure-Python loop that shares no code with
    ``repro`` (dict writes, a sort, a sum; about 20 ms): the speed of the
    machine at this moment."""
    started = time.perf_counter()
    table = {}
    for i in range(120_000):
        table[(i * 7919) % 65521] = i
    total = 0
    for value in sorted(table.values()):
        total += value & 7
    return time.perf_counter() - started


class Outcome:
    """Records, per-job wall samples and failures of one or more passes.

    With ``calibrate`` every job is bracketed by calibration loops, and the
    job's *cost* is its wall time over the mean of the two: the job's time
    in units of the machine's speed at that moment.
    """

    def __init__(self, jobs: List[Job], calibrate: bool = False) -> None:
        self.jobs = jobs
        self.records: List[Optional[Dict[str, Any]]] = [None] * len(jobs)
        self.samples: List[List[float]] = [[] for _ in jobs]
        self.costs: List[List[float]] = [[] for _ in jobs]
        self.calibrations: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.notes: List[str] = []
        if calibrate:
            self.calibrations.append(calibration_loop())

    def run_one(self, index: int) -> Optional[Dict[str, Any]]:
        """Execute job ``index``, clocked outside ``execute_job``; a raise
        or a record that differs from an earlier run of the job fails."""
        job = self.jobs[index]
        self.attempted += 1
        started = time.perf_counter()
        try:
            record = execute(job)
        except Exception as exc:  # a failing job is counted, not fatal
            self.failures.append(f"job {index} ({job_class(job)}) raised {exc!r}")
            return None
        elapsed = time.perf_counter() - started
        self.samples[index].append(elapsed)
        if self.calibrations:
            before, after = self.calibrations[-1], calibration_loop()
            self.calibrations.append(after)
            self.costs[index].append(2.0 * elapsed / (before + after))
        previous = self.records[index]
        if previous is None:
            self.records[index] = record
        elif comparable(previous) != comparable(record):
            self.failures.append(f"job {index} ({job_class(job)}) not deterministic")
        return record

    def run_pass(self) -> float:
        """Every job once, in order; returns the pass wall time."""
        started = time.perf_counter()
        for index in range(len(self.jobs)):
            self.run_one(index)
        return time.perf_counter() - started

    def job_medians(self) -> List[Optional[float]]:
        return [statistics.median(s) if s else None for s in self.samples]

    def class_means(self) -> Dict[str, Tuple[float, int]]:
        """Mean over jobs of each job's median wall time, per job class,
        with the number of jobs."""
        by_class: Dict[str, List[float]] = {}
        for job, median in zip(self.jobs, self.job_medians()):
            if median is not None:
                by_class.setdefault(job_class(job), []).append(median)
        return {c: (statistics.fmean(v), len(v)) for c, v in by_class.items()}

    def check_tiers(self, run_missing: bool) -> None:
        """Compare each ``auto`` record with its ``reference`` twin: the
        twin's record from this outcome if the list holds it, else (with
        ``run_missing``) a fresh untraced run."""
        for index, (job, record) in enumerate(zip(self.jobs, self.records)):
            if record is None or requested_backend(job) != "auto":
                continue
            twin = reference_twin(job)
            ref = next(
                (r for j, r in zip(self.jobs, self.records) if j == twin), None
            )
            if ref is None and run_missing:
                self.attempted += 1
                try:
                    ref = execute(twin)
                except Exception as exc:
                    self.failures.append(f"reference twin of job {index} raised {exc!r}")
                    continue
            if ref is not None:
                bad = tier_mismatch(record, ref)
                if bad:
                    self.failures.append(
                        f"job {index} ({job_class(job)}) differs from reference on {bad}"
                    )


def warm_up() -> None:
    """Pay lazy imports and first-call costs of every tier before timing:
    one tiny ``distributed`` job per available ledger tier, and one tiny
    job per centralized solver."""
    from repro.simbackend import numpy_tier_available

    tiers = ["reference", "flatarray"] + (["numpy"] if numpy_tier_available() else [])
    tiny = {"n": 24, "p": 0.3}
    for tier in tiers:
        execute(make_job("warm-up", "gnp", tiny, 2, 2, "distributed", 0, backend=tier))
        execute(make_job("warm-up", "gnp", tiny, 2, 2, "sublinear", 0, backend=tier))
    for algorithm in ("moat", "rounded"):
        execute(make_job("warm-up", "gnp", tiny, 2, 2, algorithm, 0))


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(jobs: List[Job], seconds: float) -> Outcome:
    """The closed loop: cycle through ``jobs`` (at least one full pass) until
    ``seconds`` have passed, then check ``auto`` records against any
    ``reference`` twins in the list."""
    outcome = Outcome(jobs, calibrate=True)
    started = time.perf_counter()
    done = 0
    while done < len(jobs) or time.perf_counter() - started < seconds:
        outcome.run_one(done % len(jobs))
        done += 1
    outcome.check_tiers(run_missing=False)
    return outcome


def timed_metrics(outcome: Outcome) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of a timed run (``setup_s`` is added by the
    caller, which measures it in fresh interpreters).

    A job's cost is the median of its calibrated samples; ``job_cost.auto``
    and ``job_cost.reference`` are means over the jobs requested on that
    backend (centralized solvers have only the reference tier).
    """
    if any(not costs for costs in outcome.costs):
        raise RuntimeError("a job never completed; no timing to report")
    by_backend: Dict[str, List[float]] = {}
    for job, costs in zip(outcome.jobs, outcome.costs):
        by_backend.setdefault(requested_backend(job), []).append(
            statistics.median(costs)
        )
    return {
        "job_cost.auto": (statistics.fmean(by_backend["auto"]), "calib"),
        "job_cost.reference": (statistics.fmean(by_backend["reference"]), "calib"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

#: Per-layer metrics taken as a span's self time, by span name.
SELF_TIME_METRICS = {
    "engine.execute_job_self_s": "engine.execute_job",
    "workloads.build_s": "workloads.build",
    "model.dijkstra_s": "model.dijkstra",
    "model.apsp_s": "model.apsp",
    "model.spd_s": "model.spd",
    "model.min_hop_s": "model.min_hop",
    "model.shortest_path_s": "model.shortest_path",
    "perf.ledger_build_s": "perf.ledger_build",
    "congest.bfs_s": "congest.bfs",
    "congest.bellman_ford_s": "congest.bellman_ford",
    "congest.upcast_s": "congest.upcast",
    "congest.broadcast_s": "congest.broadcast",
    "congest.pipelined_upcast_s": "congest.pipelined_upcast",
    "core.moat_self_s": "core.moat",
    "core.rounded_self_s": "core.rounded",
    "core.distributed_self_s": "core.distributed",
    "core.sublinear_self_s": "core.sublinear",
    "core.central_schedule_s": "core.central_schedule",
    "core.pruning_s": "core.pruning",
    "solution.feasibility_s": "solution.feasibility",
    "solution.minimal_subforest_s": "solution.minimal_subforest",
}

#: Per-layer call counts, by span name.
CALL_METRICS = {
    "model.dijkstra_calls": "model.dijkstra",
    "model.apsp_calls": "model.apsp",
    "model.min_hop_calls": "model.min_hop",
    "model.shortest_path_calls": "model.shortest_path",
    "congest.bellman_ford_calls": "congest.bellman_ford",
}

#: Exact per-pass sums of record metrics.
RECORD_SUMS = {
    "congest.rounds": "rounds",
    "congest.messages": "messages",
    "congest.bits": "bits",
    "congest.max_edge_messages": "max_edge_messages",
    "solution.forest_weight": "weight",
}

#: Units of exact per-pass values (counts and sums), as opposed to times
#: and ratios; they must repeat in every traced pass.
EXACT_UNITS = ("count", "bit", "weight")


def auto_tiers(tracer: Tracer, jobs: List[Job]) -> List[Tuple[int, str]]:
    """(job index, tier) for every ``auto`` job of a traced pass: the tier
    is the class of the ledger ``make_ledger_run`` returned."""
    # Root spans are the execute_job calls, one per job in list order.
    roots = sorted(
        (s for s in tracer.spans if s.parent is None), key=lambda s: s.start
    )
    index_of_root = {root.id: i for i, root in enumerate(roots)}
    return [
        (index_of_root[span.root], TIER_OF_LEDGER[span.note])
        for span in tracer.spans
        if span.name == "perf.ledger_build"
        and requested_backend(jobs[index_of_root[span.root]]) == "auto"
    ]


def pass_layers(
    tracer: Tracer, jobs: List[Job], records: List[Optional[Dict[str, Any]]],
    wall: float,
) -> Dict[str, float]:
    """Per-layer values of one traced pass."""
    self_times = tracer.self_times()
    calls = tracer.calls()
    out: Dict[str, float] = {
        name: self_times.get(span, 0.0) for name, span in SELF_TIME_METRICS.items()
    }
    out.update({name: calls.get(span, 0) for name, span in CALL_METRICS.items()})
    out["model.oracle_share"] = sum(
        t for span, t in self_times.items() if span.startswith("model.")
    ) / wall
    sizes = [s.note for s in tracer.spans if s.name == "workloads.build"]
    out["workloads.nodes"] = sum(n for n, _ in sizes)
    out["workloads.edges"] = sum(m for _, m in sizes)
    tiers = {tier: 0 for tier in TIER_OF_LEDGER.values()}
    for _, tier in auto_tiers(tracer, jobs):
        tiers[tier] += 1
    out.update({f"perf.tier_jobs.{tier}": n for tier, n in tiers.items()})
    done = [r for r in records if r is not None]
    for name, field in RECORD_SUMS.items():
        out[name] = sum(r["metrics"].get(field, 0) for r in done)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(self_times.values())
    return out


def run_traced(jobs: List[Job]) -> Tuple[Dict[str, Tuple[float, str]], Outcome]:
    """One untraced pass, two traced passes, then the reference twins.

    Fails the outcome when a traced record differs from the untraced one,
    when a reuse-guard count differs between traced passes, or when an
    ``auto`` record disagrees with its reference twin.
    """
    outcome = Outcome(jobs)
    untraced_wall = outcome.run_pass()
    classes = outcome.class_means()
    passes = []
    for _ in range(2):
        tracer = Tracer()
        with patched(tracer):
            wall = outcome.run_pass()
        passes.append(pass_layers(tracer, jobs, outcome.records, wall))
    outcome.notes = [
        f"job {index} {job_class(jobs[index])} {jobs[index]['family']} "
        f"n={outcome.records[index]['metrics']['n']}: auto -> {tier}"
        for index, tier in sorted(auto_tiers(tracer, jobs))
    ]
    layers: Dict[str, Tuple[float, str]] = {}
    for name in passes[0]:
        unit = layer_unit(name)
        if unit in EXACT_UNITS:
            # Exact counts must repeat in every pass: a difference means
            # state leaked from one job or pass into the next.
            values = {p[name] for p in passes}
            if len(values) != 1:
                outcome.failures.append(
                    f"{name} differs between traced passes: {sorted(values)}"
                )
            layers[name] = (passes[0][name], unit)
        else:
            layers[name] = (statistics.median(p[name] for p in passes), unit)
    outcome.check_tiers(run_missing=True)
    layers["trace.overhead_frac"] = (
        statistics.median(p["trace.wall_s"] for p in passes) / untraced_wall - 1.0,
        "ratio",
    )
    for cls in JOB_CLASSES:
        mean, count = classes.get(cls, (0.0, 0))
        layers[f"job_s.{cls}"] = (mean, "s")
        layers[f"jobs.{cls}"] = (count, "count")
    return layers, outcome


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_frac")):
        return "ratio"
    if name == "solution.forest_weight":
        return "weight"
    if name == "congest.bits":
        return "bit"
    return "count"


def environment() -> Dict[str, str]:
    """Versions that change what ``auto`` resolves to or how fast it runs."""
    import networkx

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "networkx": networkx.__version__,
    }
