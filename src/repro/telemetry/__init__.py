"""Unified telemetry: run manifests, structured spans/metrics, sinks.

The paper's headline claims — Õ(√n + D) rounds and bounded per-edge
congestion — are *observability* claims; this package is the single
structured layer that measures them across every execution surface:

* :mod:`repro.telemetry.manifest` — :class:`RunManifest`, the per-run
  identity (run id, workload hash, backend/network, git describe) every
  stream attaches to.
* :mod:`repro.telemetry.core` — :class:`Telemetry`, the event bus:
  hierarchical spans, typed counters/gauges/histograms, and
  :meth:`Telemetry.emit_profile`, which emits a finished
  :class:`~repro.perf.PhaseProfiler`'s rows as ``phase`` events.
* :mod:`repro.telemetry.sinks` — pluggable consumers: JSONL file,
  in-memory, human console (with the engine's historical progress
  strings as the compat rendering), and the bounded :class:`RingSink`.
* :mod:`repro.telemetry.expose` — Prometheus-style text exposition of
  a metrics snapshot (``repro metrics --prom``).
* :mod:`repro.telemetry.flight` — the crash :class:`FlightRecorder`:
  a ring of recent events auto-dumped to JSONL on pool rebuilds,
  terminal job failures, daemon errors, and SIGTERM drain.
* :mod:`repro.telemetry.summary` — the one per-phase text table
  (rounds / messages / bits / wall / share) behind ``repro profile``
  and ``repro trace summary``, and logical-metric diffs over event
  streams (``repro trace diff``).
* :mod:`repro.telemetry.report_html` — self-contained HTML run reports
  (manifest, phase table, congestion heatmap, metrics snapshot) from
  any captured stream (``repro report --html``).
* :mod:`repro.telemetry.benchcheck` — the ``repro bench check``
  regression gate over the committed BENCH_*.json trajectory.

Invariant (pinned in ``tests/test_telemetry.py``): telemetry observes
and never participates — with the bus detached, results, ledger
accounting, and result-store cache keys are byte-identical to a
pre-telemetry run, and nothing in a manifest feeds a job identity.
"""

from repro.telemetry.benchcheck import (
    BenchCheckReport,
    CheckRow,
    check_bench_file,
    check_benches,
)
from repro.telemetry.core import Telemetry
from repro.telemetry.expose import metric_name, render_json, render_prometheus
from repro.telemetry.flight import FlightRecorder, latest_dump
from repro.telemetry.manifest import (
    TELEMETRY_SCHEMA,
    RunManifest,
    git_describe,
    new_run_id,
)
from repro.telemetry.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.report_html import render_html_report
from repro.telemetry.sinks import (
    CallbackSink,
    ConsoleSink,
    JsonlSink,
    MemorySink,
    RingSink,
    Sink,
    encode_event,
    format_event,
    format_progress,
    read_events,
)
from repro.telemetry.summary import (
    diff_streams,
    manifest_of,
    phase_rows,
    render_phase_table,
    render_profile_report,
    render_summary,
    totals_of,
)

__all__ = [
    "BUCKET_BOUNDS",
    "BenchCheckReport",
    "CallbackSink",
    "CheckRow",
    "ConsoleSink",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "RingSink",
    "RunManifest",
    "Sink",
    "TELEMETRY_SCHEMA",
    "Telemetry",
    "check_bench_file",
    "check_benches",
    "diff_streams",
    "encode_event",
    "format_event",
    "format_progress",
    "git_describe",
    "latest_dump",
    "manifest_of",
    "metric_name",
    "new_run_id",
    "phase_rows",
    "read_events",
    "render_html_report",
    "render_json",
    "render_phase_table",
    "render_profile_report",
    "render_prometheus",
    "render_summary",
    "totals_of",
]
