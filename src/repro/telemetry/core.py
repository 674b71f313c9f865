"""The telemetry bus: one structured event stream per run.

A :class:`Telemetry` instance owns a :class:`~repro.telemetry.manifest.
RunManifest`, a :class:`~repro.telemetry.metrics.MetricsRegistry`, and a
set of sinks. Every event it emits is a plain dict stamped with the
run id, a monotonic sequence number, and the wall offset since the bus
opened — so streams from the engine runner, the simulator's message
traces, and the ledger's phase narration interleave into one ordered,
attributable record of a run.

The cardinal invariant (pinned in ``tests/test_telemetry.py``): with
telemetry detached, executions are byte-identical to the seed — same
results, same ledger accounting, same result-store cache keys. The bus
only ever *observes*; instrumentation points throughout the repo accept
``Optional[Telemetry]`` and pay one ``is not None`` check when detached.

The bus keeps no ledger accounts of its own. A
:class:`~repro.perf.PhaseProfiler` is the one object on a
:class:`~repro.congest.run.CongestRun`'s profiler hook;
:meth:`Telemetry.emit_profile` emits its finished rows as ``phase``
events, the same rows a profiled job record stores.
"""

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.telemetry.manifest import RunManifest
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.sinks import Sink


class Telemetry:
    """A per-run event bus with spans, metrics, and pluggable sinks.

    Args:
        manifest: the run identity; a fresh anonymous one by default.
        sinks: initial sinks; each receives the ``manifest`` event
            immediately (as does any sink attached later).
        clock: monotonic time source (injectable for exact tests).
    """

    def __init__(
        self,
        manifest: Optional[RunManifest] = None,
        sinks: Any = (),
        clock: Any = time.perf_counter,
    ) -> None:
        self.manifest = manifest if manifest is not None else RunManifest()
        self.metrics = MetricsRegistry()
        self._clock = clock
        self._sinks: List[Sink] = []
        self._seq = 0
        self._t0 = clock()
        self._cpu0 = time.process_time()
        self._span_stack: List[str] = []
        self.closed = False
        for sink in sinks:
            self.add_sink(sink)

    # -- plumbing --------------------------------------------------------

    @property
    def run_id(self) -> str:
        return self.manifest.run_id

    def add_sink(self, sink: Sink) -> Sink:
        """Attach a sink; it immediately receives the manifest event so
        every stream is self-describing regardless of attach order."""
        self._sinks.append(sink)
        sink.handle(self._envelope("manifest", self.manifest.to_dict()))
        return sink

    def _envelope(self, kind: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        event = {
            "event": kind,
            "run_id": self.manifest.run_id,
            "seq": self._seq,
            "t": round(self._clock() - self._t0, 6),
        }
        self._seq += 1
        event.update(fields)
        return event

    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Send one event to every sink; returns the stamped dict."""
        event = self._envelope(kind, fields)
        for sink in self._sinks:
            sink.handle(event)
        return event

    def log(self, message: str, level: str = "info") -> None:
        """A human-readable progress line as a structured event."""
        self.emit("log", level=level, message=message)

    # -- metrics ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.metrics.histogram(name)

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """A hierarchical timed section: ``span_start``/``span_end``
        events carrying the slash-joined ancestry path and, on end, the
        wall duration and outcome (``ok`` or ``error``)."""
        path = f"{self._span_stack[-1]}/{name}" if self._span_stack else name
        self._span_stack.append(path)
        self.emit("span_start", span=path, **attrs)
        started = self._clock()
        status = "ok"
        try:
            yield
        except BaseException:
            status = "error"
            raise
        finally:
            self._span_stack.pop()
            self.emit(
                "span_end",
                span=path,
                status=status,
                wall_time=round(self._clock() - started, 6),
            )

    # -- ledger integration ----------------------------------------------

    def emit_profile(self, profile: Mapping[str, Any]) -> None:
        """Emit a finished profile's rows as ``phase`` events.

        ``profile`` is :meth:`repro.perf.PhaseProfiler.to_dict` output:
        each row (phase, rounds, messages, wall_time, and bits when B
        was known) becomes one ``phase`` event, field for field, and its
        rounds and messages are added to the ``ledger.rounds`` /
        ``ledger.messages`` counters.
        """
        for row in profile["phases"]:
            self.emit("phase", **row)
            self.counter("ledger.rounds").inc(row["rounds"])
            self.counter("ledger.messages").inc(row["messages"])

    # -- lifecycle -------------------------------------------------------

    def flush(self) -> None:
        """Push every sink's buffered events to durable storage.

        The daemon calls this on drain and crash paths so a process
        about to exit (or already dying) leaves complete JSONL streams;
        see :meth:`repro.telemetry.sinks.JsonlSink.flush`.
        """
        for sink in self._sinks:
            sink.flush()

    def close(self) -> None:
        """Snapshot metrics, emit ``run_end`` with wall/cpu totals, and
        close every sink (idempotent)."""
        if self.closed:
            return
        if len(self.metrics):
            self.emit("metrics", **self.metrics.snapshot())
        self.emit(
            "run_end",
            events=self._seq,
            wall_time=round(self._clock() - self._t0, 6),
            cpu_time=round(time.process_time() - self._cpu0, 6),
        )
        self.closed = True
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

