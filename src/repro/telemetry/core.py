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

Ledger integration reuses the :class:`~repro.congest.run.CongestRun`
profiler hook: :meth:`Telemetry.attach_ledger` installs a
:class:`LedgerBridge` that narrates ``set_phase``/``tick``/``charge_*``
as ``phase`` events on the bus (and forwards to a wrapped
:class:`~repro.perf.PhaseProfiler` when one rides along), making the
profiler a view over the bus rather than a parallel collector —
:func:`repro.perf.PhaseProfiler.from_events` rebuilds the per-phase
table from any captured stream.
"""

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

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
        self._bridges: List["LedgerBridge"] = []
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

    def attach_ledger(self, run: Any, profiler: Any = None) -> "LedgerBridge":
        """Narrate a ledger's phases onto the bus.

        Installs a :class:`LedgerBridge` as ``run.profiler`` (the same
        single hook :meth:`repro.perf.PhaseProfiler.attach` uses); when
        a profiler is passed — or one is already attached to the run —
        it keeps receiving every callback through the bridge, so
        ``--profile`` jobs and telemetry compose.
        """
        if profiler is None:
            profiler = run.profiler
        bridge = LedgerBridge(self, run, inner=profiler)
        run.profiler = bridge
        self._bridges.append(bridge)
        return bridge

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
        """Flush phase bridges, snapshot metrics, emit ``run_end`` with
        wall/cpu totals, and close every sink (idempotent)."""
        if self.closed:
            return
        for bridge in self._bridges:
            bridge.finish()
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


class LedgerBridge:
    """Adapts the :class:`~repro.congest.run.CongestRun` profiler hook
    onto the bus.

    Implements the profiler protocol (``switch_phase`` / ``add_rounds``
    / ``add_messages``): each phase transition emits one ``phase`` event
    with the closed phase's rounds, messages, derived bits (messages ×
    the ledger's B), and wall seconds, and bumps the bus-level
    ``ledger.rounds`` / ``ledger.messages`` counters. An optional inner
    profiler receives every callback unchanged, so a
    :class:`~repro.perf.PhaseProfiler` riding on a profiled job keeps
    collecting exactly what it would standalone.
    """

    def __init__(self, telemetry: Telemetry, run: Any, inner: Any = None) -> None:
        self._telemetry = telemetry
        self._run = run
        self._inner = inner
        self._phase: Optional[str] = None
        self._rounds = 0
        self._messages = 0
        self._started = telemetry._clock()
        self._finished = False

    def _flush_phase(self, next_phase: Optional[str]) -> None:
        now = self._telemetry._clock()
        if self._phase is not None or self._rounds or self._messages:
            bandwidth = getattr(self._run, "bandwidth_bits", None)
            self._telemetry.emit(
                "phase",
                phase=self._phase if self._phase is not None else "(unattributed)",
                rounds=self._rounds,
                messages=self._messages,
                bits=(
                    self._messages * bandwidth if bandwidth is not None else None
                ),
                wall_time=round(now - self._started, 6),
            )
            self._telemetry.counter("ledger.rounds").inc(self._rounds)
            self._telemetry.counter("ledger.messages").inc(self._messages)
        self._phase = next_phase
        self._rounds = 0
        self._messages = 0
        self._started = now

    # -- the CongestRun profiler protocol --------------------------------

    def switch_phase(self, name: Optional[str]) -> None:
        self._flush_phase(name)
        if self._inner is not None:
            self._inner.switch_phase(name)

    def add_rounds(self, rounds: int) -> None:
        self._rounds += rounds
        if self._inner is not None:
            self._inner.add_rounds(rounds)

    def add_messages(self, count: int) -> None:
        self._messages += count
        if self._inner is not None:
            self._inner.add_messages(count)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """The profiler protocol's nested-span hook (``CongestRun.span``
        in the solvers and their hot primitives). The bridge keeps bus
        narration at ``set_phase`` granularity — a pipelined upcast span
        can fire thousands of times per run, so per-span events would
        swamp the stream — but an inner profiler still gets its span
        frames."""
        if self._inner is not None and hasattr(self._inner, "span"):
            with self._inner.span(name):
                yield
        else:
            yield

    # -- lifecycle -------------------------------------------------------

    def finish(self) -> None:
        """Emit the final open phase (idempotent; driven by
        :meth:`Telemetry.close` or called directly after a solve)."""
        if self._finished:
            return
        self._finished = True
        self._flush_phase(None)
        if self._inner is not None and hasattr(self._inner, "finish"):
            self._inner.finish()
