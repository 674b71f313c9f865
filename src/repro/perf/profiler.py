"""Phase-level profiling of the paper pipeline.

Every ledger-level solver already narrates its structure through
:meth:`~repro.congest.run.CongestRun.set_phase` ("setup", "phase-3",
"pruning", ...); the :class:`PhaseProfiler` turns that narration into
per-phase **rounds / messages / wall-time** counters without touching
the computation. Attaching is one pointer assignment
(:meth:`PhaseProfiler.attach`); a detached run pays exactly one ``is
not None`` check per charge, and the test suite pins that profiling
cannot change results, round counts, or result-store cache keys.

Two attribution mechanisms compose:

* **phases** — :meth:`switch_phase` (driven by ``run.set_phase``)
  replaces the current top-level frame; rounds and messages charged to
  the ledger land on the innermost open frame.
* **spans** — :meth:`span` opens a nested frame named
  ``"<parent>/<name>"`` (used by the centralized solvers, which have no
  ledger, and by hot primitives like the pipelined upcast). Wall time
  is *self time*: a frame's clock stops while a child span is open, so
  the report's wall column sums to the total without double counting.

The structured output (:meth:`to_dict`) is what the experiment engine
stores on profiled job records (schema v5) and what ``repro profile``
renders as a text table (:func:`repro.telemetry.render_profile_report`);
``repro trace`` emits the same rows as ``phase`` events
(:meth:`repro.telemetry.Telemetry.emit_profile`).
"""

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Frame name for charges arriving before any phase/span was opened.
UNATTRIBUTED = "(unattributed)"


class PhaseStats:
    """Accumulated counters for one profile frame.

    Attributes:
        name: frame name; nested spans carry their ancestry as
            ``"parent/child"`` path components.
        rounds: CONGEST rounds charged while the frame was innermost.
        messages: ledger messages charged while the frame was innermost.
        wall_time: self wall-clock seconds (child-span time excluded).
    """

    __slots__ = ("name", "rounds", "messages", "wall_time")

    def __init__(self, name: str) -> None:
        self.name = name
        self.rounds = 0
        self.messages = 0
        self.wall_time = 0.0

    def to_dict(self, bandwidth_bits: Optional[int] = None) -> Dict[str, Any]:
        """JSON-able counters; ``bits`` is derived when B is known."""
        row: Dict[str, Any] = {
            "phase": self.name,
            "rounds": self.rounds,
            "messages": self.messages,
            "wall_time": self.wall_time,
        }
        if bandwidth_bits is not None:
            row["bits"] = self.messages * bandwidth_bits
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhaseStats({self.name!r}, rounds={self.rounds}, "
            f"messages={self.messages}, wall={self.wall_time:.4f})"
        )


class PhaseProfiler:
    """Collects per-phase counters from one solver execution.

    Usage::

        profiler = PhaseProfiler()
        run = CongestRun(graph)
        profiler.attach(run)
        distributed_moat_growing(instance, run=run)
        profiler.finish()
        print(profiler.to_dict(bandwidth_bits=run.bandwidth_bits))

    Args:
        clock: monotonic time source (injectable for exact tests).

    The profiler is single-execution state: attach it to exactly one
    run (or hand it to one centralized solver) and read it afterwards.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stats: Dict[str, PhaseStats] = {}
        self._stack: List[str] = []
        self._last: Optional[float] = None

    # -- wiring ----------------------------------------------------------

    def start(self) -> None:
        """Start the clock now (idempotent while it runs).

        Time until the first phase or span lands in the
        ``(unattributed)`` frame, so work a solver does before it
        narrates — e.g. an oracle query — cannot drop out of the
        totals. :meth:`attach` calls it; without either, the clock
        starts at the first phase or span.
        """
        if self._last is None:
            self._last = self._clock()

    def attach(self, run: Any) -> Any:
        """Hook this profiler into a :class:`~repro.congest.run.CongestRun`.

        Subsequent ``set_phase`` / ``tick`` / ``charge_*`` calls on the
        run report to this profiler, and the clock starts (:meth:`start`)
        if it is not running yet. Returns the run for chaining.
        """
        run.profiler = self
        self.start()
        return run

    # -- internal accounting ---------------------------------------------

    def _frame(self, name: str) -> PhaseStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = PhaseStats(name)
        return stats

    def _top(self) -> PhaseStats:
        return self._frame(self._stack[-1] if self._stack else UNATTRIBUTED)

    def _flush_wall(self) -> None:
        """Credit elapsed wall time to the innermost open frame."""
        now = self._clock()
        if self._last is not None:
            self._top().wall_time += now - self._last
        self._last = now

    # -- hooks called by CongestRun --------------------------------------

    def switch_phase(self, name: Optional[str]) -> None:
        """Enter a new top-level phase (closes any open spans).

        Driven by ``run.set_phase``; ``None`` returns to the
        unattributed frame.
        """
        self._flush_wall()
        self._stack = [] if name is None else [name]

    def add_rounds(self, rounds: int) -> None:
        """Charge ``rounds`` CONGEST rounds to the innermost frame."""
        self._top().rounds += rounds

    def add_messages(self, count: int) -> None:
        """Charge ``count`` ledger messages to the innermost frame."""
        self._top().messages += count

    # -- spans for code without a ledger ---------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a nested frame ``"<current>/<name>"`` for the duration.

        Wall time inside the span is credited to the span frame only
        (self-time semantics); rounds/messages charged inside also land
        on the span. If :meth:`switch_phase` fires *inside* the span
        (e.g. a span wrapped around a whole solver whose run narrates
        phases), the phase switch wins: the span frame is gone from the
        stack already and the exit leaves the live phase frame in
        place instead of popping it.
        """
        qualified = f"{self._stack[-1]}/{name}" if self._stack else name
        self._flush_wall()
        self._stack.append(qualified)
        try:
            yield
        finally:
            self._flush_wall()
            if self._stack and self._stack[-1] == qualified:
                self._stack.pop()

    # -- results ---------------------------------------------------------

    def finish(self) -> None:
        """Stop the clock and close all frames (idempotent)."""
        self._flush_wall()
        self._stack = []
        self._last = None

    @property
    def phases(self) -> List[PhaseStats]:
        """All frames in first-seen order."""
        return list(self._stats.values())

    def to_dict(self, bandwidth_bits: Optional[int] = None) -> Dict[str, Any]:
        """The structured profile: per-phase rows plus totals.

        Args:
            bandwidth_bits: the run's message budget B; when given,
                every row (and the totals) carries a derived ``bits``
                field (messages × B).
        """
        rows = [s.to_dict(bandwidth_bits) for s in self._stats.values()]
        totals: Dict[str, Any] = {
            "rounds": sum(s.rounds for s in self._stats.values()),
            "messages": sum(s.messages for s in self._stats.values()),
            "wall_time": sum(s.wall_time for s in self._stats.values()),
        }
        if bandwidth_bits is not None:
            totals["bits"] = totals["messages"] * bandwidth_bits
        return {"phases": rows, "totals": totals}
