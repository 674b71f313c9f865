"""Span tracer that wraps each layer's public functions from outside ``src/``.

The program under test carries no tracing of its own here: every span comes
from a wrapper this module installs on a module or class attribute for the
length of a ``with patched(tracer):`` block and removes afterwards. A span
records its name, its start and end on ``time.perf_counter``, its parent span
and the root span (one ``execute_job`` call) it belongs to. A layer's self
time is its spans' durations minus the part covered by their child spans, so
the self times of all spans sum to the wall time of the root spans.

Layers are named after the ``repro`` packages whose functions they wrap:

=========  ==============================================================
engine     ``repro.engine.runner.execute_job``
workloads  ``runner.build_instance`` (graph sampling + terminal placement)
perf       ``runner.make_ledger_run`` (ledger tier choice + topology)
core       the solvers as ``repro.engine.algorithms`` calls them, plus the
           central schedule (``rounded_moat_growing``) and ``fast_pruning``
           as ``repro.core.sublinear`` calls them
congest    the CONGEST primitives under the names ``repro.core.distributed``,
           ``repro.core.sublinear`` and ``repro.core.pruning`` import
model      the centralized graph oracle on ``WeightedGraph``
solution   ``ForestSolution.assert_feasible`` and ``minimal_subforest``
=========  ==============================================================
"""

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple


class Patch(NamedTuple):
    """One attribute to wrap: ``getattr(import_module(module), owner).attr``
    when ``owner`` is set (a class), else the module attribute ``attr``."""

    span: str
    module: str
    attr: str
    owner: Optional[str] = None


# (span, attribute) per module that imports CONGEST primitives by name.
_CONGEST_IMPORTS = {
    "repro.core.distributed": (
        ("congest.bfs", "build_bfs_tree"),
        ("congest.bellman_ford", "bellman_ford"),
        ("congest.upcast", "upcast_items"),
        ("congest.broadcast", "broadcast_items"),
        ("congest.pipelined_upcast", "pipelined_filtered_upcast"),
    ),
    "repro.core.sublinear": (
        ("congest.bfs", "build_bfs_tree"),
        ("congest.bellman_ford", "bellman_ford"),
        ("congest.upcast", "upcast_items"),
        ("congest.broadcast", "broadcast_items"),
    ),
    "repro.core.pruning": (
        ("congest.bfs", "build_bfs_tree"),
        ("congest.upcast", "upcast_items"),
        ("congest.broadcast", "broadcast_items"),
    ),
}

#: Every attribute the traced run wraps, by span name.
PATCHES: Tuple[Patch, ...] = (
    Patch("engine.execute_job", "repro.engine.runner", "execute_job"),
    Patch("workloads.build", "repro.engine.runner", "build_instance"),
    Patch("perf.ledger_build", "repro.engine.runner", "make_ledger_run"),
    Patch("core.moat", "repro.engine.algorithms", "moat_growing"),
    Patch("core.rounded", "repro.engine.algorithms", "rounded_moat_growing"),
    Patch("core.distributed", "repro.engine.algorithms", "distributed_moat_growing"),
    Patch("core.sublinear", "repro.engine.algorithms", "sublinear_moat_growing"),
    Patch("core.central_schedule", "repro.core.sublinear", "rounded_moat_growing"),
    Patch("core.pruning", "repro.core.sublinear", "fast_pruning"),
    *(
        Patch(span, module, attr)
        for module, names in _CONGEST_IMPORTS.items()
        for span, attr in names
    ),
    Patch("model.dijkstra", "repro.model.graph", "dijkstra", "WeightedGraph"),
    Patch("model.apsp", "repro.model.graph", "all_pairs_distances", "WeightedGraph"),
    Patch("model.spd", "repro.model.graph", "shortest_path_diameter", "WeightedGraph"),
    Patch("model.min_hop", "repro.model.graph", "min_hop_shortest_path_hops", "WeightedGraph"),
    Patch("model.shortest_path", "repro.model.graph", "shortest_path", "WeightedGraph"),
    Patch("solution.feasibility", "repro.model.solution", "assert_feasible", "ForestSolution"),
    Patch("solution.minimal_subforest", "repro.model.solution", "minimal_subforest", "ForestSolution"),
)


class Span(NamedTuple):
    """One finished call: ``parent`` and ``root`` are span ids (``root``
    is the enclosing top-level span, one per ``execute_job`` call)."""

    id: int
    name: str
    parent: Optional[int]
    root: int
    start: float
    end: float
    note: Any


#: Spans whose return value is summarized on the span (kept small).
NOTES: Dict[str, Callable[[Any], Any]] = {
    "workloads.build": lambda instance: (
        instance.graph.num_nodes, instance.graph.num_edges
    ),
    "perf.ledger_build": lambda ledger: type(ledger).__name__,
}


class Tracer:
    """Collects spans in memory for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with a span named ``name`` around every call."""
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            root = self._open[0] if self._open else sid
            self._open.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
            self.spans.append(Span(
                sid, name, parent, root, start, end,
                note(result) if note is not None else None,
            ))
            return result

        return traced

    def self_times(self) -> Dict[str, float]:
        """Self time per span name: durations minus child-covered time."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = (
                    covered.get(span.parent, 0.0) + span.end - span.start
                )
        out: Dict[str, float] = {}
        for span in self.spans:
            own = span.end - span.start - covered.get(span.id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def calls(self) -> Dict[str, int]:
        """Number of spans per name."""
        out: Dict[str, int] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out


def patch_owner(patch: Patch) -> Any:
    module = importlib.import_module(patch.module)
    return getattr(module, patch.owner) if patch.owner else module


@contextmanager
def patched(tracer: Tracer, patches: Tuple[Patch, ...] = PATCHES) -> Iterator[Tracer]:
    """Install ``tracer``'s wrappers for the block, then put every
    original attribute back, also when the block raises."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for patch in patches:
            owner = patch_owner(patch)
            original = vars(owner)[patch.attr]
            saved.append((owner, patch.attr, original))
            setattr(owner, patch.attr, tracer.wrap(patch.span, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    assert_restored(saved)


def assert_restored(saved: List[Tuple[Any, str, Any]]) -> None:
    """Raise if any wrapped attribute is not its original object again."""
    stale = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in saved
        if vars(owner)[attr] is not original
    ]
    if stale:
        raise RuntimeError(f"traced attributes not restored: {stale}")
