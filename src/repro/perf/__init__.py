"""Performance subsystem: profiling and the pipeline fast path.

The ROADMAP's north star is a system that "runs as fast as the hardware
allows"; this package is where the repo measures and then removes the
cost of the paper's Steiner-forest pipeline:

* :mod:`repro.perf.profiler` — :class:`PhaseProfiler`, the one
  per-phase accountant: rounds / messages / bits / wall-time rows
  attached to a :class:`~repro.congest.run.CongestRun` (zero effect
  when detached — results, round counts, and cache keys are pinned
  byte-identical). Stored records, ``repro profile`` and ``repro
  trace`` all read its rows (:mod:`repro.telemetry.summary` renders
  them).
* :mod:`repro.perf.fastpath` — :class:`CompiledTopology` and
  :class:`FastCongestRun`, the flat-array ledger: it answers the
  :class:`~repro.congest.run.CongestRun` topology reads and bulk
  charges from a compiled topology (cached neighbor tuples and
  ``repr`` keys, whole-Counter charging) and overrides two kernels:
  ``upcast`` with sorted buffers, and ``filtered_upcast`` with integer
  key ranks, pruned alive lists and an active-node round loop.
  :func:`make_ledger_run` threads the experiment engine's ``--backend``
  axis (including ``auto``) into the ledger-level solvers.
* :mod:`repro.perf.npkernels` — the optional vectorized ``numpy`` tier:
  :class:`NumpyCongestRun` (a :class:`FastCongestRun` subclass carrying
  a CSR :class:`NumpyTopology`) overrides the ledger kernels of the
  regular primitives (BFS, Bellman–Ford, broadcast, convergecast, moat
  radius growth) with exact integer-dtype array versions. Imported
  lazily/conditionally — with numpy absent the package still imports
  and the two-tier stack is unaffected.

This package is the only one that knows tiers exist: the primitives
(:mod:`repro.congest`) and solvers (:mod:`repro.core`) call the ledger's
methods and never look at which ledger they hold.

The measured speedups live in ``BENCH_profile.json``
(``benchmarks/bench_e18_profile.py``): the flatarray ledger is ≥ 2× the
reference ledger on the full distributed pipeline at n ≥ 256.
``backend="auto"`` runs the numpy tier whenever the extra is installed
(numpy is the fastest tier from a few dozen nodes up) and flatarray
otherwise; like every tier it stays byte-identical to reference.
"""

from repro.perf.fastpath import CompiledTopology, FastCongestRun, make_ledger_run
from repro.perf.profiler import PhaseProfiler, PhaseStats

try:  # The numpy tier is an optional extra: absence is not an error.
    from repro.perf.npkernels import NumpyCongestRun, NumpyTopology
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    NumpyCongestRun = None  # type: ignore[assignment,misc]
    NumpyTopology = None  # type: ignore[assignment,misc]

__all__ = [
    "CompiledTopology",
    "FastCongestRun",
    "NumpyCongestRun",
    "NumpyTopology",
    "make_ledger_run",
    "PhaseProfiler",
    "PhaseStats",
]
