"""Backend specs: which ledger tier the paper's solvers charge.

The ``--backend`` axis names a *ledger tier* — the
:class:`~repro.congest.run.CongestRun` implementation a solver's
communication primitives charge (see :func:`repro.perf.make_ledger_run`):

* ``reference`` — the plain :class:`~repro.congest.run.CongestRun`, the
  byte-identical ground truth;
* ``flatarray`` — :class:`repro.perf.FastCongestRun`, the compiled
  integer-light fast path;
* ``numpy`` — :class:`repro.perf.npkernels.NumpyCongestRun`, listed only
  when ``import numpy`` succeeds, so the reference path stays
  dependency-free;
* ``auto`` — picks one of the above from the instance size
  (:func:`choose_engine_name`; ``threshold`` / ``numpy_threshold``
  tunable).

Every tier reproduces the reference ledger exactly (rounds, messages,
per-edge traffic); ``tests/test_perf.py`` pins this. Message-level
:class:`~repro.congest.simulator.Simulator` executions have one engine
and take no backend.

Like network conditions, a backend is hashable experiment input: a
canonical ``{"name", "params"}`` spec dict (:func:`normalize_backend`).
The engine omits the default ``reference`` spec from job identities, so
existing result-store cache keys are unchanged, and every other spec
hashes to its own key.
"""

from typing import Any, Dict, Mapping, Tuple, Union

__all__ = [
    "AUTO_THRESHOLD_NODES",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "NUMPY_THRESHOLD_NODES",
    "choose_engine_name",
    "is_default_backend",
    "normalize_backend",
    "numpy_tier_available",
    "validate_backend",
]

#: The canonical spec of the default ledger tier.
DEFAULT_BACKEND: Dict[str, Any] = {"name": "reference", "params": {}}

#: Anything :func:`normalize_backend` accepts.
BackendLike = Union[None, str, Mapping[str, Any]]

#: Node count from which ``flatarray`` beats ``reference`` end-to-end
#: (including its topology compile); measured in
#: ``benchmarks/bench_e18_profile.py``.
AUTO_THRESHOLD_NODES = 64

#: Node count from which the vectorized ``numpy`` tier beats
#: ``flatarray`` end-to-end (its array compilation and per-round kernel
#: launch overheads amortize; measured in
#: ``benchmarks/bench_e22_numpy.py``). Only reachable when the optional
#: numpy extra is installed — otherwise the heuristic stays two-tier.
NUMPY_THRESHOLD_NODES = 1024

#: Backend tier names → the spec params each accepts (integer-valued).
BACKENDS: Dict[str, Tuple[str, ...]] = {
    "reference": (),
    "flatarray": (),
    "auto": ("threshold", "numpy_threshold"),
}

try:  # The numpy tier is an optional extra: absence is not an error.
    import numpy  # noqa: F401
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    pass
else:
    BACKENDS["numpy"] = ()


def numpy_tier_available() -> bool:
    """Whether the optional ``numpy`` tier is listed (numpy imports)."""
    return "numpy" in BACKENDS


def choose_engine_name(
    num_nodes: int,
    threshold: int = AUTO_THRESHOLD_NODES,
    numpy_threshold: int = NUMPY_THRESHOLD_NODES,
) -> str:
    """The tier the ``auto`` heuristic picks for an ``num_nodes``-node graph.

    Three tiers: ``reference`` below ``threshold``, ``flatarray`` in the
    mid-range, and ``numpy`` from ``numpy_threshold`` up when the
    optional extra is installed (without numpy the top tier cleanly
    degrades to ``flatarray``).
    """
    if num_nodes < threshold:
        return "reference"
    if num_nodes >= numpy_threshold and numpy_tier_available():
        return "numpy"
    return "flatarray"


def normalize_backend(backend: BackendLike) -> Dict[str, Any]:
    """Turn user shorthand into one canonical ``{"name", "params"}`` dict.

    Accepts ``None`` (the default reference tier), a backend name
    string, or a mapping with ``name`` and optional ``params`` keys. The
    result is JSON-round-trippable with deterministic content, so it is
    safe to hash into job identities. Names are not checked here (stored
    rows may name retired backends); :func:`validate_backend` does that.
    """
    if backend is None:
        return dict(DEFAULT_BACKEND, params={})
    if isinstance(backend, str):
        return {"name": backend, "params": {}}
    if isinstance(backend, Mapping):
        unknown = set(backend) - {"name", "params"}
        if unknown:
            raise ValueError(
                f"unexpected backend spec keys {sorted(unknown)}; "
                'expected {"name": name, "params": {...}}'
            )
        params = backend.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError(
                f"backend params must be an object, not {params!r}"
            )
        return {
            "name": str(backend.get("name", DEFAULT_BACKEND["name"])),
            "params": dict(params),
        }
    raise TypeError(f"cannot interpret backend spec {backend!r}")


def is_default_backend(backend: BackendLike) -> bool:
    """Whether ``backend`` denotes the default reference tier."""
    spec = normalize_backend(backend)
    return spec["name"] == DEFAULT_BACKEND["name"] and not spec["params"]


def validate_backend(backend: BackendLike) -> Dict[str, Any]:
    """The canonical spec of ``backend``, checked against :data:`BACKENDS`.

    Raises:
        ValueError: on an unknown tier name, a parameter the tier does
            not accept, or a parameter value that is not an integer.
    """
    spec = normalize_backend(backend)
    name = spec["name"]
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backends {[name]}; "
            f"choose from {sorted(BACKENDS)}"
        )
    for key, value in spec["params"].items():
        if key not in BACKENDS[name]:
            raise ValueError(
                f"bad parameters for simulation backend {name!r}: "
                f"unexpected parameter {key!r}"
            )
        try:
            int(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"bad parameters for simulation backend {name!r}: "
                f"{key}={value!r} is not an integer"
            ) from None
    return spec
