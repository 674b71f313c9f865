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
* ``auto`` — ``numpy`` when it is listed, ``flatarray`` otherwise
  (and ``flatarray`` when numpy declines a graph whose weights leave
  the int64 grid). numpy is the fastest tier from a few dozen nodes
  up, so ``auto`` does not look at instance size.

No tier takes parameters. Specs stored with the retired ``auto``
params ``threshold`` / ``numpy_threshold`` keep their cache keys and
still load and report, but :func:`validate_backend` rejects them, so
they no longer execute.

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
    "BACKENDS",
    "DEFAULT_BACKEND",
    "is_default_backend",
    "normalize_backend",
    "numpy_tier_available",
    "validate_backend",
]

#: The canonical spec of the default ledger tier.
DEFAULT_BACKEND: Dict[str, Any] = {"name": "reference", "params": {}}

#: Anything :func:`normalize_backend` accepts.
BackendLike = Union[None, str, Mapping[str, Any]]

#: Every ledger tier name; ``numpy`` is listed only when numpy imports.
BACKENDS: Tuple[str, ...] = ("reference", "flatarray", "auto")

try:  # The numpy tier is an optional extra: absence is not an error.
    import numpy  # noqa: F401
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    pass
else:
    BACKENDS += ("numpy",)


def numpy_tier_available() -> bool:
    """Whether the optional ``numpy`` tier is listed (numpy imports)."""
    return "numpy" in BACKENDS


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
        ValueError: on an unknown tier name or any parameter — no tier
            takes one.
    """
    spec = normalize_backend(backend)
    name = spec["name"]
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backends {[name]}; "
            f"choose from {sorted(BACKENDS)}"
        )
    if spec["params"]:
        raise ValueError(
            f"bad parameters for simulation backend {name!r}: "
            f"{sorted(spec['params'])}; ledger tiers take no parameters "
            "(auto's threshold and numpy_threshold are retired: auto "
            "runs numpy when installed, flatarray otherwise)"
        )
    return spec
