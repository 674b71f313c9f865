"""The network-model interface: who owns message delivery each round.

The CONGEST simulator hands every queued message to a :class:`NetworkModel`
at the start of the round that would normally deliver it; the model decides
*when* (which absolute round), *whether* (drop), and *how often* (duplicate)
the message arrives. The default model, ``reliable``, reproduces the clean
synchronous CONGEST channel exactly, so algorithms analyzed in the paper's
model behave byte-identically unless an adverse model is requested.

Models are pure data plus a seeded RNG: :meth:`NetworkModel.params` returns
the JSON-serializable configuration, :func:`normalize_network` turns user
shorthand (a name, a ``name`` + ``params`` dict) into one canonical spec
dict, and :meth:`NetworkModel.bind` (re)seeds the model for one execution.
That makes a network condition hashable experiment input — the engine
threads the canonical spec through job identities so each model gets its
own result-store cache key.
"""

import json
import random
from collections import Counter
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.model.graph import Node, WeightedGraph

#: The canonical spec of the default network condition.
DEFAULT_NETWORK: Dict[str, Any] = {"model": "reliable", "params": {}}

#: Anything :func:`normalize_network` accepts.
NetworkLike = Union[None, str, Mapping[str, Any], "NetworkModel"]


def node_sort_key(node: Node) -> Tuple[Any, ...]:
    """A type-stable total-order key for node identifiers.

    Numbers sort numerically, strings lexically, and any other node type
    by ``(type name, repr)``. Values of different kinds never reach a
    cross-type comparison (the leading tag differs), so mixed-ID graphs
    sort deterministically — unlike plain ``repr``, under which
    ``repr(9) > repr(10)``.
    """
    if isinstance(node, bool):
        return (0, "", int(node))
    if isinstance(node, (int, float)):
        return (0, "", node)
    if isinstance(node, str):
        return (1, "", node)
    return (2, type(node).__qualname__, repr(node))


def payload_bits(payload: Any) -> int:
    """Encoded size of a payload in bits (8 × its canonical JSON length,
    falling back to ``repr`` for non-JSON payloads)."""
    try:
        encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        encoded = repr(payload)
    return 8 * len(encoded)


class NetworkModel:
    """Base class: the clean synchronous channel.

    Subclasses override :meth:`schedule` (and optionally
    :meth:`begin_round` / :meth:`alive`) to inject adversity, and
    :meth:`params` so their configuration round-trips through JSON.
    ``stats`` accumulates model-specific event counters (drops,
    retransmissions, crashes, …) during a bound execution.
    """

    name = "reliable"

    #: Whether this model can remove nodes from the execution (i.e. its
    #: :meth:`alive` can return False). Models that override ``alive``
    #: must set this to True — the simulator uses it to skip a per-round
    #: O(n) liveness scan on channels that never kill nodes.
    removes_nodes = False

    def __init__(self) -> None:
        self.graph: Optional[WeightedGraph] = None
        self.rng = random.Random(0)
        self.stats: Counter = Counter()

    # -- identity --------------------------------------------------------

    def params(self) -> Dict[str, Any]:
        """JSON-serializable configuration (empty for parameter-free
        models)."""
        return {}

    def spec(self) -> Dict[str, Any]:
        """The canonical spec dict identifying this model + parameters."""
        return {"model": self.name, "params": self.params()}

    # -- lifecycle -------------------------------------------------------

    def bind(self, graph: WeightedGraph, rng: random.Random) -> None:
        """Attach to one execution: reset state and seed the RNG."""
        self.graph = graph
        self.rng = rng
        self.stats = Counter()
        self.reset()

    def reset(self) -> None:
        """Subclass hook: clear per-execution state (called by bind)."""

    # -- per-round behavior ----------------------------------------------

    def begin_round(self, round_index: int) -> None:
        """Called once at the start of each round, before any delivery
        decision (e.g. to trigger scheduled crashes)."""

    def alive(self, node: Node) -> bool:
        """Whether ``node`` still participates (False after a crash)."""
        return True

    def schedule(
        self, sender: Node, receiver: Node, payload: Any, round_index: int
    ) -> List[int]:
        """Decide the fate of one in-flight message.

        Returns the absolute rounds at which copies of the message arrive:
        ``[round_index]`` is clean synchronous delivery, a later round is a
        delay, an empty list is a drop, and multiple entries are
        duplicates. Every entry must be ``>= round_index``.
        """
        return [round_index]

    # -- analytic accounting for ledger-level algorithms -----------------

    def emulated_rounds(
        self, rounds: int, bandwidth_bits: Optional[int] = None
    ) -> int:
        """Rounds needed to emulate ``rounds`` clean synchronous rounds on
        this network with a simple synchronizer.

        The paper's Steiner-forest algorithms run against the
        :class:`~repro.congest.run.CongestRun` ledger rather than the
        message-level simulator; this hook lets the experiment engine
        surface each network condition's latency overhead for them without
        re-deriving the algorithms for the adverse model. The default
        (clean) network has no overhead.
        """
        return rounds

    def extra_metrics(self) -> Dict[str, int]:
        """Model event counters worth recording alongside run metrics."""
        return dict(self.stats)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params().items()))
        return f"{type(self).__name__}({params})"


def normalize_network(network: NetworkLike) -> Dict[str, Any]:
    """Turn user shorthand into one canonical ``{"model", "params"}`` dict.

    Accepts ``None`` (the default reliable network), a model name string,
    a mapping with ``model`` and optional ``params`` keys, or a constructed
    :class:`NetworkModel`. The result is JSON-round-trippable and has
    deterministic content (params pass through ``json`` canonicalization
    downstream), so it is safe to hash into job identities.
    """
    if network is None:
        return dict(DEFAULT_NETWORK, params={})
    if isinstance(network, NetworkModel):
        return network.spec()
    if isinstance(network, str):
        return {"model": network, "params": {}}
    if isinstance(network, Mapping):
        unknown = set(network) - {"model", "params"}
        if unknown:
            raise ValueError(
                f"unexpected network spec keys {sorted(unknown)}; "
                'expected {"model": name, "params": {...}}'
            )
        params = network.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError(
                f"network params must be an object, not {params!r}"
            )
        return {
            "model": str(network.get("model", DEFAULT_NETWORK["model"])),
            "params": dict(params),
        }
    raise TypeError(f"cannot interpret network spec {network!r}")


def is_default_network(network: NetworkLike) -> bool:
    """Whether ``network`` denotes the clean synchronous default."""
    spec = normalize_network(network)
    return spec["model"] == DEFAULT_NETWORK["model"] and not spec["params"]
