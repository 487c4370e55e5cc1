"""The unified network-configuration object: :class:`NetworkModel`.

A :class:`NetworkModel` collects the whole description of the
*substrate* an algorithm runs on into one frozen, JSON-serialisable
value:

* ``mode`` — ``"sync"`` (the round-driven :class:`~repro.congest.
  network.Network`) or ``"async"`` (the event-queue
  :class:`~repro.congest.async_engine.AsyncNetwork`);
* ``bandwidth_words`` — per-message word budget (``None`` = the
  runner's own default);
* ``audit_memory`` — record per-node peak state (ORs with the
  runner's own flag);
* ``fault_plan`` — a declarative :class:`~repro.congest.faults.
  FaultPlan` adversary;
* ``latency`` — a :class:`LatencySpec` giving each directed edge a
  seeded delay distribution (async mode only; ``"unit"`` reproduces
  synchronous rounds exactly);
* ``churn`` — ``(action, node, time)`` events: ``"crash"`` silences a
  node at a virtual time, ``"join"`` defers its start (async only);
* ``seed`` — the substrate's own randomness (latency draws), separate
  from both the protocol seed and the fault plan's adversary seed;
* ``network_hook`` — an imperative escape hatch (observer attachment);
  the only field excluded from JSON.

The congest runners take it as ``network=`` (a model, a dict, or a
JSON string; :func:`coerce_network_model` turns any of these into a
model).  The canonical JSON string form (:meth:`NetworkModel.canonical`)
is hashable and byte-stable, so sweep points carrying a model stay
store-canonicalisable and resumable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.congest.faults import FaultInjector, FaultPlan, compose_fault_hook
from repro.congest.network import DEFAULT_BANDWIDTH_WORDS, Network

__all__ = [
    "LatencySpec",
    "NetworkModel",
    "coerce_network_model",
    "build_network",
    "faults_summary_for",
]

_LATENCY_KINDS = ("unit", "fixed", "uniform", "exponential")
_CHURN_ACTIONS = ("crash", "join")

#: Floor on sampled delays: a zero delay would let causality chains of
#: unbounded length fit into one instant of virtual time.
_MIN_DELAY = 1e-9


@dataclass(frozen=True)
class LatencySpec:
    """A per-edge message-delay distribution for the async engine.

    ``kind``:

    * ``"unit"`` — every message takes exactly one time unit; the async
      engine then reproduces the synchronous engine's schedule (the
      zero-latency parity pin).
    * ``"fixed"`` — every message takes ``value`` (> 0) time units.
    * ``"uniform"`` — delays drawn uniformly from ``[low, high]``
      (``0 < low <= high``); messages reorder whenever draws cross.
    * ``"exponential"`` — delays drawn exponentially with mean
      ``value`` (heavy reordering tail).

    Draws come from a per-directed-edge stream seeded by
    ``(model.seed, src, dst)``, so a given edge's delay sequence does
    not depend on what the rest of the network is doing.
    """

    kind: str = "unit"
    value: float = 1.0
    low: float = 0.5
    high: float = 1.5

    def __post_init__(self):
        if self.kind not in _LATENCY_KINDS:
            raise ValueError(
                f"latency kind must be one of {_LATENCY_KINDS}, got {self.kind!r}")
        if self.kind in ("fixed", "exponential") and not self.value > 0:
            raise ValueError(
                f"latency value must be > 0, got {self.value}")
        if self.kind == "uniform" and not 0 < self.low <= self.high:
            raise ValueError(
                f"uniform latency needs 0 < low <= high, got "
                f"[{self.low}, {self.high}]")

    @property
    def is_unit(self) -> bool:
        return self.kind == "unit"

    def mean(self) -> float:
        """Expected delay (scales the async engine's time budget)."""
        if self.kind == "unit":
            return 1.0
        if self.kind == "uniform":
            return (self.low + self.high) / 2.0
        return self.value

    def sample(self, rng) -> float:
        """One delay draw (no draw is consumed for ``"unit"``)."""
        if self.kind == "unit":
            return 1.0
        if self.kind == "fixed":
            return self.value
        if self.kind == "uniform":
            return max(_MIN_DELAY, float(rng.uniform(self.low, self.high)))
        return max(_MIN_DELAY, float(rng.exponential(self.value)))

    def to_json(self) -> dict:
        return {"kind": self.kind, "value": self.value,
                "low": self.low, "high": self.high}

    @classmethod
    def from_json(cls, data: dict) -> "LatencySpec":
        unknown = sorted(set(data) - {"kind", "value", "low", "high"})
        if unknown:
            raise ValueError(f"unknown latency fields: {', '.join(unknown)}")
        return cls(**data)


def _normalize_churn(churn) -> tuple:
    events = []
    for item in churn:
        try:
            action, node, time = item
        except (TypeError, ValueError):
            raise ValueError(
                f"churn events are (action, node, time) triples, got {item!r}"
            ) from None
        if action not in _CHURN_ACTIONS:
            raise ValueError(
                f"churn action must be one of {_CHURN_ACTIONS}, got {action!r}")
        node, time = int(node), float(time)
        if node < 0:
            raise ValueError(f"churn node must be >= 0, got {node}")
        if time < 0:
            raise ValueError(f"churn time must be >= 0, got {time}")
        events.append((action, node, time))
    return tuple(sorted(events, key=lambda e: (e[2], e[0], e[1])))


@dataclass(frozen=True)
class NetworkModel:
    """One value describing the network substrate of a run.

    See the module docstring for field semantics.  Instances are
    frozen, comparable, and (``network_hook`` aside) JSON round-trips
    through :meth:`to_json` / :meth:`from_json`; :meth:`canonical` is
    the byte-stable string form used in sweep points and stores.
    """

    mode: str = "sync"
    bandwidth_words: int | None = None
    audit_memory: bool = False
    fault_plan: FaultPlan | None = None
    latency: LatencySpec = field(default_factory=LatencySpec)
    churn: tuple = ()
    seed: int = 0
    network_hook: Callable | None = None

    def __post_init__(self):
        if self.mode not in ("sync", "async"):
            raise ValueError(
                f"mode must be 'sync' or 'async', got {self.mode!r}")
        if self.bandwidth_words is not None and self.bandwidth_words < 1:
            raise ValueError(
                f"bandwidth_words must be >= 1, got {self.bandwidth_words}")
        if isinstance(self.latency, dict):
            object.__setattr__(self, "latency",
                               LatencySpec.from_json(self.latency))
        if isinstance(self.fault_plan, dict):
            object.__setattr__(self, "fault_plan",
                               FaultPlan.from_json(self.fault_plan))
        object.__setattr__(self, "churn", _normalize_churn(self.churn))
        if self.mode == "sync":
            if not self.latency.is_unit:
                raise ValueError(
                    "latency distributions need mode='async' (the "
                    "synchronous engine delivers in lockstep rounds)")
            if self.churn:
                raise ValueError("churn schedules need mode='async'")

    # -- queries ---------------------------------------------------------------

    def is_async(self) -> bool:
        return self.mode == "async"

    def as_async(self) -> "NetworkModel":
        """This model with ``mode="async"`` (the async engine's view)."""
        if self.mode == "async":
            return self
        return replace(self, mode="async")

    # -- serialisation ---------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-safe dict form; refuses models carrying a live hook."""
        if self.network_hook is not None:
            raise ValueError(
                "a NetworkModel with a network_hook callable cannot be "
                "serialised; attach hooks only on the Python side")
        return {
            "mode": self.mode,
            "bandwidth_words": self.bandwidth_words,
            "audit_memory": self.audit_memory,
            "fault_plan": (None if self.fault_plan is None
                           else self.fault_plan.to_json()),
            "latency": self.latency.to_json(),
            "churn": [list(event) for event in self.churn],
            "seed": self.seed,
        }

    def canonical(self) -> str:
        """Compact sorted-key JSON string — hashable and byte-stable."""
        return json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, data: "dict | str") -> "NetworkModel":
        """Inverse of :meth:`to_json`; also accepts the JSON string."""
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError(
                f"a NetworkModel document must be a JSON object, got "
                f"{type(data).__name__}")
        known = {"mode", "bandwidth_words", "audit_memory", "fault_plan",
                 "latency", "churn", "seed"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown NetworkModel fields: {', '.join(unknown)}")
        kwargs = dict(data)
        if kwargs.get("latency") is None:
            kwargs.pop("latency", None)
        return cls(**kwargs)


def coerce_network_model(
    network: "NetworkModel | dict | str | None" = None,
) -> NetworkModel:
    """The :class:`NetworkModel` a runner's ``network=`` argument names.

    ``network`` may be a model, a JSON dict/string, or ``None`` (the
    default synchronous substrate).
    """
    if network is None:
        return NetworkModel()
    if isinstance(network, NetworkModel):
        return network
    if isinstance(network, (dict, str)):
        return NetworkModel.from_json(network)
    raise TypeError(
        f"network must be a NetworkModel, dict, or JSON string, got "
        f"{type(network).__name__}")


def build_network(
    graph,
    protocol_factory,
    *,
    seed: int = 0,
    model: NetworkModel,
    audit_memory: bool = False,
    default_bandwidth: int | None = None,
):
    """Construct (and hook up) the simulator ``model`` describes.

    Returns ``(network, injector)`` where ``network`` is a ready-to-run
    :class:`~repro.congest.network.Network` or
    :class:`~repro.congest.async_engine.AsyncNetwork` and ``injector``
    carries the fault adversary's counters (``.summary()``), or is
    ``None`` when the model has no fault plan.  ``audit_memory`` is the
    runner's own flag; it ORs with the model's.
    """
    words = model.bandwidth_words
    if words is None:
        words = (default_bandwidth if default_bandwidth is not None
                 else DEFAULT_BANDWIDTH_WORDS)
    audit = bool(audit_memory or model.audit_memory)
    if model.is_async():
        from repro.congest.async_engine import AsyncNetwork

        net = AsyncNetwork(graph, protocol_factory, seed=seed, model=model,
                           bandwidth_words=words, audit_memory=audit)
        if model.network_hook is not None:
            model.network_hook(net)
        return net, net.adversary
    hook = model.network_hook
    injector = None
    if model.fault_plan is not None:
        hook, injector = compose_fault_hook(model.fault_plan, hook)
    net = Network(graph, protocol_factory, seed=seed, bandwidth_words=words,
                  audit_memory=audit)
    if hook is not None:
        hook(net)
    return net, injector


def faults_summary_for(model: NetworkModel) -> dict | None:
    """A zero-count adversary summary for runs that never executed.

    Keeps ``detail["faults"]`` reporting uniform across runners even on
    early-return paths (e.g. graphs too small to run): present whenever
    the model carries a fault plan, absent otherwise.
    """
    if model.fault_plan is None:
        return None
    return FaultInjector(model.fault_plan).summary()
