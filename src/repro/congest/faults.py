"""Failure injection for CONGEST executions.

The paper's model is synchronous and fault-free, so faults are *not*
part of the reproduction target.  What failure injection validates is a
safety property every front end in this library promises: ``success``
is reported only for a verified Hamiltonian cycle.  Under message loss
or node crashes the algorithms may stall, hit their watchdog budgets,
or abort — but they must never claim success falsely, and the simulator
must wind down cleanly (quiescence, not exceptions).

Usage::

    plan = FaultPlan(drop_probability=0.05, seed=7)
    result = run_dra(graph, seed=1, network=NetworkModel(fault_plan=plan))
    result.detail["faults"]["dropped"]    # observability
    # result.success is False unless a real HC was still produced

Fault kinds:

* *probabilistic message drops* — each in-flight message is discarded
  independently with ``drop_probability``, within an optional round
  ``window``;
* *link kills* — every message over the (undirected) links in
  ``dead_links`` is discarded from ``window`` start;
* *crash-stop nodes* — ``crash_rounds[v] = r`` silences node ``v`` from
  round ``r``: its queued messages are dropped and it never executes
  again (the engine skips halted nodes).

The adversary is deterministic per ``seed`` and independent of the
protocol's own randomness (separate generator), so adding or removing
a fault plan never perturbs node decisions — only which messages
survive delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.congest.network import Network

__all__ = ["FaultPlan", "FaultInjector", "compose_fault_hook"]


def compose_fault_hook(plan: "FaultPlan", network_hook=None):
    """A ``network_hook`` applying ``plan``, composed with an existing hook.

    This is how :func:`~repro.congest.model.build_network` honours a
    model's ``fault_plan``: the returned hook attaches a fresh
    :class:`FaultInjector` (before any caller-supplied hook, so a
    conflicting second delivery filter fails loudly), and the injector
    is returned alongside so the runner can report
    ``injector.summary()`` in its result detail.
    """
    injector = FaultInjector(plan)

    def hook(network: "Network") -> None:
        injector.attach(network)
        if network_hook is not None:
            network_hook(network)

    return hook, injector


@dataclass(frozen=True)
class FaultPlan:
    """A declarative description of the failures to inject.

    Attributes
    ----------
    drop_probability:
        Per-message independent drop chance in ``[0, 1]``.
    dead_links:
        Undirected node pairs whose messages are always dropped (both
        directions), e.g. ``{(3, 7)}``.
    crash_rounds:
        ``node -> round``; the node is crash-stopped at the *start* of
        that round (it receives nothing and sends nothing from then on).
    window:
        ``(first_round, last_round)`` during which probabilistic and
        link drops apply; crashes fire regardless.  ``None`` = always.
    seed:
        Seed of the adversary's own RNG.
    """

    drop_probability: float = 0.0
    dead_links: frozenset = field(default_factory=frozenset)
    crash_rounds: dict = field(default_factory=dict)
    window: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], got {self.drop_probability}")
        normalized = frozenset(
            (min(a, b), max(a, b)) for a, b in self.dead_links)
        object.__setattr__(self, "dead_links", normalized)
        if self.window is not None:
            lo, hi = self.window
            if lo > hi:
                raise ValueError(f"empty fault window {self.window}")

    def is_benign(self) -> bool:
        """True when this plan injects nothing."""
        return (self.drop_probability == 0.0 and not self.dead_links
                and not self.crash_rounds)

    def to_json(self) -> dict:
        """JSON-safe dict form (see :meth:`from_json`)."""
        return {
            "drop_probability": self.drop_probability,
            "dead_links": sorted(list(pair) for pair in self.dead_links),
            "crash_rounds": {str(v): r for v, r in
                             sorted(self.crash_rounds.items())},
            "window": None if self.window is None else list(self.window),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_json` (JSON objects string their keys)."""
        known = {"drop_probability", "dead_links", "crash_rounds",
                 "window", "seed"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {', '.join(unknown)}")
        kwargs = dict(data)
        if "dead_links" in kwargs:
            kwargs["dead_links"] = frozenset(
                tuple(pair) for pair in kwargs["dead_links"])
        if "crash_rounds" in kwargs:
            kwargs["crash_rounds"] = {int(v): r for v, r in
                                      kwargs["crash_rounds"].items()}
        if kwargs.get("window") is not None:
            kwargs["window"] = tuple(kwargs["window"])
        return cls(**kwargs)


class FaultInjector:
    """Applies a :class:`FaultPlan` to a network and counts what it broke.

    Attach via a :class:`~repro.congest.model.NetworkModel`'s
    ``network_hook`` (or set it as the network's ``delivery_filter``
    directly).  After the run:

    * ``dropped`` — messages discarded (all causes combined);
    * ``crashed`` — nodes crash-stopped so far;
    * ``offered`` — messages the protocol attempted to deliver.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.dropped = 0
        self.offered = 0
        self.crashed: set[int] = set()
        self._rng = np.random.default_rng(np.random.SeedSequence(plan.seed))

    def attach(self, network: Network) -> None:
        """Install this injector as the network's delivery filter."""
        if network.delivery_filter is not None:
            raise RuntimeError("network already has a delivery filter")
        network.delivery_filter = self._filter

    # -- the adversary ----------------------------------------------------------

    def _filter(
        self, network: Network, outbox: list[tuple[int, int, tuple]],
    ) -> list[tuple[int, int, tuple]]:
        # The filter runs inside _step after round_index increments are
        # staged; messages in `outbox` are about to be delivered at the
        # start of round `round_index + 1`.
        delivery_round = network.round_index + 1
        self._apply_crashes(network, delivery_round)
        in_window = (self.plan.window is None
                     or self.plan.window[0] <= delivery_round <= self.plan.window[1])

        survivors: list[tuple[int, int, tuple]] = []
        for src, dst, payload in outbox:
            self.offered += 1
            if src in self.crashed or dst in self.crashed:
                self.dropped += 1
                continue
            if in_window and self._link_dead(src, dst):
                self.dropped += 1
                continue
            if (in_window and self.plan.drop_probability > 0.0
                    and self._rng.random() < self.plan.drop_probability):
                self.dropped += 1
                continue
            survivors.append((src, dst, payload))
        return survivors

    def _apply_crashes(self, network: Network, round_index: int) -> None:
        for node, crash_at in self.plan.crash_rounds.items():
            if node in self.crashed or crash_at > round_index:
                continue
            self.crashed.add(node)
            # Crash-stop: the engine never runs a halted node again.
            network.context(node).halted = True

    def _link_dead(self, src: int, dst: int) -> bool:
        if not self.plan.dead_links:
            return False
        key = (src, dst) if src < dst else (dst, src)
        return key in self.plan.dead_links

    def summary(self) -> dict[str, float]:
        """Injection counters for reports."""
        return {
            "offered": float(self.offered),
            "dropped": float(self.dropped),
            "drop_rate": self.dropped / self.offered if self.offered else 0.0,
            "crashed_nodes": float(len(self.crashed)),
        }
