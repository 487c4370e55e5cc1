"""The synchronous CONGEST round engine.

Semantics (Section I-A of the paper):

* computation proceeds in synchronous rounds; all nodes share the round
  counter;
* per round, each node may send at most one ``B = O(log n)``-bit message
  over each incident edge (enforced at send time);
* messages sent in round ``r`` are delivered at the start of round
  ``r + 1``;
* local computation is free in the round measure, but protocols are
  written so their per-round local work is sublinear, and the optional
  memory audit checks per-node state stays o(n).

The engine is event-driven: a node runs in a round only if it received
messages or scheduled a wake-up, so simulation cost tracks message
activity rather than ``n * rounds``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.congest.errors import (
    BandwidthExceededError,
    DuplicateSendError,
    NotANeighborError,
    RoundLimitExceeded,
)
from repro.congest.message import Message, payload_bits, word_bits
from repro.congest.metrics import Metrics
from repro.congest.node import Context, Protocol
from repro.graphs.adjacency import Graph

__all__ = ["Network", "DEFAULT_BANDWIDTH_WORDS"]

DEFAULT_BANDWIDTH_WORDS = 8


class Network:
    """A CONGEST network: a topology plus one protocol instance per node.

    Parameters
    ----------
    graph:
        The communication topology.
    protocol_factory:
        ``factory(node_id) -> Protocol`` building each node's code.
    seed:
        Master seed; each node receives an independent child generator,
        so executions are reproducible and node randomness is isolated.
    bandwidth_words:
        Per-message budget in integer words (total bits =
        ``TAG_BITS + bandwidth_words * ceil(log2(n+1))`` — a constant
        number of O(log n)-bit fields, as the model prescribes).
    audit_memory:
        If true, periodically record each node's protocol state size
        (words) to validate the o(n) fully-distributed restriction.
    """

    def __init__(
        self,
        graph: Graph,
        protocol_factory: Callable[[int], Protocol],
        *,
        seed: int = 0,
        bandwidth_words: int = DEFAULT_BANDWIDTH_WORDS,
        audit_memory: bool = False,
        audit_every: int = 64,
    ):
        self.graph = graph
        self.n = graph.n
        self.round_index = 0
        self._word_bits = word_bits(self.n)
        self._bandwidth_bits = 8 + bandwidth_words * self._word_bits
        self._audit_memory = audit_memory
        self._audit_every = max(1, audit_every)

        seeds = np.random.SeedSequence(seed).spawn(self.n)
        self.protocols: list[Protocol] = []
        self._contexts: list[Context] = []
        for v in range(self.n):
            proto = protocol_factory(v)
            ctx = Context(self, v, graph.neighbor_list(v), np.random.default_rng(seeds[v]))
            self.protocols.append(proto)
            self._contexts.append(ctx)

        self._outbox: list[tuple[int, int, tuple]] = []
        self._edges_used: set[tuple[int, int]] = set()
        self._wakes: dict[int, set[int]] = {}
        #: Optional observer called once per executed round with the list of
        #: ``(src, dst, payload)`` messages delivered at the start of that
        #: round.  Used by :mod:`repro.kmachine` to re-cost the execution
        #: under a different communication model without touching protocols.
        self.round_observer: Callable[["Network", list[tuple[int, int, tuple]]], None] | None = None
        #: Optional adversary: transforms each round's in-flight message
        #: list before delivery (drop/reorder; the observer above sees the
        #: traffic as *offered*, i.e. pre-filter).  Used by
        #: :mod:`repro.congest.faults` for failure-injection experiments.
        self.delivery_filter: Callable[
            ["Network", list[tuple[int, int, tuple]]],
            list[tuple[int, int, tuple]]] | None = None
        self.metrics = Metrics(
            sent_per_node=np.zeros(self.n, dtype=np.int64),
            peak_state_words=np.zeros(self.n, dtype=np.int64),
            memory_audited=audit_memory,
        )

    # -- internal API used by Context -----------------------------------------

    def _enqueue(self, src: int, dst: int, payload: tuple) -> None:
        ctx = self._contexts[src]
        if not ctx.is_neighbor(dst):
            raise NotANeighborError(f"node {src} is not adjacent to {dst}")
        key = (src, dst)
        if key in self._edges_used:
            raise DuplicateSendError(
                f"node {src} sent twice over edge ({src}, {dst}) in round "
                f"{self.round_index}; pack fields into one message"
            )
        bits = payload_bits(payload, self.n)
        if bits > self._bandwidth_bits:
            raise BandwidthExceededError(
                f"message {payload[0]!r} needs {bits} bits but the edge budget "
                f"is {self._bandwidth_bits} bits"
            )
        self._edges_used.add(key)
        self._outbox.append((src, dst, payload))
        self.metrics.messages += 1
        self.metrics.bits += bits
        self.metrics.sent_per_node[src] += 1

    def _edge_free(self, src: int, dst: int) -> bool:
        return (src, dst) not in self._edges_used

    def _schedule_wake(self, node: int, round_index: int) -> None:
        if round_index <= self.round_index:
            raise ValueError(
                f"wake-up for node {node} must be in the future "
                f"(requested {round_index} at round {self.round_index})"
            )
        self._wakes.setdefault(round_index, set()).add(node)

    # -- execution -------------------------------------------------------------

    def run(
        self,
        *,
        max_rounds: int,
        until: Callable[["Network"], bool] | None = None,
        raise_on_limit: bool = True,
    ) -> Metrics:
        """Execute the protocol until global termination.

        Termination is: every node halted, or the optional ``until``
        predicate returns true, or no activity remains (no messages in
        flight and no wake-ups scheduled).  Hitting ``max_rounds`` first
        raises :class:`RoundLimitExceeded` (or returns, when
        ``raise_on_limit`` is false).
        """
        self.round_index = 0
        for v in range(self.n):
            self.protocols[v].on_start(self._contexts[v])
        self._maybe_audit(force=True)

        while True:
            if self._all_halted() or (until is not None and until(self)):
                break
            if not self._outbox and not self._wakes:
                break  # deadlock-free quiescence: nothing will ever happen again
            if self.round_index >= max_rounds:
                if raise_on_limit:
                    raise RoundLimitExceeded(
                        f"protocol did not terminate within {max_rounds} rounds"
                    )
                break
            self._step()

        self.metrics.rounds = self.round_index
        self._maybe_audit(force=True)
        return self.metrics

    def _step(self) -> None:
        if self.round_observer is not None:
            self.round_observer(self, self._outbox)
        if self.delivery_filter is not None:
            self._outbox = self.delivery_filter(self, self._outbox)
        inboxes: dict[int, list[Message]] = {}
        for src, dst, payload in self._outbox:
            inboxes.setdefault(dst, []).append(Message(src, payload))
        self._outbox = []
        self._edges_used.clear()

        self.round_index += 1
        active = self._wakes.pop(self.round_index, set())
        active.update(inboxes)
        for v in sorted(active):
            ctx = self._contexts[v]
            if ctx.halted:
                continue
            inbox = inboxes.get(v, [])
            inbox.sort(key=lambda msg: msg.sender)
            self.protocols[v].on_round(ctx, inbox)
        self._maybe_audit()

    # -- inspection -------------------------------------------------------------

    def context(self, v: int) -> Context:
        """The execution context of node ``v`` (for tests and result readout)."""
        return self._contexts[v]

    def _all_halted(self) -> bool:
        return all(ctx.halted for ctx in self._contexts)

    def _maybe_audit(self, *, force: bool = False) -> None:
        if not self._audit_memory:
            return
        if not force and self.round_index % self._audit_every != 0:
            return
        peaks = self.metrics.peak_state_words
        for v, proto in enumerate(self.protocols):
            words = proto.state_size()
            if words > peaks[v]:
                peaks[v] = words

