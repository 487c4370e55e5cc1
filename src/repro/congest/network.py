"""The CONGEST message-passing core: one simulator, two substrates.

Semantics (Section I-A of the paper), in the default synchronous mode:

* computation proceeds in synchronous rounds; all nodes share the round
  counter;
* per round, each node may send at most one ``B = O(log n)``-bit message
  over each incident edge (enforced at send time);
* messages sent in round ``r`` are delivered at the start of round
  ``r + 1``;
* local computation is free in the round measure, but protocols are
  written so their per-round local work is sublinear, and the optional
  memory audit checks per-node state stays o(n).

A :class:`~repro.congest.model.NetworkModel` with ``mode="async"`` runs
the *same* protocols on a virtual clock: each directed edge draws
seeded delays from the model's :class:`~repro.congest.model.LatencySpec`
(messages reorder whenever two delays cross), and churn crashes or
late-joins nodes at arbitrary times.  ``ctx.round_index`` reads as
``floor(virtual time)``, so round-indexed deadlines stay meaningful.

**The event queue.**  Both modes drain a dict from each instant to its
``(control, deliveries, wakes)`` lists, plus a heap of the distinct
instants.  Simultaneous events batch into one activation per node, in
id order, with the inbox sorted by sender.  Under unit latency this
costs one heap push and pop per round, and it *is* the synchronous
schedule, so unit-latency async runs are seed-for-seed identical to
sync ones.  Nodes run only when they receive messages or a wake-up, so
simulation cost tracks message activity rather than ``n * rounds``.
One fault adversary, the ``delivery_filter``, sees each instant's
deliveries after ``round_index`` has moved to the delivery round.

**Mode policy** (there is no further option; ``docs/ARCHITECTURE.md``
tabulates it).  Sync mode steps every round while activity remains,
lets protocol exceptions propagate, calls ``round_observer`` once per
round (idle rounds too) and stops at ``max_rounds``.  Async mode visits
only the instants holding events and stops on a virtual-time or
activation budget.  It crash-stops a node whose protocol raises: loss
and reordering reach states synchronous protocols were never written
for, and the runners' verified readout keeps ``success`` honest.  It
refuses ``round_observer`` and can record an event trace.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable

import numpy as np

from repro.congest.errors import (
    BandwidthExceededError,
    DuplicateSendError,
    NotANeighborError,
    RoundLimitExceeded,
)
from repro.congest.message import TAG_BITS, Message, word_bits
from repro.congest.metrics import Metrics
from repro.congest.model import NetworkModel
from repro.congest.node import Context, Protocol, _EndedRun
from repro.graphs.adjacency import Graph

__all__ = ["Network", "DEFAULT_BANDWIDTH_WORDS"]

DEFAULT_BANDWIDTH_WORDS = 8
#: Rounds between two memory audits (plus one at start and one at the end).
AUDIT_EVERY = 64

_sender = itemgetter(0)
_new_message = tuple.__new__


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
    model:
        The substrate (default: synchronous rounds).  The network reads
        its ``mode``, ``latency``, ``churn`` and ``seed``; the per-run
        fields (``fault_plan``, ``network_hook``, bandwidth, audit) are
        applied by :func:`~repro.congest.model.run_protocol`.
    bandwidth_words:
        Per-message budget in integer words (total bits =
        ``TAG_BITS + bandwidth_words * ceil(log2(n+1))`` — a constant
        number of O(log n)-bit fields, as the model prescribes).
    audit_memory:
        If true, record each node's protocol state size (words) every
        ``AUDIT_EVERY`` rounds to validate the o(n) fully-distributed
        restriction.
    record_events:
        Keep the async event trace in ``self.events`` (deliveries,
        wake-ups, churn, protocol errors) for determinism tests and
        debugging.  Async mode only.
    """

    def __init__(
        self,
        graph: Graph,
        protocol_factory: Callable[[int], Protocol],
        *,
        seed: int = 0,
        model: NetworkModel | None = None,
        bandwidth_words: int = DEFAULT_BANDWIDTH_WORDS,
        audit_memory: bool = False,
        record_events: bool = False,
    ):
        self.graph = graph
        self.n = graph.n
        self.model = model if model is not None else NetworkModel()
        self._async = self.model.is_async()
        self._unit_latency = self.model.latency.is_unit
        if record_events and not self._async:
            raise ValueError("record_events traces the async event queue; "
                             "it needs a NetworkModel with mode='async'")
        self.round_index = 0
        self._word_bits = word_bits(self.n)
        self._bandwidth_bits = TAG_BITS + bandwidth_words * self._word_bits
        self._audit_memory = audit_memory
        self._last_audit = 0

        seeds = np.random.SeedSequence(seed).spawn(self.n)
        self.protocols: list[Protocol] = []
        self._contexts: list[Context] = []
        #: Nodes whose ``halted`` is set (kept by :meth:`Context.halt`).
        self._halted = 0
        for v in range(self.n):
            proto = protocol_factory(v)
            ctx = Context(self, v, graph.neighbor_list(v), np.random.default_rng(seeds[v]))
            self.protocols.append(proto)
            self._contexts.append(ctx)

        #: Optional observer called once per synchronous round with the
        #: list of ``(src, dst, payload)`` messages delivered at the start
        #: of the next round, while ``round_index`` is still the sending
        #: round.  Used by :mod:`repro.kmachine` to re-cost the execution
        #: under a different communication model without touching
        #: protocols.  Sync mode only.
        self.round_observer: Callable[["Network", list[tuple]], None] | None = None
        #: Optional adversary: transforms each instant's deliveries
        #: (tuples starting ``(src, dst, payload)``) before they reach
        #: the inboxes; the observer above sees the traffic as
        #: *offered*, i.e. pre-filter.  Used by
        #: :mod:`repro.congest.faults` for failure-injection experiments.
        self.delivery_filter: Callable[["Network", list[tuple]], list[tuple]] | None = None
        self.metrics = Metrics(
            sent_per_node=np.zeros(self.n, dtype=np.int64),
            peak_state_words=np.zeros(self.n, dtype=np.int64),
            memory_audited=audit_memory,
        )
        #: Per-node send counts, copied into ``metrics.sent_per_node`` and
        #: summed into ``metrics.messages`` when ``run`` ends (a list
        #: increment is cheaper per send than either).
        self._sent = [0] * self.n

        # The event queue: instant -> (control, deliveries, wakes), plus
        # a heap of the distinct instants.  Instants are round numbers in
        # sync mode and floats in async mode.
        self._buckets: dict[float, tuple[list, list, set]] = {}
        self._instants: list[float] = []
        self._now: float = 0.0 if self._async else 0
        #: Deliveries list of the instant one time unit ahead (the unit
        #: latency destination, in both modes), cached per instant.
        self._outbox: list | None = None
        #: Out-edges (by destination) the active node already used.
        self._edges_used: set[int] = set()
        self._send_seq = 0
        self._edge_rngs: dict[tuple[int, int], np.random.Generator] = {}
        self._edge_last_seq: dict[tuple[int, int], int] = {}

        # Churn schedule (sorted by time): a node's earliest join defers
        # its start; later joins of the same node are no-ops.
        self._started = [True] * self.n
        for action, node, time in self.model.churn:
            if node >= self.n:
                raise ValueError(
                    f"churn event names node {node} but the graph has "
                    f"{self.n} nodes")
            if action == "join":
                if not self._started[node]:
                    continue
                self._started[node] = False
            self._bucket(time)[0].append((action, node))
        self._churn_crashed: set[int] = set()
        self._churn_joined = 0

        # Async accounting (see async_summary).
        self._delivered = 0
        self._dropped = 0
        self._undeliverable = 0
        self._reordered = 0
        self._activations = 0
        self._depth = [0] * self.n  # Lamport depth: longest causal chain
        self._max_depth = 0
        self._protocol_errors: list[tuple[int, str]] = []
        self._limited = False
        self.events: list[tuple] | None = [] if record_events else None

    # -- internal API used by Context -----------------------------------------

    def _enqueue_many(self, src: int, dests: list[int] | tuple[int, ...],
                      skip: int | None, payload: tuple,
                      neighbors: frozenset[int]) -> None:
        """Enqueue one payload from ``src`` to every destination but ``skip``.

        The one send path (``Context.send`` is its one-destination
        case).  Each destination is checked in turn (not a neighbour,
        then edge used, then bit budget), so an error leaves exactly the
        earlier destinations enqueued.  The bits are sized once and the
        counters bumped once.
        """
        bits = TAG_BITS + (len(payload) - 1) * self._word_bits
        fits = bits <= self._bandwidth_bits
        used = self._edges_used
        outbox = self._outbox
        is_async = self._async
        depth = self._depth[src] + 1  # the Lamport depth of an async send
        sent = 0
        try:
            for dst in dests:
                if dst == skip:
                    continue
                if dst in used or dst not in neighbors or not fits:
                    self._refuse(src, dst, payload, bits, neighbors)
                used.add(dst)
                sent += 1
                if is_async:
                    entry = (src, dst, payload, depth, self._send_seq)
                    self._send_seq += 1
                    if not self._unit_latency:
                        self._bucket(self._now + self._latency(src, dst))[1].append(entry)
                        continue
                else:
                    entry = (src, dst, payload)
                if outbox is None:
                    outbox = self._outbox = self._bucket(self._now + 1)[1]
                outbox.append(entry)
        finally:
            if sent:
                self.metrics.bits += bits * sent
                self._sent[src] += sent

    def _refuse(self, src: int, dst: int, payload: tuple, bits: int,
                neighbors: frozenset[int]) -> None:
        """Raise the first rule a send of ``payload`` from ``src`` to ``dst`` breaks."""
        if dst not in neighbors:
            raise NotANeighborError(f"node {src} is not adjacent to {dst}")
        if dst in self._edges_used:
            raise DuplicateSendError(
                f"node {src} sent twice over edge ({src}, {dst}) in round "
                f"{self.round_index}; pack fields into one message"
            )
        raise BandwidthExceededError(
            f"message {payload[0]!r} needs {bits} bits but the edge budget "
            f"is {self._bandwidth_bits} bits"
        )

    def _edge_free(self, dst: int) -> bool:
        return dst not in self._edges_used

    def _schedule_wake(self, node: int, round_index: int) -> None:
        if round_index <= self.round_index:
            raise ValueError(
                f"wake-up for node {node} must be in the future "
                f"(requested {round_index} at round {self.round_index})"
            )
        when = float(round_index) if self._async else round_index
        self._bucket(when)[2].add(node)

    # -- event plumbing --------------------------------------------------------

    def _bucket(self, when: float) -> tuple[list, list, set]:
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = self._buckets[when] = ([], [], set())
            heapq.heappush(self._instants, when)
        return bucket

    def _latency(self, src: int, dst: int) -> float:
        """A seeded delay draw for the directed edge (non-unit latency)."""
        rng = self._edge_rngs.get((src, dst))
        if rng is None:
            # Per-directed-edge streams keyed by (substrate seed, src,
            # dst): an edge's delay sequence is independent of global
            # send order, so traces stay deterministic per seed.
            rng = np.random.default_rng(
                np.random.SeedSequence((self.model.seed, src, dst)))
            self._edge_rngs[(src, dst)] = rng
        return self.model.latency.sample(rng)

    # -- execution -------------------------------------------------------------

    def run(
        self,
        *,
        max_rounds: int,
        raise_on_limit: bool = True,
    ) -> Metrics:
        """Execute the protocol until global termination.

        Termination is: every node halted, or no activity remains (no
        messages in flight, no wake-ups or churn scheduled).  Hitting
        the watchdog first raises :class:`RoundLimitExceeded` (or
        returns, when ``raise_on_limit`` is false).  The watchdog is
        ``max_rounds`` rounds in sync mode; in async mode the
        virtual-time budget scales ``max_rounds`` by the latency
        distribution's mean (so a mean-2 latency gets twice the virtual
        time), and an activation cap backstops pathological event
        storms.
        """
        if self._async and self.round_observer is not None:
            raise ValueError(
                "round_observer is a synchronous-mode hook; an async run "
                "takes faults from the delivery filter and records an "
                "event trace instead")
        time_limit = float(max_rounds) * max(1.0, self.model.latency.mean())
        activation_cap = 4 * (self.n + 4) * max(1, max_rounds)
        limited = False
        try:
            try:
                for v in range(self.n):
                    if self._started[v]:
                        self._start(v)
                self._maybe_audit(force=True)
                while self._buckets:
                    if self._halted == self.n:
                        break
                    if self._async:
                        when = self._instants[0]
                        if when > time_limit or self._activations >= activation_cap:
                            limited = True
                            break
                    elif self.round_index >= max_rounds:
                        limited = True
                        break
                    else:
                        when = self.round_index + 1
                    self._step(when)
                    self._maybe_audit()
            finally:  # also when a sync protocol's exception propagates
                self.metrics.messages = sum(self._sent)
                self.metrics.sent_per_node = np.array(self._sent, dtype=np.int64)

            self._limited = limited
            if limited and raise_on_limit:
                raise RoundLimitExceeded(
                    f"protocol did not terminate within the watchdog budget "
                    f"(max_rounds={max_rounds})")
            self.metrics.rounds = self.round_index
            self._maybe_audit(force=True)
        finally:
            self._end_run()
        return self.metrics

    def _end_run(self) -> None:
        """Break the reference cycles that held the run together.

        Each context drops its links to this network for one shared
        :class:`~repro.congest.node._EndedRun`, and each protocol that
        defines ``release`` drops its own links back to itself (a
        sub-machine's host and transport), so a finished network is
        freed by reference counting rather than left to the cyclic
        collector.  It follows the final memory audit, which counts a
        machine's host link.  Protocol state, ``metrics``,
        ``async_summary()`` and each context's ``halted`` stay readable.
        """
        ended = _EndedRun(self.n, self.round_index)
        for ctx in self._contexts:
            ctx._end_run(ended)  # noqa: SLF001
        for proto in self.protocols:
            release = getattr(proto, "release", None)
            if release is not None:
                release()

    def _step(self, when: float) -> None:
        """Apply one instant: control events, the filter, then activations."""
        bucket = self._buckets.pop(when, None)
        if bucket is None:  # an idle synchronous round
            control, deliveries, wakes = (), [], ()
        else:
            heapq.heappop(self._instants)
            control, deliveries, wakes = bucket
        if self.round_observer is not None:
            self.round_observer(self, deliveries)
        self._now = when
        self.round_index = int(when)
        self._outbox = None
        for action, node in control:
            if action == "crash":
                self._crash(node)
            else:
                self._join(node)
        if self.delivery_filter is not None:
            offered = len(deliveries)
            deliveries = self.delivery_filter(self, deliveries)
            self._dropped += offered - len(deliveries)

        if self._async:
            inboxes = self._deliver(deliveries)
            wakes = [v for v in wakes
                     if self._started[v] and not self._contexts[v].halted]
            if self.events is not None:
                self.events.extend(("wake", when, v) for v in wakes)
        else:
            inboxes = {}
            for src, dst, payload in deliveries:
                inbox = inboxes.get(dst)
                if inbox is None:
                    inboxes[dst] = [_new_message(Message, (src, payload))]
                else:
                    inbox.append(_new_message(Message, (src, payload)))

        active = set(inboxes)
        active.update(wakes)
        protocols, contexts = self.protocols, self._contexts
        edges_used = self._edges_used
        activations = 0
        for v in sorted(active):
            ctx = contexts[v]
            if ctx.halted:
                continue  # crash-stopped, possibly by this instant's control
            inbox = inboxes.get(v, [])
            if len(inbox) > 1:
                inbox.sort(key=_sender)
            activations += 1
            edges_used.clear()
            try:
                protocols[v].on_round(ctx, inbox)
            except Exception as exc:  # noqa: BLE001 — policy by mode
                if not self._async:
                    raise
                self._crash_stop(v, exc)
        self._activations += activations

    def _deliver(self, deliveries: list[tuple]) -> dict[int, list[Message]]:
        """Async inboxes for one instant's deliveries.

        Each recipient's causal depth rises here to its deepest incoming
        message: every recipient that passes the checks is activated in
        this instant, before it can send.
        """
        inboxes: dict[int, list[Message]] = {}
        started, contexts, node_depth = self._started, self._contexts, self._depth
        crashed, last_seq = self._churn_crashed, self._edge_last_seq
        events, now = self.events, self._now
        delivered = reordered = 0
        max_depth = self._max_depth
        for src, dst, payload, depth, send_seq in deliveries:
            if not started[dst] or contexts[dst].halted or src in crashed:
                self._undeliverable += 1
                continue
            edge = (src, dst)
            if send_seq < last_seq.get(edge, -1):
                reordered += 1
            else:
                last_seq[edge] = send_seq
            delivered += 1
            if depth > max_depth:
                max_depth = depth
            inboxes.setdefault(dst, []).append(_new_message(Message, (src, payload)))
            if depth > node_depth[dst]:
                node_depth[dst] = depth
            if events is not None:
                events.append(("deliver", now, src, dst, payload[0], send_seq))
        self._delivered += delivered
        self._reordered += reordered
        self._max_depth = max_depth
        return inboxes

    def _crash(self, node: int) -> None:
        self._churn_crashed.add(node)
        ctx = self._contexts[node]
        if not ctx.halted:
            ctx.halt()
            if self.events is not None:
                self.events.append(("crash", self._now, node))

    def _join(self, node: int) -> None:
        if self._started[node] or self._contexts[node].halted:
            return
        self._started[node] = True
        self._churn_joined += 1
        if self.events is not None:
            self.events.append(("join", self._now, node))
        self._start(node)

    def _start(self, v: int) -> None:
        self._edges_used.clear()
        try:
            self.protocols[v].on_start(self._contexts[v])
        except Exception as exc:  # noqa: BLE001 — policy by mode
            if not self._async:
                raise
            self._crash_stop(v, exc)

    def _crash_stop(self, v: int, exc: Exception) -> None:
        self._protocol_errors.append((v, f"{type(exc).__name__}: {exc}"))
        self._contexts[v].halt()
        if self.events is not None:
            self.events.append(("error", self._now, v, type(exc).__name__))

    # -- inspection -------------------------------------------------------------

    def context(self, v: int) -> Context:
        """The execution context of node ``v`` (for tests and result readout)."""
        return self._contexts[v]

    def _maybe_audit(self, *, force: bool = False) -> None:
        if not self._audit_memory:
            return
        if not force and self.round_index - self._last_audit < AUDIT_EVERY:
            return
        self._last_audit = self.round_index
        peaks = self.metrics.peak_state_words
        for v, proto in enumerate(self.protocols):
            words = proto.state_size()
            if words > peaks[v]:
                peaks[v] = words

    def async_summary(self) -> dict:
        """Event-level counters of an async run, for ``detail["async"]``.

        ``depth`` is the longest causal message chain (Lamport depth);
        ``stretch`` is virtual completion time over that depth — 1.0
        under unit latency for delivery-driven runs, growing with the
        latency distribution's tail.  ``dropped`` counts the messages
        the delivery filter (the fault adversary) removed, so it equals
        ``detail["faults"]["dropped"]``; ``undeliverable`` counts those
        discarded because the recipient was halted or not yet joined,
        or the sender was churn-crashed.  ``limited`` is 1 when the run
        ended on the watchdog budget rather than by quiescence or
        global halt (the bench's termination criterion).
        """
        depth = self._max_depth
        return {
            "virtual_time": round(self._now, 9),
            "limited": int(self._limited),
            "delivered": self._delivered,
            "dropped": self._dropped,
            "undeliverable": self._undeliverable,
            "reordered": self._reordered,
            "activations": self._activations,
            "depth": depth,
            "stretch": (round(self._now / depth, 9) if depth else None),
            "protocol_errors": len(self._protocol_errors),
            "churn_crashed": len(self._churn_crashed),
            "churn_joined": self._churn_joined,
        }
