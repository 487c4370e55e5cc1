"""Machine-level cost accounting for both k-machine paths.

Both paths book through :class:`LinkLedger`, under the Conversion
Theorem's one charging rule (per CONGEST-equivalent tick,
``max(1, ceil(busiest link load / W))`` k-machine rounds), written
once in the ledger.  The converted path
(:mod:`repro.kmachine.simulation`) learns each round's traffic by
*watching* the message-level CONGEST simulator and books the observed
messages as a :meth:`LinkLedger.series`.  The native engine
(:mod:`repro.engines.kmachine_engine`) has no ``Network`` to watch: it
replays the algorithm on the CSR array kernel and reconstructs the
traffic from the deterministic communication schedule instead, as
*arrays of messages*:

* :class:`LinkLedger` — the accumulator.  Its primitives charge one
  tick of batched messages (:meth:`LinkLedger.burst`), a multi-tick
  message series (:meth:`LinkLedger.series`), traffic-free ticks
  (:meth:`LinkLedger.quiet`), and phase estimates for traffic whose
  endpoints the replay does not materialise
  (:meth:`LinkLedger.uniform_burst`).
* :class:`TreeFloodProfile` — the per-depth link loads of a broadcast
  over a spanning tree, precomputed once and charged per flood; this
  is what makes per-rotation renumbering floods O(depth) to account
  instead of O(n).
* :func:`floodmin_traffic` — an exact vectorised re-execution of
  :class:`~repro.primitives.floodmin.FloodMin`'s send pattern
  (improvement-driven re-broadcasts), which is the single heaviest
  burst in every run.
* :func:`bfs_messages` — the explore/accept/done/commit message
  schedule of :class:`~repro.primitives.bfs.BfsTree`, derived from the
  same event recursion the fast engines use for round parity.

Fidelity contract: word totals and link matrices cover the traffic the
models above describe; phases the drivers charge through
:meth:`~LinkLedger.uniform_burst` (e.g. Turau's token walks, DHC1's
virtual fabric) contribute RVP-expectation estimates, exactly as the
fast engines' structural round estimates do for event-driven phases.
The parity gate therefore holds the native engine to the converted
oracle's *cycle* exactly and to its round count within the Conversion
Theorem's bound — not word-for-word equality.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs.adjacency import csr_gather, sorted_unique
from repro.kmachine.metrics import KMachineMetrics
from repro.kmachine.partition import VertexPartition

__all__ = [
    "LinkLedger",
    "TreeFloodProfile",
    "floodmin_traffic",
    "bfs_messages",
]


class TreeFloodProfile:
    """Per-depth link loads of a root-down broadcast over a tree.

    A flood over a spanning tree delivers one message per tree edge;
    the edge to a depth-``d`` node carries it at flood tick ``d``.
    The profile bins those edges per depth onto the machine links once,
    so charging a flood is ``O(depth * links)`` instead of ``O(n)``.

    Renumbering floods start at an arbitrary initiator, not the root;
    the native engine charges them against this root-based profile (the
    message *total* is identical — every tree edge carries exactly one
    message — only the per-tick split differs).  That approximation is
    part of the documented estimate contract.
    """

    __slots__ = ("depth_loads", "edges", "src", "dst", "tree_depth")

    def __init__(self, ledger: "LinkLedger", parent: np.ndarray,
                 depth: np.ndarray, members: np.ndarray):
        kids = members[parent[members] >= 0]
        self.src = parent[kids]
        self.dst = kids
        self.edges = int(kids.size)
        self.tree_depth = int(depth[members].max()) if members.size else 0
        k = ledger.k
        # loads[d - 1] = per-link message counts of the depth-d edges.
        loads = np.zeros((max(1, self.tree_depth), k * k), dtype=np.int64)
        if kids.size:
            lid = ledger.link_ids(self.src, self.dst)
            cross = lid >= 0
            d = depth[kids[cross]] - 1
            np.add.at(loads, (d, lid[cross]), 1)
        self.depth_loads = loads


class LinkLedger:
    """Accumulates :class:`KMachineMetrics` from batched traffic.

    One instance accounts one run, native or converted.
    ``congest_rounds`` counts the CONGEST-equivalent ticks the model
    walked through (quiet ticks included), ``kmachine_rounds`` the
    charged machine rounds.
    """

    def __init__(self, partition: VertexPartition, link_words: int):
        if link_words < 1:
            raise ValueError(f"link bandwidth must be positive, got {link_words}")
        self.partition = partition
        self.k = partition.k
        self.link_words = link_words
        self.machine_of = partition.machine_of
        self.metrics = KMachineMetrics.empty(self.k)
        self._link_flat = self.metrics.link_words.reshape(-1)

    # -- concurrency ------------------------------------------------------------

    def fork(self) -> "LinkLedger":
        """A fresh ledger over the same partition, for concurrent phases.

        Phase 1's colour classes advance in the same wall-clock rounds;
        charging each class into its own fork and folding with
        :meth:`absorb_concurrent` makes the round charge the *maximum*
        across classes (wall-clock semantics) while word totals sum.
        """
        return LinkLedger(self.partition, self.link_words)

    def absorb_concurrent(self, children: list["LinkLedger"]) -> None:
        """Fold concurrent forks: words sum, rounds take the maximum."""
        if not children:
            return
        m = self.metrics
        for child in children:
            c = child.metrics
            m.cross_words += c.cross_words
            m.local_words += c.local_words
            m.link_words += c.link_words
            m.recv_words_per_machine += c.recv_words_per_machine
            if c.max_round_link_words > m.max_round_link_words:
                m.max_round_link_words = c.max_round_link_words
        self.charge(max(c.metrics.kmachine_rounds for c in children),
                    max(c.metrics.congest_rounds for c in children))

    # -- geometry ---------------------------------------------------------------

    def link_ids(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Flat link id ``a * k + b`` (a < b) per message; -1 when local."""
        a = self.machine_of[src]
        b = self.machine_of[dst]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return np.where(a == b, -1, lo * self.k + hi)

    # -- charging primitives -----------------------------------------------------

    def charge(self, kmachine_rounds: int, congest_rounds: int) -> None:
        """Advance both counters directly (drivers' escape hatch)."""
        self.metrics.kmachine_rounds += int(kmachine_rounds)
        self.metrics.congest_rounds += int(congest_rounds)

    def quiet(self, ticks: int) -> None:
        """Ticks with no cross-machine traffic: 1 machine round each."""
        ticks = max(0, int(ticks))
        self.charge(ticks, ticks)

    def tally(self, src: np.ndarray, dst: np.ndarray,
              words: np.ndarray | int, *,
              times: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Book word totals for a message batch; return ``(lid, loads)``.

        Does **not** advance any round counter — callers turn the
        per-message link ids ``lid`` (``-1`` when co-hosted, see
        :meth:`link_ids`), the batch's per-link word ``loads`` or a
        precomputed profile into a charge.  ``words`` is one size for
        every message or one per message; ``times`` books the same
        batch repeatedly (e.g. one renumbering flood's tree edges, once
        per rotation).
        """
        dst = np.asarray(dst, dtype=np.int64)
        lid = self.link_ids(np.asarray(src, dtype=np.int64), dst)
        words = np.broadcast_to(np.asarray(words, dtype=np.int64), lid.shape)
        # Shifted ids put co-hosted messages in bin 0.  Float weights are
        # exact: word totals stay far below 2**53.
        binned = np.bincount(lid + 1, weights=words,
                             minlength=self.k * self.k + 1).astype(np.int64)
        recv = np.bincount(np.where(lid >= 0, self.machine_of[dst], self.k),
                           weights=words, minlength=self.k + 1)
        loads = binned[1:]
        m = self.metrics
        m.local_words += int(binned[0]) * times
        m.cross_words += int(loads.sum()) * times
        self._link_flat += loads * times
        m.recv_words_per_machine += recv[:self.k].astype(np.int64) * times
        return lid, loads

    def _charge_ticks(self, busiest: np.ndarray, times: int = 1) -> None:
        """The conversion's rule: one tick per entry of ``busiest`` (its
        busiest link's words), ``max(1, ceil(b / W))`` machine rounds
        each, all of it ``times`` over; records the peak link load."""
        peak = int(busiest.max(initial=0))
        if peak > self.metrics.max_round_link_words:
            self.metrics.max_round_link_words = peak
        rounds = int(np.maximum(1, -(-busiest // self.link_words)).sum())
        self.charge(rounds * times, busiest.size * times)

    def burst(self, src: np.ndarray, dst: np.ndarray, words: int) -> None:
        """One tick delivering the whole batch."""
        self._charge_ticks(self.tally(src, dst, words)[1].max(keepdims=True))

    def series(self, ticks: np.ndarray, src: np.ndarray, dst: np.ndarray,
               words: np.ndarray | int, *, span: int) -> None:
        """A ``span``-tick schedule: messages stamped with relative ticks
        in ``[0, span)``.  Every tick is charged, quiet ones included, so
        the modelled CONGEST duration matches the schedule's wall clock.
        """
        if span <= 0:
            return
        ticks = np.asarray(ticks, dtype=np.int64)
        words = np.broadcast_to(np.asarray(words, dtype=np.int64), ticks.shape)
        lid, _ = self.tally(src, dst, words)
        cross = lid >= 0
        loads = np.zeros((span, self.k * self.k), dtype=np.int64)
        np.add.at(loads, (ticks[cross], lid[cross]), words[cross])
        self._charge_ticks(loads.max(axis=1))

    def singles(self, src: np.ndarray, dst: np.ndarray, words: int) -> None:
        """One message per tick, one tick each (sequential walk steps).

        The busiest link of such a tick carries exactly that message
        when it crosses and nothing when it is co-hosted.
        """
        lid, _ = self.tally(src, dst, words)
        self._charge_ticks(np.where(lid >= 0, words, 0))

    def uniform_burst(self, messages: int, words: int, *, ticks: int = 1) -> None:
        """Estimate a burst whose endpoints the replay never materialises.

        Assumes RVP-uniform spread: a message crosses with probability
        ``1 - 1/k`` and cross traffic splits evenly over the
        ``k(k-1)/2`` links.  Totals are booked (cross/local words);
        the link matrix is left to exactly-modelled traffic.
        """
        messages = max(0, int(messages))
        if self.k < 2 or messages == 0:
            self.metrics.local_words += messages * words
            self.quiet(max(1, ticks))
            return
        cross = messages * (self.k - 1) / self.k
        self.metrics.cross_words += int(round(cross)) * words
        self.metrics.local_words += (messages - int(round(cross))) * words
        links = self.k * (self.k - 1) // 2
        per_tick_link = cross * words / links / max(1, ticks)
        per_tick = max(1, math.ceil(per_tick_link / self.link_words))
        self.charge(per_tick * max(1, ticks), max(1, ticks))

    def flood(self, profile: TreeFloodProfile, words: int,
              *, times: int = 1) -> None:
        """Charge ``times`` root-profile tree floods (see the profile)."""
        if times <= 0 or profile.edges == 0:
            return
        self.tally(profile.src, profile.dst, words, times=times)
        self._charge_ticks(profile.depth_loads.max(axis=1) * words, times)


def floodmin_traffic(ledger: LinkLedger, indptr: np.ndarray,
                     indices: np.ndarray, members: np.ndarray,
                     budget: int, *, words: int = 2) -> None:
    """Re-execute FloodMin's send schedule and charge it tick by tick.

    Exact replay of :class:`~repro.primitives.floodmin.FloodMin` over a
    (possibly colour-filtered) member-closed CSR: every participant
    broadcasts its id at tick 0; a node whose best improves re-broadcasts
    the next tick, until the fixed ``budget`` deadline.  Disjoint
    participant classes flood independently, so one call accounts all of
    Phase 1's concurrent per-class elections at once.
    """
    n = len(indptr) - 1
    best = np.arange(n, dtype=np.int64)
    senders = members[(indptr[members + 1] - indptr[members]) > 0]
    for tick in range(budget):
        if senders.size == 0:
            ledger.quiet(budget - tick)
            return
        counts = indptr[senders + 1] - indptr[senders]
        src = np.repeat(senders, counts)
        dst = csr_gather(indptr, indices, senders)
        ledger.burst(src, dst, words)
        incoming = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(incoming, dst, best[src])
        improved = incoming < best
        np.minimum(best, incoming, out=best)
        # The deadline round receives but never re-broadcasts.
        senders = np.flatnonzero(improved) if tick + 1 < budget else \
            np.empty(0, dtype=np.int64)


def bfs_messages(tree, indptr: np.ndarray, indices: np.ndarray,
                 start: int, done: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The BFS build's message schedule as ``(ticks, src, dst, words)``.

    Mirrors :class:`~repro.primitives.bfs.BfsTree` against an
    :class:`~repro.engines.arraywalk.ArrayTree`: explores to every
    non-parent peer at the join tick, accepts to the parent, the done
    convergecast at each node's completion tick (``done``, absolute,
    from :meth:`~repro.engines.arraywalk.ArrayTree.completion_times`),
    and the commit broadcast down the finished tree.  Returned ticks
    are relative to ``start`` (the BFS begin round).
    """
    members, depth, parent = tree.members, tree.depth, tree.parent
    counts = indptr[members + 1] - indptr[members]
    src = np.repeat(members, counts)
    dst = csr_gather(indptr, indices, members)
    nonparent = dst != parent[src]
    explore_src, explore_dst = src[nonparent], dst[nonparent]
    kids = members[parent[members] >= 0]
    root_done = int(done[tree.root]) - start

    ticks = [depth[explore_src],                # explores at join(v)
             depth[kids],                       # accepts at join(v)
             done[kids] - start,                # done reports
             root_done + depth[kids] - 1]       # commit wave
    srcs = [explore_src, kids, kids, parent[kids]]
    dsts = [explore_dst, parent[kids], parent[kids], kids]
    words = [np.full(explore_src.size, 2, dtype=np.int64),
             np.full(kids.size, 1, dtype=np.int64),
             np.full(kids.size, 4, dtype=np.int64),
             np.full(kids.size, 4, dtype=np.int64)]
    return (np.concatenate(ticks), np.concatenate(srcs),
            np.concatenate(dsts), np.concatenate(words))


def gossip_traffic(ledger: LinkLedger, indptr: np.ndarray,
                   indices: np.ndarray, source: int, *,
                   words: int = 1) -> None:
    """One everyone-forwards-once flood wave from ``source`` (Turau's
    done/abort floods): the wave reaches depth-``d`` nodes at tick
    ``d``, each forwarding to all neighbours the tick it is reached."""
    n = len(indptr) - 1
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        counts = indptr[frontier + 1] - indptr[frontier]
        src = np.repeat(frontier, counts)
        dst = csr_gather(indptr, indices, frontier)
        ledger.burst(src, dst, words)
        fresh = sorted_unique(dst[~seen[dst]])
        seen[fresh] = True
        frontier = fresh
