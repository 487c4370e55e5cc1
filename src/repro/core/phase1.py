"""Phase 1 shared by DHC1 and DHC2: colour, partition, per-partition DRA.

Both algorithms start identically (Algorithm 2 lines 5-10, reused by
Algorithm 3 line 2): every node draws a uniform colour from ``1..K``
(``K = sqrt(n)`` for DHC1, ``n**(1-delta)`` for DHC2), the colour
classes induce disjoint random subgraphs, and each class independently
elects a leader, builds a BFS tree, and runs the rotation walk to get
its own sub-Hamiltonian-cycle.  All classes proceed concurrently in one
network; every message stays inside its class (plus the one initial
colour-announcement round).

The class below is an abstract host; subclasses take over via
:meth:`on_phase1_complete` (DHC2 starts merging, DHC1 builds
hypernodes).  A paced out-queue (:meth:`queue_send`) is provided for
later phases whose sub-activities would otherwise collide on edges.

Failure handling: any partition whose election/BFS/walk fails triggers
a global abort flood ("ab") so the whole network terminates quickly and
reports an honest failure (experiment E6 counts these).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

from repro.analysis.bounds import bfs_deadline, class_size_cap, diameter_budget, dra_step_budget
from repro.congest.message import Message
from repro.congest.node import Context, Protocol
from repro.core.rotation import RotationWalk, VirtualEdge
from repro.primitives.bfs import BfsTree
from repro.primitives.floodmin import FloodMin
from repro.primitives.submachine import SubMachineHost

__all__ = ["PartitionedPhase1Protocol", "bfs_broken", "class_fail_cause",
           "color_at_level", "colors_at_level", "merge_levels",
           "resolve_colors"]


def resolve_colors(k: int | None, default: Callable[[], int]) -> int:
    """The colour count ``K`` a run uses: ``k`` if given, else ``default()``.

    Every DHC1/DHC2 engine resolves its colour count here, so a ``k``
    below 1 (a colour draw with no colour to pick) fails the same way
    on all of them.
    """
    if k is None:
        return default()
    if k < 1:
        raise ValueError(f"colour count k must be at least 1, got {k}")
    return k


def color_at_level(color1: int, level: int) -> int:
    """Colour of a node at merge level ``level`` (1-based colours).

    Level 1 sees the original colours; each level halves:
    ``ceil(c / 2**(level-1))``.  Deterministic, so every node knows every
    neighbour's colour at every level from the single initial
    announcement.
    """
    return -(-color1 // (1 << (level - 1)))


def colors_at_level(k: int, level: int) -> int:
    """How many colours remain at merge level ``level`` (K_1 = k)."""
    return -(-k // (1 << (level - 1)))


def merge_levels(k: int) -> int:
    """Number of merge levels needed to go from ``k`` colours to one."""
    levels = 0
    while k > 1:
        k = -(-k // 2)
        levels += 1
    return levels


def bfs_broken(bfs: BfsTree | None, size: int) -> bool:
    """Whether a finished BFS failed or spans fewer than ``size`` nodes."""
    return bfs is not None and bfs.done and (bfs.failed or bfs.size < size)


def class_fail_cause(protocols: Sequence["PartitionedPhase1Protocol"],
                     colors: int, *, isolated: bool = False) -> str | None:
    """Name a failed Phase 1 with the ``fast`` engine's reasons.

    Read from state the protocols already hold.  A colour class fails
    at its first broken stage, in ``fast``'s order: no member
    (``empty-partition``), a broken class BFS
    (``partition-disconnected``), a failed walk (``walk-<code>``); the
    lowest failing colour names the run.  An ``isolated`` node halts
    before it draws a colour, so with one the empty-class test is
    skipped and, short of a class failure, its own class is
    ``partition-disconnected``.  The abort flood can stop a class
    before its own failure shows, so when several classes fail the
    cause may name a different class than ``fast`` does.
    """
    class_size = Counter(p.color for p in protocols)
    failures = [] if isolated else [
        (c, 0, "empty-partition")
        for c in range(1, colors + 1) if not class_size[c]
    ]
    for p in protocols:
        if bfs_broken(p.bfs, class_size[p.color]):
            failures.append((p.color, 1, "partition-disconnected"))
        elif p.walk is not None and p.walk.done and not p.walk.success:
            failures.append((p.color, 2, f"walk-{p.walk.fail_code}"))
    if failures:
        return min(failures)[2]
    return "partition-disconnected" if isolated else None


class PartitionedPhase1Protocol(Protocol, SubMachineHost):
    """Colour draw -> partition election -> partition BFS -> partition DRA."""

    def __init__(self, node_id: int, n: int, k: int, *, global_tree_first: bool = False):
        SubMachineHost.__init__(self)
        self.node_id = node_id
        self.n = n
        self.k = k  # number of colours
        self.global_tree_first = global_tree_first
        self.global_election: FloodMin | None = None
        self.global_bfs: BfsTree | None = None
        self.color = 0  # 1-based, drawn in on_start
        self.neighbor_colors: dict[int, int] = {}
        self.peers: list[int] = []  # same-colour neighbours

        self.election: FloodMin | None = None
        self.bfs: BfsTree | None = None
        self.walk: RotationWalk | None = None
        self._stage = "color"
        self._walk_at = -1

        # Cycle state maintained from phase 1 onwards (physical ids).
        self.cycindex = 0
        self.succ = -1
        self.pred = -1
        self.cycle_size = 0
        self.tree_neighbors: list[int] = []
        self.tree_depth = 0

        self.aborted = False
        self.finished = False
        self._abort_pending: set[int] = set()
        self._outqueue: list[tuple[int, tuple]] = []
        self._halt_when_drained = False

        self._elect_budget = diameter_budget(class_size_cap(n, k))

    # -- protocol interface ------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        if not ctx.neighbors:
            self._fail_local(ctx)  # isolated node: no HC exists
            return
        if self.global_tree_first:
            self._stage = "gelect"
            self.global_election = FloodMin("gl", ctx.neighbors, diameter_budget(self.n))
            self.activate(ctx, self.global_election)
            return
        self._announce_color(ctx)

    def _announce_color(self, ctx: Context) -> None:
        self.color = 1 + int(ctx.rng.integers(self.k))
        ctx.multicast(ctx.neighbors, ("co", self.color))
        self._color_round = ctx.round_index
        ctx.request_wake(ctx.round_index + 1)

    def on_round(self, ctx: Context, inbox: list[Message]) -> None:
        colors = [m for m in inbox if m.payload[0] == "co"]
        aborts = [m for m in inbox if m.payload[0] == "ab"]
        rest = [m for m in inbox if m.payload[0] not in ("co", "ab")]
        for message in colors:
            self.neighbor_colors[message.sender] = message.payload[1]
        if aborts and not self.aborted:
            self._begin_abort(ctx)
        if self.aborted:
            self._flush_abort(ctx)
            return
        rest = [m for m in rest if not self.host_message_hook(ctx, m)]
        self.dispatch(ctx, rest)
        if self.done_dispatching_hook(ctx):
            return
        self._advance(ctx)
        self.flush_queue(ctx)
        if self._halt_when_drained and not self._outqueue and not ctx.halted:
            ctx.halt()

    def done_dispatching_hook(self, ctx: Context) -> bool:
        """Subclass hook run after message dispatch; return True to stop."""
        return False

    def host_message_hook(self, ctx: Context, message: Message) -> bool:
        """Subclass hook for host-level kinds; return True when consumed."""
        return False

    # -- phase-1 stage machine -------------------------------------------------------

    def _advance(self, ctx: Context) -> None:
        if self._stage == "gelect" and self.global_election is not None and self.global_election.done:
            self.deactivate(self.global_election)
            is_leader = self.global_election.is_leader
            self.global_election = None
            self._stage = "gbfs"
            deadline = bfs_deadline(ctx.round_index, diameter_budget(self.n))
            self.global_bfs = BfsTree(
                "gb", ctx.neighbors,
                is_root=is_leader, deadline=deadline,
            )
            self.activate(ctx, self.global_bfs)
        if self._stage == "gbfs" and self.global_bfs is not None and self.global_bfs.done:
            if self.global_bfs.failed:
                self._fail_local(ctx)
                return
            # The commit wave reaches nodes at (root_finish + depth); every
            # node can therefore compute the same network-wide announcement
            # round, so all colour announcements land simultaneously.
            self._stage = "gwait"
            self._announce_at = (ctx.round_index - max(0, self.global_bfs.depth)
                                 + self.global_bfs.tree_depth + 1)
            self._announce_at = max(self._announce_at, ctx.round_index + 1)
            ctx.request_wake(self._announce_at)
            return
        if self._stage == "gwait":
            if ctx.round_index < self._announce_at:
                return
            self._stage = "color"
            self._announce_color(ctx)
            return
        if self._stage == "color" and ctx.round_index >= getattr(self, "_color_round", 0) + 1:
            self.peers = sorted(
                v for v, c in self.neighbor_colors.items() if c == self.color
            )
            self._stage = "elect"
            self.election = FloodMin("lm", self.peers, self._elect_budget)
            self.activate(ctx, self.election)
        if self._stage == "elect" and self.election is not None and self.election.done:
            self.deactivate(self.election)
            is_leader = self.election.is_leader
            self.election = None
            self._stage = "bfs"
            deadline = bfs_deadline(ctx.round_index, self._elect_budget)
            self.bfs = BfsTree("b0", self.peers,
                               is_root=is_leader, deadline=deadline)
            self.activate(ctx, self.bfs)
        if self._stage == "bfs" and self.bfs is not None and self.bfs.done:
            if self.bfs.failed:
                self._fail_local(ctx)
                return
            if self._walk_at < 0:
                self._walk_at = ctx.round_index + 1
                ctx.request_wake(self._walk_at)
                return
            if ctx.round_index < self._walk_at:
                return
            self._stage = "walk"
            self.deactivate(self.bfs)
            self.tree_neighbors = self.bfs.tree_neighbors
            self.tree_depth = max(1, self.bfs.tree_depth)
            self.cycle_size = self.bfs.size
            self.walk = RotationWalk(
                "rw",
                self.node_id,
                [VirtualEdge(peer) for peer in self.peers],
                tree_neighbors=self.tree_neighbors,
                tree_depth=self.tree_depth,
                size=self.cycle_size,
                is_initial_head=self.bfs.is_root,
                step_budget=dra_step_budget(self.cycle_size),
            )
            self.activate(ctx, self.walk)
        if self._stage == "walk" and self.walk is not None and self.walk.done:
            if not self.walk.success:
                self._fail_local(ctx)
                return
            self._stage = "phase2"
            self.cycindex = self.walk.cycindex
            self.succ = self.walk.succ
            self.pred = self.walk.pred
            self.on_phase1_complete(ctx)
        self.advance_hook(ctx)

    # -- subclass extension points ------------------------------------------------------

    def on_phase1_complete(self, ctx: Context) -> None:
        """Called once when this node's partition cycle is in place."""
        raise NotImplementedError

    def advance_hook(self, ctx: Context) -> None:
        """Called at the end of every round's stage evaluation."""

    # -- paced out-queue ------------------------------------------------------------------

    def queue_send(self, ctx: Context, dest: int, kind: str, *fields: int) -> None:
        """FIFO-per-destination send that never violates edge bandwidth.

        Buffered until the end of the round (after every direct-sending
        sub-machine has had its turn) and flushed one message per free
        edge per round.
        """
        self._outqueue.append((dest, (kind, *fields)))
        ctx.request_wake(ctx.round_index + 1)

    def request_halt(self, ctx: Context) -> None:
        """Halt as soon as the out-queue has fully drained."""
        self._halt_when_drained = True
        ctx.request_wake(ctx.round_index + 1)

    def flush_queue(self, ctx: Context) -> None:
        """Send the head-of-line message for every destination possible."""
        if not self._outqueue or self.aborted or ctx.halted:
            return
        remaining: list[tuple[int, tuple]] = []
        for dest, payload in self._outqueue:
            if ctx.edge_free(dest):
                ctx.send(dest, *payload)
            else:
                remaining.append((dest, payload))
        self._outqueue = remaining
        if self._outqueue:
            ctx.request_wake(ctx.round_index + 1)

    # -- failure / abort ---------------------------------------------------------------------

    def _fail_local(self, ctx: Context) -> None:
        """This node discovered a failure: flood a global abort."""
        if not self.aborted:
            self._begin_abort(ctx)
            self._flush_abort(ctx)

    def _begin_abort(self, ctx: Context) -> None:
        self.aborted = True
        self.finished = False
        self._abort_pending = set(ctx.neighbors)
        self._outqueue.clear()

    def _flush_abort(self, ctx: Context) -> None:
        for peer in sorted(self._abort_pending):
            if ctx.edge_free(peer):
                ctx.send(peer, "ab")
                self._abort_pending.discard(peer)
        if self._abort_pending:
            ctx.request_wake(ctx.round_index + 1)
        else:
            ctx.halt()
