"""The Distributed Rotation Algorithm (DRA) — Algorithm 1 of the paper.

The walk grows a Hamiltonian path with the head extending along random
unused edges; hitting an on-path node triggers a *rotation* (Fig. 2),
implemented as a renumbering broadcast over a spanning tree built
before the walk (a reproduction substitution: each rotation then costs
``O(tree depth)`` rounds).  The closing edge back to the start node
upgrades the path to a Hamiltonian cycle.

The machine runs over a *virtual graph* so one implementation serves
both uses in the paper:

* Phase 1 of DHC1/DHC2 — virtual nodes are physical nodes of one colour
  class, virtual edges are intra-class edges (``latency = 1``,
  ``ported = False``);
* Phase 2 of DHC1 — virtual nodes are *hypernodes* (cycle edges) whose
  two physical endpoints act as ports, and virtual messages are relayed
  through at most 3 physical hops (``latency = 3``, ``ported = True``).

Port-awareness (a reproduction decision): with
hypernodes the paper fixes ``u_i`` as in-port and ``v_i`` as out-port,
but an undirected rotation walk cannot maintain that orientation
globally — both cycle edges could land on one port, and the final
stitching would break.  We bind ports dynamically instead: every path
edge occupies a specific port of each endpoint; a rotation hit is valid
only on the port currently bound toward the victim's *successor*
(freeing it keeps the path connected), and invalid hits are
discarded-and-retried.  A hit is valid with probability >= 1/2, so
Theorem 2's step bound degrades by at most a constant factor, and the
attachments are always stitchable.  In portless mode every edge lives
on port 0 and every hit is valid — exactly Algorithm 1 as printed.

Wire contract
-------------
Every walk message payload is ``(kind, *fields, vsender)`` where
``vsender`` is the immediate virtual sender; the walk builds it.  A
physical walk sends it straight to its neighbours (a tree flood goes
out with one ``Context.multicast``); a virtual walk hands it to the
host's injected ``send`` fabric.  For progress messages the field
``my_port`` (which port of the receiver was hit) is filled in by the
receiving side's fabric in ported mode.

Kinds (suffix after the instance prefix):

====== =====================================  ==========================
``p``  progress(step, pos, sender_port,       head -> random unused edge
       my_port)                               (Algorithm 1, l.7-10)
``y``  retry(step)                            invalid ported hit -> head
``r``  rotation(step, h, j, start_round)      tree flood (l.16-20, Fig 2)
``w``  win()                                  tree flood: success (l.12)
``f``  fail(code)                             tree flood: abort
====== =====================================  ==========================
"""

from __future__ import annotations

from typing import Callable

from repro.congest.message import Message
from repro.congest.node import Context
from repro.primitives.submachine import _SUFFIX_OF, SubMachine, _resolve_suffix

__all__ = [
    "RotationWalk",
    "VirtualEdge",
    "FAIL_NO_EDGES",
    "FAIL_BUDGET",
    "FAIL_TOO_SMALL",
    "FAIL_CORRUPT",
]

FAIL_NO_EDGES = 1
FAIL_BUDGET = 2
FAIL_TOO_SMALL = 3
#: Local state contradicted the protocol invariants.  Unreachable in a
#: fault-free execution (the integration suite exercises that); reached
#: only under failure injection (dropped renumbering floods can leave
#: stale ``cycindex`` values), where it downgrades a would-be crash into
#: an observable clean failure.
FAIL_CORRUPT = 4

_NO_PORT = 0


def _send_direct(ctx: Context, edge: "VirtualEdge", kind: str, *fields: int) -> None:
    """The transport of a physical walk: the virtual edge is the physical one."""
    ctx.send(edge.peer, kind, *fields)


class VirtualEdge:
    """One usable realization of a virtual edge, as seen from one side.

    ``peer`` is the virtual neighbour; ``my_port`` / ``peer_port``
    identify the physical endpoints realizing the edge (always 0 in
    portless mode).  Hypernode pairs connected by several physical
    edges contribute one :class:`VirtualEdge` per realization.
    """

    __slots__ = ("peer", "my_port", "peer_port")

    def __init__(self, peer: int, my_port: int = _NO_PORT, peer_port: int = _NO_PORT):
        self.peer = peer
        self.my_port = my_port
        self.peer_port = peer_port

    def __repr__(self) -> str:
        return f"VirtualEdge({self.peer}, my_port={self.my_port}, peer_port={self.peer_port})"


class RotationWalk(SubMachine):
    """Per-participant state machine of the rotation walk.

    Results (valid once ``done``): ``success``, ``fail_code``,
    ``cycindex`` (1-based path position — the paper's ``cycindex``),
    ``pred`` / ``succ`` (cycle neighbours, virtual ids),
    ``pred_port`` / ``succ_port`` (stitching info in ported mode),
    ``steps_seen`` (Theorem 2's step count, as observed locally).
    """

    def __init__(
        self,
        prefix: str,
        vid: int,
        edges: list[VirtualEdge],
        *,
        tree_neighbors: list[int],
        tree_depth: int,
        size: int,
        is_initial_head: bool,
        step_budget: int,
        send: Callable[..., None] | None = None,
        latency: int = 1,
        ported: bool = False,
    ):
        super().__init__()
        self.PREFIX = prefix
        self.vid = vid
        self.edges = list(edges)
        # A copy: the audit counts a list shared with the BFS machine once.
        self.tree_peers = list(tree_neighbors)
        self.tree_depth = tree_depth
        self.size = size
        self.is_initial_head = is_initial_head
        self.step_budget = step_budget
        self.latency = max(1, latency)
        self.ported = ported
        # ``send(ctx, edge, kind, *fields)``: a virtual walk's fabric;
        # a physical walk (``send=None``) sends to its neighbours.
        self._send = send if send is not None else _send_direct

        self.success = False
        self.fail_code = 0
        self.cycindex = 0
        self.pred = -1
        self.succ = -1
        self.pred_port = _NO_PORT
        self.succ_port = _NO_PORT
        self.pred_peer_port = _NO_PORT
        self.succ_peer_port = _NO_PORT
        self.free_port: int | None = None  # open port at the head / the tail
        self.steps_seen = 0

        self._dead: set[tuple[int, int, int]] = set()
        self._is_head = False
        self._last_progress: VirtualEdge | None = None
        self._pending_head_round = -1

    # -- lifecycle -------------------------------------------------------------

    def begin(self, ctx: Context) -> None:
        if not self.is_initial_head:
            return
        if self.size < 3:
            self._abort(ctx, FAIL_TOO_SMALL)
            return
        self.cycindex = 1
        self._is_head = True
        self.free_port = None  # both ports open until the first edge binds
        self._progress(ctx, 1)

    def on_messages(self, ctx: Context, messages: list[Message]) -> None:
        suffix_of = _SUFFIX_OF
        for _, payload in messages:
            if self.done:
                return
            kind = payload[0]
            suffix = suffix_of.get(kind) or _resolve_suffix(kind)
            vsender = payload[-1]
            if suffix == "r":  # the bulk of the traffic: renumbering floods
                peers = self.tree_peers
                if self._send is not _send_direct:
                    self._forward(ctx, payload, vsender)
                elif len(peers) != 1 or peers[0] != vsender:
                    # Not a leaf, whose flood came from its one tree
                    # neighbour: pass it on with one multicast.
                    ctx.multicast(peers, payload[:-1] + (self.vid,), vsender)
                self._on_rotation(ctx, *payload[1:-1])
            elif suffix == "p":
                self._on_progress(ctx, vsender, *payload[1:-1])
            elif suffix == "y":
                self._on_retry(ctx, payload[1])
            elif suffix == "w":
                self._forward(ctx, payload, vsender)
                self._finish(True)
            elif suffix == "f":
                self._forward(ctx, payload, vsender)
                self._finish(False, payload[1])

    def on_wake(self, ctx: Context) -> None:
        # Post-rotation quiescence wait is over: act as the new head.
        if self._is_head and ctx.round_index >= self._pending_head_round:
            self._progress(ctx, self.steps_seen + 1)

    # -- head behaviour ----------------------------------------------------------

    def _progress(self, ctx: Context, step: int) -> None:
        """Pick a random unused edge at the free port and advance (l.7-10)."""
        if step > self.step_budget:
            self._abort(ctx, FAIL_BUDGET)
            return
        dead, free_port = self._dead, self.free_port
        usable = [
            e for e in self.edges
            if (e.peer, e.my_port, e.peer_port) not in dead
            and (free_port is None or e.my_port == free_port)
        ]
        if not usable:
            self._abort(ctx, FAIL_NO_EDGES)
            return
        edge = usable[int(ctx.rng.integers(len(usable)))]
        dead.add((edge.peer, edge.my_port, edge.peer_port))
        self._last_progress = edge
        self.steps_seen = step
        # Optimistic successor binding; corrected on rotation or retry.
        self.succ = edge.peer
        self.succ_port = edge.my_port
        self.succ_peer_port = edge.peer_port
        if self.free_port is None:  # initial head binding its first edge
            self.free_port = _other_port(edge.my_port) if self.ported else _NO_PORT
        self._send(ctx, edge, *self._payload("p", step, self.cycindex, edge.my_port, _NO_PORT))

    def _on_retry(self, ctx: Context, step: int) -> None:
        if not self._is_head or self.done:
            return
        self.succ = -1
        self.succ_port = _NO_PORT
        self.succ_peer_port = _NO_PORT
        self._progress(ctx, step + 1)

    def _abort(self, ctx: Context, code: int) -> None:
        self._flood(ctx, self._payload("f", code))
        self._finish(False, code)

    # -- receiving a progress ------------------------------------------------------

    def _on_progress(self, ctx: Context, vsender: int, step: int, pos: int,
                     sender_port: int, my_port: int) -> None:
        self._dead.add((vsender, my_port, sender_port))
        self.steps_seen = max(self.steps_seen, step)

        if self.cycindex == 0:
            # Extension (l.14-15): join the path and become the head.
            self.cycindex = pos + 1
            self.pred = vsender
            self.pred_port = my_port
            self.pred_peer_port = sender_port
            self._is_head = True
            self.free_port = _other_port(my_port) if self.ported else _NO_PORT
            self._progress(ctx, step + 1)
            return

        tail = self.cycindex == 1
        tail_open_hit = tail and (not self.ported or my_port == self.free_port)
        if tail_open_hit and pos == self.size:
            # Closure (l.12): the full path reached the start's open port.
            self.pred = vsender
            self.pred_port = my_port
            self.pred_peer_port = sender_port
            self._flood(ctx, self._payload("w", 0))
            self._finish(True)
            return
        if self.ported and not tail and my_port != self.succ_port:
            # The hit port is bound toward our predecessor; freeing it
            # would disconnect the path prefix.  Discard and retry.
            self._send(ctx, VirtualEdge(vsender, my_port, sender_port), *self._payload("y", step))
            return

        # Rotation (l.16-17): we are v_j, the sender is the head v_h.
        # Our successor edge (v_j, v_{j+1}) is removed; the new edge
        # binds at the hit port.  For the tail both ports are legal and
        # whichever is not hit stays/becomes the open tail port.
        self.succ = vsender
        self.succ_port = my_port
        self.succ_peer_port = sender_port
        if tail and self.ported:
            self.free_port = _other_port(my_port)
        start = ctx.round_index
        self._flood(ctx, self._payload("r", step, pos, self.cycindex, start))

    # -- rotation renumbering (Fig. 2) ----------------------------------------------

    def _on_rotation(self, ctx: Context, step: int, h: int, j: int, start: int) -> None:
        if step > self.steps_seen:
            self.steps_seen = step
        ci = self.cycindex
        if not (j < ci <= h):
            return  # off-segment (incl. off-path and the initiator v_j)

        self.cycindex = h + j + 1 - ci
        if ci == h and self._last_progress is None:
            self._abort(ctx, FAIL_CORRUPT)
            return
        if ci == h and ci == j + 1:
            # Degenerate single-node segment: the head hit its own
            # predecessor through a second realization.  Its pred edge
            # re-binds to the freshly used edge; it remains the head.
            freed = self.pred_port
            self.pred = self._last_progress.peer
            self.pred_port = self._last_progress.my_port
            self.pred_peer_port = self._last_progress.peer_port
            self.succ, self.succ_port, self.succ_peer_port = -1, _NO_PORT, _NO_PORT
            self.free_port = freed if self.ported else _NO_PORT
            self._become_head(ctx, start)
        elif ci == h:
            # v_h: its proposed edge became a path edge; the old
            # predecessor is now its successor (segment reversed).
            self.succ, self.pred = self.pred, self._last_progress.peer
            self.succ_port, self.pred_port = self.pred_port, self._last_progress.my_port
            self.succ_peer_port, self.pred_peer_port = (
                self.pred_peer_port, self._last_progress.peer_port)
            self._is_head = False
        elif ci == j + 1:
            # v_{j+1}: the removed edge frees its pred-side port; it is
            # the new head.
            freed = self.pred_port
            self.pred, self.pred_port = self.succ, self.succ_port
            self.pred_peer_port = self.succ_peer_port
            self.succ, self.succ_port, self.succ_peer_port = -1, _NO_PORT, _NO_PORT
            self.free_port = freed if self.ported else _NO_PORT
            self._become_head(ctx, start)
        else:
            # Interior of the reversed segment: roles swap.
            self.pred, self.succ = self.succ, self.pred
            self.pred_port, self.succ_port = self.succ_port, self.pred_port
            self.pred_peer_port, self.succ_peer_port = (
                self.succ_peer_port, self.pred_peer_port)

    def _become_head(self, ctx: Context, flood_start: int) -> None:
        self._is_head = True
        wait = 2 * self.tree_depth * self.latency + 2
        self._pending_head_round = max(flood_start + wait, ctx.round_index + 1)
        self.schedule(ctx, self._pending_head_round)

    # -- sending ----------------------------------------------------------------------

    def _payload(self, suffix: str, *fields: int) -> tuple:
        """The wire payload ``(kind, *fields, vid)`` of a message this walk starts."""
        return (self.kind(suffix), *fields, self.vid)

    def _flood(self, ctx: Context, payload: tuple, skip: int = -1) -> None:
        """Send ``payload`` to every tree neighbour but ``skip``."""
        if self._send is _send_direct:  # physical: the fan-out is one call
            ctx.multicast(self.tree_peers, payload, skip)
            return
        for peer in self.tree_peers:
            if peer != skip:
                self._send(ctx, VirtualEdge(peer), *payload)

    def _forward(self, ctx: Context, payload: tuple, vsender: int) -> None:
        """Pass a received flood on to the other tree neighbours."""
        peers = self.tree_peers
        if len(peers) == 1 and peers[0] == vsender:
            return  # a leaf: the flood came from its one tree neighbour
        self._flood(ctx, payload[:-1] + (self.vid,), vsender)

    # -- termination --------------------------------------------------------------------

    def _finish(self, success: bool, code: int = 0) -> None:
        self.success = success
        self.fail_code = code
        self.failed = not success
        self.done = True


def _other_port(port: int) -> int:
    return 1 - port
