"""Distributed BFS spanning-tree construction with termination detection.

Builds a BFS tree rooted at a designated participant, over an arbitrary
participant subgraph (each node passes the subset of its neighbours that
take part — e.g. its colour class in DHC1/DHC2 Phase 1).  The protocol
is the textbook layered construction plus a done-convergecast, and ends
with a commit broadcast so *every* participant learns the tree depth and
participant count:

* ``e`` (explore): sent by every joined node to all non-parent peers.
  First explore(s) received -> join, parent = smallest sender.
* ``a`` (accept): tells the parent it gained a child.  A peer's own
  explore doubles as an implicit reject, so no reject messages exist.
* ``d`` (done): convergecast; carries subtree size and height.  A node
  reports done once all non-parent peers responded and all children
  reported done.
* ``c`` (commit): broadcast from the root down the finished tree with
  the tree depth and size; receiving it completes the machine.

Rounds: O(diameter) for construction + O(depth) for the convergecast
and commit.  The tree is the broadcast backbone for the rotation and
merge phases: this reproduction floods their renumberings over tree
edges, which costs at most ``2 * tree_depth`` rounds from an arbitrary
initiator.

Failure: participants outside the root's component (possible when a
random partition is disconnected — one of the whp failure events the
paper's Lemma 5 bounds) never join; a deadline wake turns that into an
explicit ``failed`` flag that the host surfaces honestly.
"""

from __future__ import annotations

from repro.congest.message import Message
from repro.congest.node import Context
from repro.primitives.submachine import _SUFFIX_OF, SubMachine, _resolve_suffix

__all__ = ["BfsTree"]


def _direct_transport():
    """A fresh default sender: one ``ctx.send`` per message.

    Each tree gets its own function object, since the memory audit
    counts a shared one once per node; all of them share one code
    object, which is how a tree recognises its direct transport and
    fans out with one ``ctx.multicast`` instead.
    """
    return lambda ctx, dest, kind, *fields: ctx.send(dest, kind, *fields)


_DIRECT = _direct_transport().__code__


class BfsTree(SubMachine):
    """BFS-tree construction over a participant subgraph.

    Parameters
    ----------
    prefix:
        Message namespace.
    peers:
        Participating neighbours of this node.
    is_root:
        Whether this node is the designated root.
    deadline:
        Absolute round by which the commit must have arrived; reaching
        it first sets ``failed`` (disconnected participants).

    Results (valid once ``done`` and not ``failed``)
    ------------------------------------------------
    ``parent`` (-1 at root), ``children``, ``depth`` (own level),
    ``tree_depth`` (max level), ``size`` (participant count),
    ``tree_neighbors`` (children + parent — the broadcast backbone).
    """

    def __init__(self, prefix: str, peers: list[int], *, is_root: bool, deadline: int,
                 send=None, tie_break: str = "min"):
        super().__init__()
        self.PREFIX = prefix
        self.peers = peers
        self.is_root = is_root
        self.deadline = deadline
        # Injectable transport: hosts with concurrent sub-activities pass
        # their paced out-queue so BFS traffic never collides on edges.
        self._send = send if send is not None else _direct_transport()
        if tie_break not in ("min", "random"):
            raise ValueError(f"tie_break must be 'min' or 'random', got {tie_break!r}")
        # "min" is deterministic (the fast engine mirrors it); "random"
        # picks uniformly among shallowest offers, which is what keeps
        # subtree sizes balanced (Lemma 18) — the Upcast pipeline's
        # bottleneck is the largest subtree, so it uses "random".
        self.tie_break = tie_break
        self.parent = -1
        self.children: list[int] = []
        self.depth = -1
        self.tree_depth = -1
        self.size = -1
        self.tree_neighbors: list[int] = []
        self.max_load = 1
        self._responded: set[int] = set()
        self._done_children: dict[int, tuple[int, int, int]] = {}
        self._sent_done = False
        self._joined_round = -1

    # -- lifecycle -------------------------------------------------------------

    def begin(self, ctx: Context) -> None:
        self.schedule(ctx, self.deadline)
        if self.is_root:
            self.depth = 0
            self._fan_out(ctx, self.peers, (self.kind("e"), 0))
            self._maybe_report(ctx)

    def on_messages(self, ctx: Context, messages: list[Message]) -> None:
        suffix_of = _SUFFIX_OF
        responded = self._responded
        explores = []
        commit = None
        for message in messages:
            sender, payload = message
            kind = payload[0]
            suffix = suffix_of.get(kind) or _resolve_suffix(kind)
            if suffix == "e":
                # Any explore shows the sender joined elsewhere: implicit reject.
                responded.add(sender)
                explores.append(message)
            elif suffix == "a":
                self.children.append(sender)
                responded.add(sender)
            elif suffix == "d":
                self._done_children[sender] = payload[1:4]
            elif suffix == "c" and commit is None:
                commit = payload
        if explores and self.depth < 0:
            self._join(ctx, explores)
        if commit is not None:
            self._commit(ctx, commit)
            return
        if self.depth >= 0 and self._joined_round != ctx.round_index:
            self._maybe_report(ctx)

    def on_wake(self, ctx: Context) -> None:
        if self.done:
            return
        if ctx.round_index >= self.deadline:
            self.failed = True
            self.done = True
        elif self.depth >= 0:
            self._maybe_report(ctx)

    # -- internals ---------------------------------------------------------------

    def _join(self, ctx: Context, explores: list[Message]) -> None:
        # Prefer the shallowest offer; explores of different depths can
        # share a round when hosts activate asynchronously.
        min_depth = min(m.payload[1] for m in explores)
        offers = [m for m in explores if m.payload[1] == min_depth]
        if self.tie_break == "min":
            best = min(offers, key=lambda m: m.sender)
        else:
            best = offers[int(ctx.rng.integers(len(offers)))]
        parent = best.sender
        self.parent = parent
        self.depth = best.payload[1] + 1
        # The accept uses the parent edge this round; the done-report (if
        # we turn out to be a leaf) must wait for the next one.
        self._joined_round = ctx.round_index
        self.schedule(ctx, ctx.round_index + 1)
        self._send(ctx, parent, self.kind("a"))
        self._fan_out(ctx, self.peers, (self.kind("e"), self.depth), parent)

    def _maybe_report(self, ctx: Context) -> None:
        if self._sent_done:
            return
        outstanding = [p for p in self.peers if p != self.parent and p not in self._responded]
        if outstanding or set(self._done_children) != set(self.children):
            return
        subtree_size = 1 + sum(s for s, _h, _l in self._done_children.values())
        height = 1 + max((h for _s, h, _l in self._done_children.values()), default=-1)
        load = max(
            len(self.children) + 1,
            max((l for _s, _h, l in self._done_children.values()), default=1),
        )
        self._sent_done = True
        if self.is_root:
            self.tree_depth = height
            self.size = subtree_size
            self.max_load = load
            self._finish(ctx)
        else:
            self._send(ctx, self.parent, self.kind("d"), subtree_size, height, load)

    def _commit(self, ctx: Context, payload: tuple) -> None:
        self.tree_depth = payload[1]
        self.size = payload[2]
        self.max_load = payload[3]
        self._finish(ctx)

    def _finish(self, ctx: Context) -> None:
        self._fan_out(ctx, self.children,
                      (self.kind("c"), self.tree_depth, self.size, self.max_load))
        self.children.sort()
        self.tree_neighbors = self.children + ([self.parent] if self.parent >= 0 else [])
        self.done = True

    def _fan_out(self, ctx: Context, peers: list[int], payload: tuple, skip: int = -1) -> None:
        """Send ``payload`` to every peer but ``skip``, in ``peers`` order.

        On the direct transport that is one ``ctx.multicast``; an
        injected transport (a paced queue, a virtual fabric) gets one
        call per message.
        """
        if getattr(self._send, "__code__", None) is _DIRECT:
            ctx.multicast(peers, payload, skip)
            return
        for peer in peers:
            if peer != skip:
                self._send(ctx, peer, *payload)
