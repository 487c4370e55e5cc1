"""One merge level of DHC2 Phase 2 (Algorithm 3 lines 5-19, Fig. 3).

At level ``l`` the surviving cycles are paired by colour — active
(odd colour) with the next colour up — and each pair merges through one
*bridge*: cycle edges ``(v, u=succ(v))`` in the active cycle and
``(w, w')`` in the passive one such that ``(v, w)`` and ``(u, w')`` are
graph edges.  Removing the two cycle edges and inserting the two bridge
edges splices the cycles into one.  Both bridge orientations are valid —
the passive cycle is simply traversed in whichever direction the bridge
dictates — which is why this merge, unlike DHC1's fixed-port
hypernodes, can never produce an unstitchable configuration.

Distributed realisation (kinds in this machine's namespace):

======  ===========================================  ===================
``v``   verify(u)                                    active -> partner-
                                                     colour neighbours
                                                     (l.7)
``k``   ask(u)                                       passive -> its own
                                                     cycle succ & pred
                                                     (l.15)
``n``   answer(u, yes)                               adjacency answer
``d``   verdict(found, b, w', dir, sB)               passive -> asker
                                                     (l.16)
``r``   report(found, v, a, u, w, b, w', dir, sB)    min-convergecast up
                                                     the active tree
                                                     (l.9-11)
``w``   win(v, a, u, w, w', sB, dir)                 active-tree flood:
                                                     chosen bridge (l.11)
``f``   fail()                                       active-tree flood
``b``   build(a, sA, w', dir, u)                     v -> w (l.12, 17)
``i``   info(b, dir, sA, w', u)                      passive-tree flood
                                                     (l.18)
======  ===========================================  ===================

All sends go through the host's paced out-queue, so concurrent
sub-activities (pipelined asks, convergecast, floods) share edges
without violating the one-message-per-edge CONGEST rule; the queue adds
at most O(1) rounds of delay per hop.

Selection is deterministic: a passive node prefers ``w' = succ(w)``
over ``pred(w)``; an active node keeps the verdict with the smallest
``w``; the convergecast keeps the candidate with the smallest
``(v, w)``.  (Ablation A1 revisits these rules.)  Determinism is what
lets the fast engine replay identical merges.

Renumbering (this reproduction's derivation): the merged cycle starts at ``w``
(new index 1), walks the passive cycle away from ``w'``, crosses
``w' -> u``, walks the active cycle forward, and closes ``v -> w``:

* passive node at old index ``y``:
  ``dir == DIR_SUCC`` (``w' = succ(w)``, reversed traversal):
  ``1 + ((b - y) mod sB)``, pred/succ swap;
  ``dir == DIR_PRED``: ``1 + ((y - b) mod sB)``, orientation kept;
* active node at old index ``x``: ``sB + 1 + ((x - (a+1)) mod sA)``;
* bridge fixups: ``v.succ = w``, ``w.pred = v``, ``w'.succ = u``,
  ``u.pred = w'``.
"""

from __future__ import annotations

from typing import Callable

from repro.congest.message import Message
from repro.congest.node import Context
from repro.primitives.submachine import _SUFFIX_OF, SubMachine, _resolve_suffix

__all__ = ["MergeMachine", "DIR_SUCC", "DIR_PRED"]

DIR_SUCC = 0  # w' = succ(w): passive cycle is traversed reversed
DIR_PRED = 1  # w' = pred(w): passive cycle keeps its orientation

_NONE_REPORT = (0, 0, 0, 0, 0, 0, 0, 0, 0)


class MergeMachine(SubMachine):
    """Per-node state machine for one merge level.

    Results (once ``done``): ``merged`` (did my cycle grow), ``failed``
    (no bridge — the host aborts globally), and the updated cycle state
    ``new_cycindex`` / ``new_succ`` / ``new_pred`` / ``new_size``.
    """

    def __init__(
        self,
        prefix: str,
        *,
        node_id: int,
        role: str,  # "active" | "passive" | "idle"
        cycindex: int,
        succ: int,
        pred: int,
        cycle_size: int,
        tree_neighbors: list[int],
        is_root: bool,
        tree_children_count: int,
        cross_neighbors: list[int],
        send: Callable[..., None],
        is_graph_neighbor: Callable[[int], bool],
    ):
        super().__init__()
        self.PREFIX = prefix
        self.node_id = node_id
        self.role = role
        self.cycindex = cycindex
        self.succ = succ
        self.pred = pred
        self.cycle_size = cycle_size
        self.tree_neighbors = tree_neighbors
        self.is_root = is_root
        self.tree_children_count = tree_children_count
        self.cross_neighbors = cross_neighbors
        self._send = send
        self._adjacent = is_graph_neighbor

        self.merged = False
        self.new_cycindex = cycindex
        self.new_succ = succ
        self.new_pred = pred
        self.new_size = cycle_size

        # Active-side bookkeeping.
        self._verdicts_expected = len(cross_neighbors)
        self._verdicts_seen = 0
        self._best: tuple | None = None  # (v, a, u, w, b, wp, dir, sB)
        self._child_reports = 0
        self._reported = False

        # Passive-side bookkeeping.
        self._queries: dict[int, dict] = {}  # u -> {"asker", "answers"}

    # -- lifecycle ---------------------------------------------------------------

    def begin(self, ctx: Context) -> None:
        if self.role == "idle":
            self.done = True
            return
        if self.role == "active":
            for peer in self.cross_neighbors:
                self._send(ctx, peer, self.kind("v"), self.succ)
            self._maybe_report(ctx)

    def on_messages(self, ctx: Context, messages: list[Message]) -> None:
        suffix_of = _SUFFIX_OF
        for message in messages:
            if self.done:
                return
            kind = message[1][0]
            _HANDLERS[suffix_of.get(kind) or _resolve_suffix(kind)](self, ctx, message)

    # -- passive side ---------------------------------------------------------------

    def _on_v(self, ctx: Context, message: Message) -> None:
        """verify(u): start the succ/pred adjacency queries (l.15)."""
        u = message.payload[1]
        self._queries[u] = {"asker": message.sender, "answers": {}}
        self._send(ctx, self.succ, self.kind("k"), u)
        self._send(ctx, self.pred, self.kind("k"), u)

    def _on_k(self, ctx: Context, message: Message) -> None:
        """ask(u): answer from our static graph adjacency."""
        u = message.payload[1]
        self._send(ctx, message.sender, self.kind("n"), u, int(self._adjacent(u)))

    def _on_n(self, ctx: Context, message: Message) -> None:
        """answer(u, yes): combine both answers into a verdict (l.16)."""
        u, yes = message.payload[1], message.payload[2]
        query = self._queries.get(u)
        if query is None:
            return
        query["answers"][message.sender] = bool(yes)
        if len(query["answers"]) < 2:
            return
        if query["answers"].get(self.succ):
            found, wp, direction = 1, self.succ, DIR_SUCC
        elif query["answers"].get(self.pred):
            found, wp, direction = 1, self.pred, DIR_PRED
        else:
            found, wp, direction = 0, 0, 0
        self._send(ctx, query["asker"], self.kind("d"),
                   found, self.cycindex, wp, direction, self.cycle_size)
        del self._queries[u]

    def _on_b(self, ctx: Context, message: Message) -> None:
        """build(a, sA, w', dir, u): we are w — splice and tell our cycle."""
        a, s_a, wp, direction, u = message.payload[1:6]
        self._flood(ctx, "i", self.cycindex, direction, s_a, wp, u)
        self._apply_passive(b=self.cycindex, direction=direction, s_a=s_a,
                            wp=wp, u=u, bridge_pred=message.sender)

    def _on_i(self, ctx: Context, message: Message) -> None:
        """info flood: renumber the passive cycle (l.18)."""
        fields = message.payload[1:-1]
        self._forward_flood(ctx, message, "i", fields)
        b, direction, s_a, wp, u = fields
        self._apply_passive(b=b, direction=direction, s_a=s_a, wp=wp, u=u,
                            bridge_pred=None)

    # -- active side -------------------------------------------------------------------

    def _on_d(self, ctx: Context, message: Message) -> None:
        """verdict(found, b, w', dir, sB): collect and minimise (l.9)."""
        self._verdicts_seen += 1
        found, b, wp, direction, s_b = message.payload[1:6]
        if found:
            candidate = (self.node_id, self.cycindex, self.succ,
                         message.sender, b, wp, direction, s_b)
            if self._best is None or candidate[3] < self._best[3]:
                self._best = candidate
        self._maybe_report(ctx)

    def _on_r(self, ctx: Context, message: Message) -> None:
        """report from a tree child: min-convergecast (l.10-11)."""
        self._child_reports += 1
        if message.payload[1]:
            candidate = tuple(message.payload[2:10])
            if self._best is None or (candidate[0], candidate[3]) < (self._best[0], self._best[3]):
                self._best = candidate
        self._maybe_report(ctx)

    def _maybe_report(self, ctx: Context) -> None:
        if self._reported or self.role != "active":
            return
        if self._verdicts_seen < self._verdicts_expected:
            return
        if self._child_reports < self.tree_children_count:
            return
        self._reported = True
        if self.is_root:
            self._decide(ctx)
            return
        parent = self.tree_neighbors[-1]
        if self._best is None:
            self._send(ctx, parent, self.kind("r"), *_NONE_REPORT)
        else:
            self._send(ctx, parent, self.kind("r"), 1, *self._best)

    def _decide(self, ctx: Context) -> None:
        if self._best is None:
            self._flood(ctx, "f")
            self.failed = True
            self.done = True
            return
        v, a, u, w, b, wp, direction, s_b = self._best
        self._flood(ctx, "w", v, a, u, w, wp, s_b, direction)
        self._apply_active(v=v, a=a, u=u, w=w, wp=wp, s_b=s_b, direction=direction, ctx=ctx)

    def _on_w(self, ctx: Context, message: Message) -> None:
        fields = message.payload[1:-1]
        self._forward_flood(ctx, message, "w", fields)
        v, a, u, w, wp, s_b, direction = fields
        self._apply_active(v=v, a=a, u=u, w=w, wp=wp, s_b=s_b, direction=direction, ctx=ctx)

    def _on_f(self, ctx: Context, message: Message) -> None:
        self._forward_flood(ctx, message, "f", ())
        self.failed = True
        self.done = True

    # -- state transitions ---------------------------------------------------------------

    def _apply_active(self, *, v: int, a: int, u: int, w: int, wp: int,
                      s_b: int, direction: int, ctx: Context) -> None:
        s_a = self.cycle_size
        self.new_cycindex = s_b + 1 + ((self.cycindex - (a + 1)) % s_a)
        self.new_size = s_a + s_b
        self.new_succ, self.new_pred = self.succ, self.pred
        if self.node_id == v:
            self.new_succ = w
            self._send(ctx, w, self.kind("b"), a, s_a, wp, direction, u)
        if self.node_id == u:
            self.new_pred = wp
        self.merged = True
        self.done = True

    def _apply_passive(self, *, b: int, direction: int, s_a: int,
                       wp: int, u: int, bridge_pred: int | None) -> None:
        s_b = self.cycle_size
        y = self.cycindex
        if direction == DIR_SUCC:
            self.new_cycindex = 1 + ((b - y) % s_b)
            self.new_pred, self.new_succ = self.succ, self.pred  # reversed
        else:
            self.new_cycindex = 1 + ((y - b) % s_b)
            self.new_pred, self.new_succ = self.pred, self.succ
        if bridge_pred is not None:  # we are w (new index 1): pred is v
            self.new_pred = bridge_pred
        if self.node_id == wp:  # w': the bridge continues to u
            self.new_succ = u
        self.new_size = s_a + s_b
        self.merged = True
        self.done = True

    # -- flood helpers ------------------------------------------------------------------

    def _flood(self, ctx: Context, suffix: str, *fields: int) -> None:
        kind = self.kind(suffix)
        for peer in self.tree_neighbors:
            self._send(ctx, peer, kind, *fields, self.node_id)

    def _forward_flood(self, ctx: Context, message: Message, suffix: str, fields: tuple) -> None:
        origin = message.payload[-1]
        kind = self.kind(suffix)
        for peer in self.tree_neighbors:
            if peer != origin:
                self._send(ctx, peer, kind, *fields, self.node_id)


#: Message suffix -> handler, so a message costs no attribute-name string.
_HANDLERS = {suffix: getattr(MergeMachine, f"_on_{suffix}") for suffix in "vknbidrwf"}
