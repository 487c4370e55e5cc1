"""A reusable global barrier over a pre-built spanning tree.

DHC1's hypernode construction needs two whole-network synchronisation
points (every partition must finish announcing its ports before any
hypernode can enumerate its virtual neighbours, and every holder must
finish assembling its edge list before the virtual BFS may start).
This machine implements the textbook tree barrier: a readiness
convergecast up a global BFS tree followed by a "go" broadcast down it.

Each node calls :meth:`mark_ready` once its local condition holds; the
machine completes (``done``) when the root's "go" arrives, a constant
number of tree depths later.
"""

from __future__ import annotations

from typing import Callable

from repro.congest.message import Message
from repro.congest.node import Context
from repro.primitives.submachine import _SUFFIX_OF, SubMachine, _resolve_suffix

__all__ = ["Barrier"]


class Barrier(SubMachine):
    """Tree barrier: readiness convergecast + go broadcast.

    Parameters: the global tree as seen from this node (``parent`` is -1
    at the root, ``children`` the tree children), and an injectable
    ``send`` for hosts that pace their traffic.
    """

    def __init__(self, prefix: str, *, parent: int, children: list[int],
                 send: Callable[..., None] | None = None):
        super().__init__()
        self.PREFIX = prefix
        self.parent = parent
        self.children = children
        self._send = send if send is not None else (
            lambda ctx, dest, kind, *f: ctx.send(dest, kind, *f))
        self._ready = False
        self._child_reports = 0
        self._reported = False

    def begin(self, ctx: Context) -> None:
        self._maybe_report(ctx)

    def mark_ready(self, ctx: Context) -> None:
        """Local condition satisfied; propagate when the subtree agrees."""
        self._ready = True
        self._maybe_report(ctx)

    def on_messages(self, ctx: Context, messages: list[Message]) -> None:
        suffix_of = _SUFFIX_OF
        for _sender, payload in messages:
            suffix = suffix_of.get(payload[0]) or _resolve_suffix(payload[0])
            if suffix == "r":
                self._child_reports += 1
            elif suffix == "g":
                self._go(ctx)
                return
        self._maybe_report(ctx)

    def _maybe_report(self, ctx: Context) -> None:
        if self._reported or not self._ready:
            return
        if self._child_reports < len(self.children):
            return
        self._reported = True
        if self.parent < 0:
            self._go(ctx)
        else:
            self._send(ctx, self.parent, self.kind("r"))

    def _go(self, ctx: Context) -> None:
        kind = self.kind("g")
        for child in self.children:
            self._send(ctx, child, kind)
        self.done = True
