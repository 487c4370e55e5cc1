"""Leader election by min-id flooding with a round budget.

Every participant repeatedly forwards the smallest id it has heard of;
after ``budget`` rounds the unique node whose own id equals its current
minimum declares itself leader.  In a connected participant subgraph the
true minimum reaches every node within diameter rounds, so any budget
strictly larger than the diameter elects exactly one leader.

The paper leaves leader election to standard machinery ("Elect a leader
... takes O(D) rounds", Section III-A); for random (sub)graphs the round
budget comes from the whp diameter bounds in
:mod:`repro.analysis.bounds`.  An under-provisioned budget can only make
the downstream algorithm *fail visibly* (two leaders -> the final
Hamiltonian-cycle verification fails), never return a wrong cycle
silently — and failures are exactly what the success-probability
experiment (E6) measures.
"""

from __future__ import annotations

from repro.congest.message import Message
from repro.congest.node import Context
from repro.primitives.submachine import SubMachine

__all__ = ["FloodMin"]


class FloodMin(SubMachine):
    """Min-id flooding over a fixed participant neighbour set.

    Parameters
    ----------
    prefix:
        Message namespace (lets several instances coexist).
    peers:
        The adjacent participants of this election (e.g. the neighbours
        sharing this node's colour); flooding is restricted to them.
    budget:
        Rounds of flooding before the result is declared.  Must exceed
        the participant subgraph's diameter for a unique leader.

    Results (valid once ``done``)
    -----------------------------
    ``leader`` — smallest id heard; ``is_leader`` — whether we won.
    """

    def __init__(self, prefix: str, peers: list[int], budget: int):
        super().__init__()
        self.PREFIX = prefix
        self.peers = peers
        self.budget = max(1, budget)
        self.leader = -1
        self.is_leader = False
        self._best = -1
        self._deadline = -1

    def begin(self, ctx: Context) -> None:
        self._best = ctx.node_id
        self._deadline = ctx.round_index + self.budget
        ctx.multicast(self.peers, (self.kind("m"), self._best))
        self.schedule(ctx, self._deadline)

    def on_messages(self, ctx: Context, messages: list[Message]) -> None:
        best_heard = min([payload[1] for _sender, payload in messages])
        if best_heard < self._best:
            self._best = best_heard
            if ctx.round_index < self._deadline:
                ctx.multicast(self.peers, (self.kind("m"), self._best))

    def on_wake(self, ctx: Context) -> None:
        self.leader = self._best
        self.is_leader = self._best == ctx.node_id
        self.done = True
