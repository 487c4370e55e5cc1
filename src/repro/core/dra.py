"""Standalone distributed DRA: Algorithm 1 run on a whole graph.

This is Theorem 2's setting — one rotation walk over the entire network
(the building block that DHC1/DHC2 Phase 1 runs per partition).  The
protocol stacks the standard setup on top of the walk:

1. flood-min leader election (the "only one v becomes head" init of
   Algorithm 1, line 5);
2. BFS spanning tree from the leader — the broadcast backbone for
   rotation renumbering (a reproduction choice, see
   :mod:`repro.core.rotation`);
3. the :class:`~repro.core.rotation.RotationWalk` itself.

``run_dra`` wraps the whole thing into one call returning a
:class:`~repro.engines.results.RunResult`.
"""

from __future__ import annotations

from repro.analysis.bounds import bfs_deadline, diameter_budget, dra_round_budget, dra_step_budget
from repro.congest.message import Message
from repro.congest.model import run_protocol
from repro.congest.node import Context, Protocol
from repro.core.rotation import RotationWalk, VirtualEdge
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.primitives.bfs import BfsTree
from repro.primitives.floodmin import FloodMin
from repro.primitives.submachine import SubMachineHost
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["DraProtocol", "run_dra"]

_STAGE_ELECT = 0
_STAGE_BFS = 1
_STAGE_WALK = 2
_STAGE_DONE = 3


class DraProtocol(Protocol, SubMachineHost):
    """Per-node protocol: elect -> build tree -> rotation walk."""

    def __init__(self, node_id: int, n: int, *, step_budget: int | None = None):
        SubMachineHost.__init__(self)
        self.node_id = node_id
        self.n = n
        self.step_budget = step_budget if step_budget is not None else dra_step_budget(n)
        self.stage = _STAGE_ELECT
        self.election: FloodMin | None = None
        self.bfs: BfsTree | None = None
        self.walk: RotationWalk | None = None
        self.outcome_success = False
        self._walk_at = -1

    # -- protocol interface ------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.election = FloodMin("lm", ctx.neighbors, diameter_budget(self.n))
        self.activate(ctx, self.election)

    def on_round(self, ctx: Context, inbox: list[Message]) -> None:
        self.dispatch(ctx, inbox)
        # Most activations carry the running walk's traffic; the stage
        # ladder has nothing to do until the walk is done.
        if self.stage != _STAGE_WALK or self.walk.done:
            self._advance(ctx)

    # -- stage machine -------------------------------------------------------------

    def _advance(self, ctx: Context) -> None:
        if self.stage == _STAGE_ELECT and self.election.done:
            self.stage = _STAGE_BFS
            deadline = bfs_deadline(ctx.round_index, diameter_budget(self.n))
            self.bfs = BfsTree(
                "bt", ctx.neighbors, is_root=self.election.is_leader, deadline=deadline
            )
            self.activate(ctx, self.bfs)
        if self.stage == _STAGE_BFS and self.bfs is not None and self.bfs.done:
            if self.bfs.failed:
                self.stage = _STAGE_DONE
                ctx.halt()
                return
            # Start one round later: the root's BFS commit and the walk's
            # first progress message must not share an edge in one round.
            if self._walk_at < 0:
                self._walk_at = ctx.round_index + 1
                ctx.request_wake(self._walk_at)
                return
            if ctx.round_index < self._walk_at:
                return
            self.stage = _STAGE_WALK
            self.walk = RotationWalk(
                "rw",
                self.node_id,
                [VirtualEdge(peer) for peer in ctx.neighbors],
                tree_neighbors=self.bfs.tree_neighbors,
                tree_depth=max(1, self.bfs.tree_depth),
                size=self.bfs.size,
                is_initial_head=self.bfs.is_root,
                step_budget=self.step_budget,
            )
            self.activate(ctx, self.walk)
        if self.stage == _STAGE_WALK and self.walk is not None and self.walk.done:
            self.stage = _STAGE_DONE
            self.outcome_success = self.walk.success
            ctx.halt()


def run_dra(
    graph: Graph,
    *,
    seed: int = 0,
    step_budget: int | None = None,
    max_rounds: int | None = None,
    audit_memory: bool = False,
    network=None,
) -> RunResult:
    """Run Algorithm 1 on ``graph`` in the CONGEST simulator.

    Returns a verified result: ``success`` is true only if every node
    terminated successfully *and* the assembled successor map is a
    genuine Hamiltonian cycle of ``graph``.

    ``network`` is a :class:`~repro.congest.model.NetworkModel` (or its
    JSON dict/string form) describing the substrate: sync vs async
    engine, bandwidth, fault plan, latency distribution, churn.  When
    the model has a fault plan the adversary's counters appear under
    ``detail["faults"]``; async runs additionally report
    ``detail["async"]`` (see ``Network.async_summary``).
    """
    n = graph.n
    budget = step_budget if step_budget is not None else dra_step_budget(n)
    run = run_protocol(
        graph,
        lambda v: DraProtocol(v, n, step_budget=budget),
        seed=seed,
        network=network,
        audit_memory=audit_memory,
        max_rounds=(max_rounds if max_rounds is not None
                    else dra_round_budget(n, budget)),
    )

    protocols: list[DraProtocol] = run.network.protocols
    walks = [p.walk for p in protocols]
    steps = max((w.steps_seen for w in walks if w is not None), default=0)
    cycle = None
    if all(w is not None and w.done and w.success for w in walks):
        cycle = verified_cycle(graph, {v: walks[v].succ for v in range(n)})
    fail_codes: list[int | str] = sorted(
        {w.fail_code for w in walks if w is not None and w.fail_code})
    # No tree, or a node whose BFS failed or spans a strict subset of the
    # graph (one tree per component), names the cause as ``fast`` does.
    if n == 0 or any(p.walk is None or p.bfs.size != n for p in protocols):
        fail_codes.append("bfs-unreachable")
    return run.result("dra", cycle is not None, cycle, steps=steps,
                      detail={"fail_codes": fail_codes})
