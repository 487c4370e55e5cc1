"""Standalone distributed DRA: Algorithm 1 run on a whole graph.

This is Theorem 2's setting — one rotation walk over the entire network
(the building block that DHC1/DHC2 Phase 1 runs per partition).  The
protocol stacks the standard setup on top of the walk:

1. flood-min leader election (the "only one v becomes head" init of
   Algorithm 1, line 5);
2. BFS spanning tree from the leader — the broadcast backbone for
   rotation renumbering (DESIGN.md substitution 3);
3. the :class:`~repro.core.rotation.RotationWalk` itself.

``run_dra`` wraps the whole thing into one call returning a
:class:`~repro.engines.results.RunResult`.
"""

from __future__ import annotations

from repro.analysis.bounds import diameter_budget, dra_round_budget, dra_step_budget
from repro.congest.message import Message
from repro.congest.model import build_network, coerce_network_model
from repro.congest.node import Context, Protocol
from repro.core.rotation import RotationWalk, VirtualEdge
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.primitives.bfs import BfsTree
from repro.primitives.floodmin import FloodMin
from repro.primitives.submachine import SubMachineHost
from repro.verify.hamiltonicity import CycleViolation, cycle_from_successors, verify_cycle

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
        self._advance(ctx)

    # -- stage machine -------------------------------------------------------------

    def _advance(self, ctx: Context) -> None:
        if self.stage == _STAGE_ELECT and self.election.done:
            self.stage = _STAGE_BFS
            deadline = ctx.round_index + 3 * diameter_budget(self.n) + 8
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
                send=self._walk_send,
            )
            self.activate(ctx, self.walk)
        if self.stage == _STAGE_WALK and self.walk is not None and self.walk.done:
            self.stage = _STAGE_DONE
            self.outcome_success = self.walk.success
            ctx.halt()

    def _walk_send(self, ctx: Context, edge: VirtualEdge, suffix: str, *fields: int) -> None:
        ctx.send(edge.peer, f"rw.{suffix}", *fields, self.node_id)


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
    ``detail["async"]`` (see ``AsyncNetwork.async_summary``).
    """
    n = graph.n
    model = coerce_network_model(network)
    budget = step_budget if step_budget is not None else dra_step_budget(n)
    limit = max_rounds if max_rounds is not None else dra_round_budget(n, budget)
    network_, injector = build_network(
        graph,
        lambda v: DraProtocol(v, n, step_budget=budget),
        seed=seed,
        model=model,
        audit_memory=audit_memory,
    )
    metrics = network_.run(max_rounds=limit, raise_on_limit=False)

    protocols: list[DraProtocol] = network_.protocols  # type: ignore[assignment]
    walks = [p.walk for p in protocols]
    ok = all(w is not None and w.done and w.success for w in walks)
    steps = max((w.steps_seen for w in walks if w is not None), default=0)
    cycle = None
    if ok:
        successors = {v: walks[v].succ for v in range(n)}
        try:
            cycle = cycle_from_successors(successors)
            verify_cycle(graph, cycle)
        except CycleViolation:
            ok = False
            cycle = None
    detail = {"fail_codes": sorted({w.fail_code for w in walks if w is not None and w.fail_code})}
    if injector is not None:
        detail["faults"] = injector.summary()
    if model.is_async():
        detail["async"] = network_.async_summary()
    if audit_memory or model.audit_memory:
        detail["max_state_words"] = metrics.max_state_words()
        detail["state_words"] = metrics.peak_state_words.tolist()
    return RunResult(
        algorithm="dra",
        success=ok,
        cycle=cycle,
        rounds=metrics.rounds,
        messages=metrics.messages,
        bits=metrics.bits,
        steps=steps,
        engine="async" if model.is_async() else "congest",
        detail=detail,
    )
