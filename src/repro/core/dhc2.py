"""DHC2 — Algorithm 3: the paper's general fully-distributed algorithm.

For ``p = c ln n / n**delta`` the graph is partitioned into
``K = n**(1-delta)`` random colour classes; each class builds its own
sub-Hamiltonian-cycle (Phase 1, shared with DHC1), and ``ceil(log2 K)``
levels of pairwise parallel merges stitch the class cycles into one
Hamiltonian cycle (Phase 2, Fig. 3).  Theorem 10: success whp in
``O(n**delta * ln^2 n / ln ln n)`` rounds.

Per-node flow (this host composes the sub-machines):

1. Phase 1 (:class:`~repro.core.phase1.PartitionedPhase1Protocol`):
   colour draw -> election -> BFS tree -> rotation walk.
2. For each level ``l = 1..ceil(log2 K)``:
   a. run a :class:`~repro.core.merge.MergeMachine` for this node's role
      (active / passive / idle, from its deterministic level colour);
   b. if the cycle merged, rebuild the class BFS tree (root = the new
      cycle position 1) — the broadcast backbone for the next level.
3. When one colour remains, the cycle state *is* the Hamiltonian cycle;
   ``run_dhc2`` assembles and verifies it.

Synchronisation is entirely event-driven: a node that reaches level
``l`` early simply has its messages buffered by laggards' hosts until
they activate the level-``l`` machine, so no global round schedule (and
no wasted watchdog rounds) appears in the measured round counts.
"""

from __future__ import annotations

import math

from repro.analysis.bounds import diameter_budget, dra_round_budget
from repro.congest.model import build_network, coerce_network_model
from repro.congest.node import Context
from repro.core.merge import MergeMachine
from repro.core.phase1 import (
    PartitionedPhase1Protocol,
    color_at_level,
    colors_at_level,
    merge_levels,
)
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.primitives.bfs import BfsTree
from repro.verify.hamiltonicity import CycleViolation, cycle_from_successors, verify_cycle

__all__ = ["Dhc2Protocol", "run_dhc2", "default_color_count"]


def default_color_count(n: int, delta: float) -> int:
    """The paper's ``n**(1-delta)`` partition count, at least 1."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return max(1, round(n ** (1.0 - delta)))


class Dhc2Protocol(PartitionedPhase1Protocol):
    """Per-node DHC2: Phase 1 + ``ceil(log2 K)`` merge levels."""

    def __init__(self, node_id: int, n: int, k: int):
        super().__init__(node_id, n, k)
        self.level = 0
        self.total_levels = merge_levels(k)
        self.merge: MergeMachine | None = None
        self.rebuild: BfsTree | None = None

    # -- phase-1 handoff ------------------------------------------------------------

    def on_phase1_complete(self, ctx: Context) -> None:
        self.level = 1
        self._enter_level(ctx)

    # -- merge levels -------------------------------------------------------------------

    def _enter_level(self, ctx: Context) -> None:
        if self.level > self.total_levels:
            self.finished = True
            self.request_halt(ctx)
            return
        my_color = color_at_level(self.color, self.level)
        remaining = colors_at_level(self.k, self.level)
        if my_color % 2 == 1 and my_color + 1 <= remaining:
            role, partner = "active", my_color + 1
        elif my_color % 2 == 0:
            role, partner = "passive", my_color - 1
        else:
            role, partner = "idle", 0
        cross = sorted(
            v for v, c1 in self.neighbor_colors.items()
            if partner and color_at_level(c1, self.level) == partner
        )
        is_root = self.cycindex == 1
        children = len(self.tree_neighbors) - (0 if is_root else 1)
        self.merge = MergeMachine(
            f"m{self.level}",
            node_id=self.node_id,
            role=role,
            cycindex=self.cycindex,
            succ=self.succ,
            pred=self.pred,
            cycle_size=self.cycle_size,
            tree_neighbors=self.tree_neighbors,
            is_root=is_root,
            tree_children_count=max(0, children),
            cross_neighbors=cross,
            send=self._merge_send,
            is_graph_neighbor=ctx.is_neighbor,
        )
        self.activate(ctx, self.merge)
        self.advance_hook(ctx)

    def _merge_send(self, ctx: Context, dest: int, kind: str, *fields: int) -> None:
        self.queue_send(ctx, dest, kind, *fields)

    def advance_hook(self, ctx: Context) -> None:
        if self.aborted or self.finished:
            return
        if self.merge is not None and self.merge.done:
            merge, self.merge = self.merge, None
            self.deactivate(merge)
            if merge.failed:
                self._fail_local(ctx)
                return
            if merge.merged:
                self.cycindex = merge.new_cycindex
                self.succ = merge.new_succ
                self.pred = merge.new_pred
                self.cycle_size = merge.new_size
                if self.level < self.total_levels:
                    self._start_rebuild(ctx)
                    return
            self.level += 1
            self._enter_level(ctx)
            return
        if self.rebuild is not None and self.rebuild.done:
            rebuild, self.rebuild = self.rebuild, None
            self.deactivate(rebuild)
            if rebuild.failed or rebuild.size != self.cycle_size:
                self._fail_local(ctx)
                return
            self.tree_neighbors = rebuild.tree_neighbors
            self.tree_depth = max(1, rebuild.tree_depth)
            self.level += 1
            self._enter_level(ctx)

    def _start_rebuild(self, ctx: Context) -> None:
        next_color = color_at_level(self.color, self.level + 1)
        peers = sorted(
            v for v, c1 in self.neighbor_colors.items()
            if color_at_level(c1, self.level + 1) == next_color
        )
        deadline = ctx.round_index + 6 * diameter_budget(self.cycle_size) + 16
        self.rebuild = BfsTree(
            f"b{self.level}", peers, is_root=self.cycindex == 1, deadline=deadline,
            send=self._merge_send,
        )
        self.activate(ctx, self.rebuild)
        self.advance_hook(ctx)


def dhc2_round_budget(n: int, k: int) -> int:
    """Watchdog ``max_rounds`` for a DHC2 run (failure backstop only)."""
    part = max(3, (2 * n) // max(1, k))
    levels = merge_levels(k)
    per_level = 30 * diameter_budget(n) + 8 * int(math.log(n + 2)) + 300
    return dra_round_budget(part) + levels * per_level + 6 * diameter_budget(n) + 512


def run_dhc2(
    graph: Graph,
    *,
    delta: float = 0.5,
    k: int | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
    audit_memory: bool = False,
    network=None,
) -> RunResult:
    """Run Algorithm 3 on ``graph`` in the CONGEST simulator.

    ``delta`` chooses the paper's partition count ``K = n**(1-delta)``
    (override with ``k``).  Success requires every node to finish with a
    cycle of size ``n`` *and* the assembled successor map to verify as a
    Hamiltonian cycle of the input graph.

    ``network`` is a :class:`~repro.congest.model.NetworkModel` (or its
    JSON form) describing the substrate.  A fault plan's counters
    appear under ``detail["faults"]``; async runs also report
    ``detail["async"]``.
    """
    n = graph.n
    model = coerce_network_model(network)
    colors = k if k is not None else default_color_count(n, delta)
    limit = max_rounds if max_rounds is not None else dhc2_round_budget(n, colors)
    network_, injector = build_network(
        graph,
        lambda v: Dhc2Protocol(v, n, colors),
        seed=seed,
        model=model,
        audit_memory=audit_memory,
        default_bandwidth=12,
    )
    metrics = network_.run(max_rounds=limit, raise_on_limit=False)

    protocols: list[Dhc2Protocol] = network_.protocols  # type: ignore[assignment]
    ok = bool(protocols) and all(
        p.finished and not p.aborted and p.cycle_size == n for p in protocols
    )
    cycle = None
    if ok:
        successors = {p.node_id: p.succ for p in protocols}
        try:
            cycle = cycle_from_successors(successors)
            verify_cycle(graph, cycle)
        except CycleViolation:
            ok, cycle = False, None
    steps = max((p.walk.steps_seen for p in protocols if p.walk is not None), default=0)
    detail = {
        "k": colors,
        "levels": merge_levels(colors),
        "aborted": sum(p.aborted for p in protocols),
    }
    if injector is not None:
        detail["faults"] = injector.summary()
    if model.is_async():
        detail["async"] = network_.async_summary()
    if audit_memory or model.audit_memory:
        detail["max_state_words"] = metrics.max_state_words()
        detail["state_words"] = metrics.peak_state_words.tolist()
    return RunResult(
        algorithm="dhc2",
        success=ok,
        cycle=cycle,
        rounds=metrics.rounds,
        messages=metrics.messages,
        bits=metrics.bits,
        steps=steps,
        engine="async" if model.is_async() else "congest",
        detail=detail,
    )
