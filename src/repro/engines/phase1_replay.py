"""The shared Phase-1 replay: colour draw + per-class rotation walks.

Two engines execute the same Phase 1 — DHC2's ``fast`` replay (which
native k-machine DHC2 runs and charges) and DHC1's k-machine engine
(whose CONGEST protocol shares ``PartitionedPhase1Protocol`` with DHC2)
— and they must consume the per-node RNG streams in exactly the same
order: one colour draw per node id, then each colour class's walk draws
in class order.  :func:`replay_phase1` is that one implementation; the
engines wrap it with their own round accounting, and the k-machine
engines charge their link ledgers from its ``trace``.

The colour draw is every node's first draw, taken as one vector by
:func:`~repro.engines.batchwalk.first_draws` (which pops most colours
straight off the prefetched half queues, so the lazy per-node streams
stay unbuilt until a walk needs them).  It builds one colour-filtered
CSR (:func:`~repro.engines.arraywalk.same_color_csr`) that every class
walk shares (classes partition the nodes, so the filtered CSR is
member-closed per class and one set of live-neighbour lists serves all
walks).  The per-class min-id BFS tree builds and rotation walks then
run in colour order, stopping at the first failure with the same fail
reasons the engines always used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.bounds import dra_step_budget
from repro.graphs.adjacency import Graph

__all__ = ["Phase1Replay", "replay_phase1"]


@dataclass
class Phase1Replay:
    """What Phase 1 produced: per-class cycles, or the first failure.

    ``fail_reason`` is ``None`` on success, else one of
    ``"empty-partition"``, ``"partition-disconnected"``, or
    ``"walk-<code>"``; ``fail_round`` is the round the failure is
    charged to (the phase start for structural failures, the walk's
    end round otherwise).  ``phase1_end`` is the round by which every
    class's win flood has reached its whole tree.  ``indptr`` /
    ``indices`` are the colour-filtered CSR the classes ran on, and
    ``start_round`` the round their BFS builds began.
    """

    indptr: np.ndarray
    indices: np.ndarray
    start_round: int
    ok: bool = True
    fail_reason: str | None = None
    fail_round: int = 0
    cycles: dict[int, list[int]] = field(default_factory=dict)
    steps: int = 0
    phase1_end: int = 0

    @property
    def walk_failed(self) -> bool:
        """Whether the failure happened inside a class walk (so the
        walk's traffic demonstrably ran and must be charged)."""
        return self.fail_reason is not None and \
            self.fail_reason.startswith("walk-")


def replay_phase1(graph: Graph, rngs, colors: int, *, start_round: int,
                  trace: list | None = None) -> Phase1Replay:
    """Colour draw, then every colour class's BFS build + rotation walk.

    Class BFS builds start at ``start_round``.  ``trace``, if given,
    receives one ``(tree, done, walk, steps, flood_ecc)`` record per
    walked class (successful or not) without perturbing any decision:
    ``done`` is the tree's full completion-time vector, ``steps`` the
    walk's ``(head, target)`` step log and ``flood_ecc`` the cost of
    its final flood.  Without a trace the walk's hot loop stays
    branch-only.
    """
    from repro.engines.arraywalk import ArrayWalk, build_array_tree, live_rows, same_color_csr
    from repro.engines.batchwalk import first_draws

    color_of = 1 + first_draws(rngs, np.full(graph.n, colors, dtype=np.int64))
    indptr, indices = same_color_csr(graph.indptr, graph.indices, color_of)
    rows = live_rows(indptr, indices)

    res = Phase1Replay(indptr, indices, start_round,
                       fail_round=start_round, phase1_end=start_round)
    for c in range(1, colors + 1):
        members = np.flatnonzero(color_of == c)
        if members.size == 0:
            res.ok, res.fail_reason = False, "empty-partition"
            return res
        tree = build_array_tree(indptr, indices, members,
                                root=int(members[0]))
        if tree is None:
            res.ok, res.fail_reason = False, "partition-disconnected"
            return res
        done = tree.completion_times(start_round)
        steps: list[tuple[int, int]] | None = [] if trace is not None else None
        walk = ArrayWalk(
            rows=rows,
            rngs=rngs,
            size=members.size,
            initial_head=tree.root,
            step_budget=dra_step_budget(members.size),
            tree_depth=max(1, tree.tree_depth),
            start_round=int(done[tree.root]) + 1,
            trace=steps,
        )
        walk.run()
        res.steps = max(res.steps, walk.steps)
        flood_ecc = (tree.eccentricity(walk.flood_initiator)
                     if trace is not None or walk.success else 0)
        if trace is not None:
            trace.append((tree, done, walk, steps, flood_ecc))
        if not walk.success:
            res.ok = False
            res.fail_reason = f"walk-{walk.fail_code}"
            res.fail_round = walk.end_round
            return res
        res.cycles[c] = walk.cycle()
        res.phase1_end = max(res.phase1_end, walk.end_round + flood_ecc)
    return res
