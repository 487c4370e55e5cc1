"""The shared Phase-1 replay: colour draw + per-class rotation walks.

Three engines execute the same Phase 1 — DHC2's ``fast`` replay, DHC2
under native k-machine execution, and DHC1's k-machine engine (whose
CONGEST protocol shares ``PartitionedPhase1Protocol`` with DHC2) — and
they must consume the per-node RNG streams in exactly the same order:
one colour draw per node id, then each colour class's walk draws in
class order.  This module is that one implementation; the engines wrap
it with their own round accounting and (for the k-machine pair) link
ledger charges via the ``observer`` hook.

:func:`color_partition` draws the colours and builds the colour-filtered
CSR every class walk shares (classes partition the nodes, so the
filtered CSR is member-closed per class and one set of live-neighbour
lists serves all walks).  :func:`replay_partition_walks` then runs the
per-class min-id BFS tree builds and rotation walks in colour order,
stopping at the first failure with the same fail reasons the engines
always used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.bounds import dra_step_budget
from repro.graphs.adjacency import Graph, csr_sources

__all__ = ["Phase1Replay", "color_partition", "replay_partition_walks"]


@dataclass
class Phase1Replay:
    """What Phase 1 produced: per-class cycles, or the first failure.

    ``fail_reason`` is ``None`` on success, else one of
    ``"empty-partition"``, ``"partition-disconnected"``, or
    ``"walk-<code>"``; ``fail_round`` is the round the failure is
    charged to (the phase start for structural failures, the walk's
    end round otherwise).  ``phase1_end`` is the round by which every
    class's win flood has reached its whole tree.
    """

    ok: bool = True
    fail_reason: str | None = None
    fail_round: int = 0
    cycles: dict[int, list[int]] = field(default_factory=dict)
    trees: dict[int, object] = field(default_factory=dict)
    steps: int = 0
    phase1_end: int = 0

    @property
    def walk_failed(self) -> bool:
        """Whether the failure happened inside a class walk (so the
        walk's traffic demonstrably ran and must be charged)."""
        return self.fail_reason is not None and \
            self.fail_reason.startswith("walk-")


def color_partition(graph: Graph, rngs, colors: int):
    """Colour draw + the member-closed same-colour CSR all walks share.

    Returns ``(color_of, sub_indptr, sub_indices, rows)`` — the
    per-node colours (1-based), the colour-filtered CSR built in one
    vectorised pass, and the live-neighbour lists every class walk
    shares.
    """
    from repro.engines.arraywalk import filtered_csr, live_rows

    n = graph.n
    color_of = np.array(
        [1 + int(rngs[v].integers(colors)) for v in range(n)],
        dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    src = csr_sources(indptr)
    sub_indptr, sub_indices = filtered_csr(
        indptr, indices, color_of[src] == color_of[indices])
    rows = live_rows(sub_indptr, sub_indices)
    return color_of, sub_indptr, sub_indices, rows


def replay_partition_walks(
    *,
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: list,
    rngs,
    color_of: np.ndarray,
    colors: int,
    start_round: int,
    observer: Callable | None = None,
) -> Phase1Replay:
    """Run every colour class's BFS build + rotation walk in order.

    ``observer(c, members, tree, done, walk, trace, flood_ecc)``, if
    given, sees every class right after its walk finishes (successful
    or not) without perturbing the replay — the k-machine engines
    charge BFS schedules and walk traffic there.  ``done`` is the
    tree's full completion-time vector and ``trace`` the walk's
    ``(head, target)`` step log (collected only when an observer is
    present; the fast path keeps the walk's hot loop branch-only).
    """
    from repro.engines.arraywalk import ArrayWalk, build_array_tree

    res = Phase1Replay(fail_round=start_round, phase1_end=start_round)
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
        trace: list[tuple[int, int]] | None = \
            [] if observer is not None else None
        walk = ArrayWalk(
            rows=rows,
            rngs=rngs,
            size=members.size,
            initial_head=tree.root,
            step_budget=dra_step_budget(members.size),
            tree_depth=max(1, tree.tree_depth),
            start_round=int(done[tree.root]) + 1,
            trace=trace,
        )
        walk.run()
        res.steps = max(res.steps, walk.steps)
        flood_ecc = (tree.eccentricity(walk.flood_initiator)
                     if observer is not None or walk.success else 0)
        if observer is not None:
            observer(c, members, tree, done, walk, trace, flood_ecc)
        if not walk.success:
            res.ok = False
            res.fail_reason = f"walk-{walk.fail_code}"
            res.fail_round = walk.end_round
            return res
        res.cycles[c] = walk.cycle()
        res.trees[c] = tree
        res.phase1_end = max(res.phase1_end, walk.end_round + flood_ecc)
    return res
