"""The shared Phase-1 replay: colour draw, class forest, rotation walks.

Two engines execute the same Phase 1 — DHC2's ``fast`` replay (which
native k-machine DHC2 runs and charges) and DHC1's k-machine engine
(whose CONGEST protocol shares ``PartitionedPhase1Protocol`` with DHC2)
— and they must consume the per-node RNG streams in exactly the same
order: one colour draw per node id, then each colour class's walk draws
in class order.  :func:`replay_phase1` is that one implementation; the
engines wrap it with their own round accounting, and the k-machine
engines charge their link ledgers from its ``trace``.

The colour draw is every node's first draw, taken as one vector by
:func:`~repro.engines.streams.first_draws` (which pops most colours
straight off the prefetched half queues, so the lazy per-node streams
stay unbuilt until a walk needs them).  It builds one colour-filtered
CSR (:func:`~repro.engines.arraywalk.same_color_csr`) whose components
are the colour classes, so it is member-closed per class and every
tree step runs once for all classes, as the paper's classes run in
parallel (:func:`build_class_forest`): one multi-root BFS from each
class's min-id member, one min-id parent pass and one completion-time
pass.  The walks then run one class at a time in colour order on one
shared set of live-neighbour lists, stopping at the first failure
with the same fail reasons the engines always used: an empty or
disconnected class fails when its turn comes, after the classes
before it have walked.  Last, one multi-start eccentricity pass over
the forest prices every walked class's final flood.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.bounds import dra_step_budget
from repro.graphs.adjacency import Graph

__all__ = ["ClassForest", "Phase1Replay", "build_class_forest", "replay_phase1"]


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


@dataclass
class ClassForest:
    """Every colour class's min-id BFS tree, built as one forest.

    The classes are the disjoint components of the same-colour CSR, so
    one multi-root BFS from each class's min-id member
    (:func:`~repro.engines.arraywalk.bfs_forest`) builds every tree,
    and one :func:`~repro.engines.arraywalk.tree_completion_times` call
    times them all.  Per-class arrays have ``colors + 1`` entries (slot
    0 unused): ``sizes`` counts each class's members, ``roots`` holds
    its min-id member (``n`` for an empty class), ``spans`` the members
    its tree reached (fewer than ``sizes`` for a disconnected class)
    and ``heights`` its tree depth.  ``depth``, ``parent`` and ``done``
    (the completion rounds) span the full id space.
    """

    sizes: np.ndarray
    roots: np.ndarray
    spans: np.ndarray
    heights: np.ndarray
    depth: np.ndarray
    parent: np.ndarray
    done: np.ndarray


def build_class_forest(indptr: np.ndarray, indices: np.ndarray,
                       color_of: np.ndarray, colors: int,
                       start_round: int) -> ClassForest:
    """Build and time every colour class's tree over the same-colour
    CSR, the BFS builds starting at ``start_round``."""
    from repro.engines.arraywalk import bfs_forest, tree_completion_times

    n = color_of.size
    sizes = np.bincount(color_of, minlength=colors + 1)
    roots = np.full(colors + 1, n, dtype=np.int64)
    np.minimum.at(roots, color_of, np.arange(n, dtype=np.int64))
    depth, parent, reached = bfs_forest(indptr, indices, roots[sizes > 0])
    reached_class = color_of[reached]
    heights = np.zeros(colors + 1, dtype=np.int64)
    np.maximum.at(heights, reached_class, depth[reached])
    done = tree_completion_times(indptr, indices, reached, depth, parent,
                                 int(heights.max()), start_round)
    return ClassForest(sizes, roots,
                       np.bincount(reached_class, minlength=colors + 1),
                       heights, depth, parent, done)


def replay_phase1(graph: Graph, rngs, colors: int, *, start_round: int,
                  trace: list | None = None) -> Phase1Replay:
    """Colour draw, the class forest, then every class's rotation walk.

    Class BFS builds start at ``start_round``.  ``trace``, if given,
    receives one ``(tree, done, walk, steps, flood_ecc)`` record per
    walked class (successful or not) without perturbing any decision:
    ``tree`` is the class's own :class:`~repro.engines.arraywalk.ArrayTree`
    (as :func:`~repro.engines.arraywalk.build_array_tree` builds it),
    ``done`` its completion rounds (0 outside the class), ``steps`` the
    walk's ``(head, target)`` step log and ``flood_ecc`` the cost of
    its final flood.  Without a trace the walk's hot loop stays
    branch-only.
    """
    from repro.engines.arraywalk import (
        ArrayTree,
        ArrayWalk,
        live_rows,
        same_color_csr,
        tree_eccentricities,
    )
    from repro.engines.streams import first_draws

    color_of = 1 + first_draws(rngs, np.full(graph.n, colors, dtype=np.int64))
    indptr, indices = same_color_csr(graph.indptr, graph.indices, color_of)
    res = Phase1Replay(indptr, indices, start_round,
                       fail_round=start_round, phase1_end=start_round)
    forest = build_class_forest(indptr, indices, color_of, colors, start_round)

    rows = live_rows(indptr, indices)
    walks: list[tuple[int, ArrayWalk, list | None]] = []
    for c in range(1, colors + 1):
        size = int(forest.sizes[c])
        if size == 0:
            res.ok, res.fail_reason = False, "empty-partition"
            break
        if forest.spans[c] != size:
            res.ok, res.fail_reason = False, "partition-disconnected"
            break
        root = int(forest.roots[c])
        steps: list[tuple[int, int]] | None = [] if trace is not None else None
        walk = ArrayWalk(
            rows=rows,
            rngs=rngs,
            size=size,
            initial_head=root,
            step_budget=dra_step_budget(size),
            tree_depth=max(1, int(forest.heights[c])),
            start_round=int(forest.done[root]) + 1,
            trace=steps,
        )
        walk.run()
        res.steps = max(res.steps, walk.steps)
        walks.append((c, walk, steps))
        if not walk.success:
            res.ok = False
            res.fail_reason = f"walk-{walk.fail_code}"
            res.fail_round = walk.end_round
            break
        res.cycles[c] = walk.cycle()

    # Every walked class's final flood, as one multi-start pass.
    eccs = tree_eccentricities(forest.parent, np.array(
        [walk.flood_initiator for _, walk, _ in walks], dtype=np.int64))
    for (c, walk, steps), ecc in zip(walks, eccs.tolist()):
        if walk.success:
            res.phase1_end = max(res.phase1_end, walk.end_round + ecc)
        if trace is not None:
            inside = color_of == c
            tree = ArrayTree(root=int(forest.roots[c]),
                             depth=np.where(inside, forest.depth, -1),
                             parent=np.where(inside, forest.parent, -1),
                             tree_depth=int(forest.heights[c]),
                             members=np.flatnonzero(inside),
                             indptr=indptr, indices=indices)
            trace.append((tree, np.where(inside, forest.done, 0), walk,
                          steps, ecc))
    return res
