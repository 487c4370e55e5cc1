"""Step-level fast engine: the same algorithms without per-message cost.

For scaling experiments the message-level simulator is too slow (a
single rotation broadcast is Θ(n) Python-object messages).  This engine
executes the *identical* algorithm — same leader, same spanning tree,
same per-node RNG streams, same unused-edge bookkeeping, same decision
order — and advances the round counter by the deterministic schedule
the CONGEST protocol follows:

* flood-min election: ``diameter_budget(n)`` rounds (fixed deadline);
* BFS build: exact per-node event recursion (join wave, response wave,
  done convergecast, commit wave) — the same rounds the message-level
  :class:`~repro.primitives.bfs.BfsTree` takes;
* rotation walk: 1 round per extension, ``2 * tree_depth + 3`` rounds
  per rotation (flood + quiescence wait), and the final win/fail
  flood costs the initiator's tree eccentricity.

Integration tests assert that, seed for seed, this engine and the
CONGEST engine return the *same cycle, step count, and round count* —
which is what licenses using it for the large-n benchmark sweeps.

``engine="fast"`` runs on the array-native CSR kernel
(:mod:`repro.engines.arraywalk`): live-neighbour lists, int64
path/position arrays, vectorised tree timing.  The pure-Python walker
it replaced (once registered as ``engine="fast-py"``) lives in
``tests/oracles.py``; ``tests/test_engine_parity.py`` asserts
the kernel stays decision-identical to it seed for seed.  The two
share :func:`_dra_result`.

The native k-machine engine does not re-run the DRA walk: it calls
``_dra_fast`` with the internal ``trace=`` dict and charges its link
ledger from what the replay recorded.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import bfs_deadline, diameter_budget, dra_step_budget
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["_dra_fast"]


def _dra_fast(
    graph: Graph,
    *,
    seed: int = 0,
    step_budget: int | None = None,
    trace: dict | None = None,
) -> RunResult:
    """Algorithm 1 on the array kernel; see module docstring for fidelity.

    ``trace``, if given, receives ``tree`` (``None`` if the BFS fails)
    and then the finished ``walk``, its ``(head, target)`` step log
    ``steps`` and the final flood's ``flood_ecc``, without perturbing
    any decision; the native k-machine engine charges from it.
    """
    from repro.engines.arraywalk import ArrayWalk, build_array_tree, live_rows
    from repro.engines.batchwalk import node_streams

    n = graph.n
    budget = step_budget if step_budget is not None else dra_step_budget(n)
    rngs = node_streams(seed, n)

    election_rounds = diameter_budget(n)
    indptr, indices = graph.indptr, graph.indices
    tree = build_array_tree(indptr, indices,
                            np.arange(n, dtype=np.int64), root=0) if n else None
    if trace is not None:
        trace.update(tree=tree, steps=[])
    if tree is None:
        deadline = bfs_deadline(election_rounds, diameter_budget(n))
        return RunResult("dra", False, None, deadline, engine="fast",
                         detail={"fail_codes": ["bfs-unreachable"]})

    walk = ArrayWalk(
        rows=live_rows(indptr, indices),
        rngs=rngs,
        size=n,
        initial_head=tree.root,
        step_budget=budget,
        tree_depth=max(1, tree.tree_depth),
        start_round=tree.completion_round(election_rounds) + 1,
        trace=None if trace is None else trace["steps"],
    )
    walk.run()
    flood_ecc = tree.eccentricity(walk.flood_initiator)
    if trace is not None:
        trace.update(walk=walk, flood_ecc=flood_ecc)
    return _dra_result(graph, walk, walk.end_round + flood_ecc, engine="fast")


def _dra_result(graph: Graph, walk, end_round: int, *, engine: str) -> RunResult:
    """Shared verification + RunResult assembly for both DRA walkers."""
    cycle = verified_cycle(graph, walk.cycle()) if walk.success else None
    return RunResult(
        algorithm="dra",
        success=cycle is not None,
        cycle=cycle,
        rounds=end_round,
        steps=walk.steps,
        engine=engine,
        detail={"fail_codes": [walk.fail_code] if walk.fail_code else [],
                "rotations": walk.rotations, "extensions": walk.extensions,
                "retries": walk.retries},
    )

