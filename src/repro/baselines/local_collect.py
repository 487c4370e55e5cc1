"""The LOCAL-model triviality — footnote 6 of the paper.

"In contrast, in the LOCAL model — where there is no bandwidth
constraint — all problems can be trivially solved in O(D) rounds by
collecting all the topological information at one node."

This baseline makes that remark measurable.  It simulates, at step
level, the canonical LOCAL algorithm:

1. leader = the minimum id (a flood takes ``ecc`` rounds; every node
   learns the winner);
2. *gather*: every node repeatedly forwards everything it knows toward
   the leader; after ``ecc(leader)`` rounds the leader holds the whole
   edge list;
3. the leader solves locally (Angluin–Valiant with restarts — the graph
   is a random graph, so this succeeds whp);
4. *scatter*: the leader floods each node's two cycle neighbours back;
   another ``ecc(leader)`` rounds.

The round count is honest LOCAL accounting (``3 ecc + O(1)``).  What
the model hides — and what this module *measures* — is the traffic: the
gather moves ``Theta(m)`` edge descriptions, each travelling up to
``ecc`` hops, so the bit total is ``Theta(m * D * log n)``, far beyond
CONGEST's per-round budget.  Experiment E9 contrasts this with the
CONGEST algorithms' totals.

Memory is equally centralised: the leader stores all ``m`` edges, an
``Omega(n)`` (indeed ``Omega(m)``) footprint that breaks the paper's
fully-distributed o(n) restriction — the same critique Section III
makes of the Upcast algorithm, amplified.
"""

from __future__ import annotations

import numpy as np

from repro.congest.message import word_bits
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.graphs.properties import bfs_distances
from repro.sequential.posa import posa_cycle
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["run_local_collect"]


def run_local_collect(
    graph: Graph,
    *,
    seed: int = 0,
    restarts: int = 8,
) -> RunResult:
    """Solve HC the LOCAL way: collect everything at the min-id node.

    Returns ``rounds`` = ``3 * ecc(leader) + 1`` (election + gather +
    scatter) and ``bits`` = the exact traffic the gather and scatter
    move (each edge charged ``2 * word_bits(n)`` per hop travelled).
    ``success`` requires a verified Hamiltonian cycle, as everywhere in
    this library.
    """
    n = graph.n
    if n < 3:
        return RunResult("local", False, None, 0, engine="fast",
                         detail={"reason": "too-small"})

    leader = 0  # minimum id, as the election would produce
    dist = bfs_distances(graph, leader)
    if np.any(dist < 0):
        return RunResult("local", False, None, 0, engine="fast",
                         detail={"reason": "disconnected"})
    ecc = int(dist.max())
    rounds = 3 * ecc + 1

    # Gather traffic: edge {u, v} is reported by its lower endpoint and
    # travels dist(endpoint -> leader) hops; 2 id words per edge per hop.
    wb = word_bits(n)
    edge_arr = graph.edge_array()
    hops_up = int(dist[edge_arr[:, 0]].sum())
    gather_bits = 2 * wb * hops_up
    # Scatter traffic: each node's (pred, succ) assignment, 2 words,
    # travels dist(leader -> node) hops.
    scatter_bits = 2 * wb * int(dist.sum())
    bits = gather_bits + scatter_bits
    messages = hops_up + int(dist.sum())

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    neighbors = {v: graph.neighbor_list(v) for v in range(n)}
    cycle = verified_cycle(
        graph, posa_cycle(n, neighbors, rng=rng, restarts=restarts))
    return RunResult(
        algorithm="local",
        success=cycle is not None,
        cycle=cycle,
        rounds=rounds,
        messages=messages,
        bits=bits,
        engine="fast",
        detail={
            "leader": leader,
            "eccentricity": ecc,
            "leader_state_words": 2 * graph.m,  # the whole edge list
        },
    )
