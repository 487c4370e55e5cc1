"""Structural property analysis for graphs.

The paper's round-complexity proofs lean on three diameter facts for
``G(n, p)``:

* ``D = Theta(ln n / ln ln n)`` at the connectivity threshold
  ``p = c ln n / n`` (Chung–Lu [5]);
* ``D = 2`` whp when ``p = Theta(log n / sqrt(n))`` (Bollobás [2],
  "Fact 2" in the paper);
* ``D = ceil(1/eps)`` whp when ``p = c log n / n**(1-eps)``
  (Klee–Larman [17], "Fact 3").

Experiment E11 validates all three with the functions here.  BFS is
implemented frontier-at-a-time over the CSR arrays so that the exact
diameter of graphs in the 10^3–10^4 node range remains cheap.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graphs.adjacency import Graph, csr_gather, sorted_unique

__all__ = [
    "bfs_distances",
    "connected_components",
    "is_connected",
    "giant_component",
    "eccentricity",
    "diameter",
    "diameter_lower_bound",
    "degree_statistics",
    "expected_diameter_sparse",
]


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source``; unreachable nodes get ``-1``."""
    if source not in graph:
        raise ValueError(f"source {source} not in graph of size {graph.n}")
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    level = 0
    while frontier.size:
        level += 1
        neighbours = csr_gather(indptr, indices, frontier)
        fresh = neighbours[dist[neighbours] == -1]
        if fresh.size == 0:
            break
        fresh = sorted_unique(fresh)
        dist[fresh] = level
        frontier = fresh
    return dist


def connected_components(graph: Graph) -> list[list[int]]:
    """Connected components, each a sorted list of node ids."""
    seen = np.zeros(graph.n, dtype=bool)
    components: list[list[int]] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        dist = bfs_distances(graph, start)
        members = np.flatnonzero(dist >= 0)
        seen[members] = True
        components.append(members.tolist())
    return components


def is_connected(graph: Graph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    if graph.n == 0:
        return True
    return bool(np.all(bfs_distances(graph, 0) >= 0))


def giant_component(graph: Graph) -> tuple[Graph, dict[int, int]]:
    """The largest connected component as an induced subgraph.

    Returns the subgraph and the original-id -> new-id mapping.
    """
    components = connected_components(graph)
    if not components:
        return Graph(0), {}
    largest = max(components, key=len)
    return graph.subgraph(largest)


def eccentricity(graph: Graph, v: int) -> int:
    """Largest hop distance from ``v``; raises if the graph is disconnected."""
    dist = bfs_distances(graph, v)
    if np.any(dist < 0):
        raise ValueError("eccentricity undefined on a disconnected graph")
    return int(dist.max())


def diameter(graph: Graph, *, exact_limit: int = 20_000) -> int:
    """Exact diameter via all-sources BFS.

    Cost is O(n * m); refuse (with a hint) beyond ``exact_limit`` nodes —
    use :func:`diameter_lower_bound` for large graphs.
    """
    if graph.n == 0:
        return 0
    if graph.n > exact_limit:
        raise ValueError(
            f"exact diameter on {graph.n} nodes exceeds exact_limit={exact_limit}; "
            "use diameter_lower_bound for an estimate"
        )
    best = 0
    for v in range(graph.n):
        dist = bfs_distances(graph, v)
        if np.any(dist < 0):
            raise ValueError("diameter undefined on a disconnected graph")
        best = max(best, int(dist.max()))
    return best


def diameter_lower_bound(graph: Graph, *, sweeps: int = 4, seed: int = 0) -> int:
    """Double-sweep diameter lower bound (exact on trees, sharp in practice).

    Runs ``sweeps`` random-start double BFS sweeps and returns the best
    eccentricity observed.
    """
    if graph.n == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(max(1, sweeps)):
        start = int(rng.integers(graph.n))
        dist = bfs_distances(graph, start)
        if np.any(dist < 0):
            raise ValueError("diameter undefined on a disconnected graph")
        far = int(np.argmax(dist))
        dist2 = bfs_distances(graph, far)
        best = max(best, int(dist2.max()))
    return best


def degree_statistics(graph: Graph) -> dict[str, float]:
    """Min / max / mean / std of the degree sequence."""
    if graph.n == 0:
        return {"min": 0.0, "max": 0.0, "mean": 0.0, "std": 0.0}
    degs = graph.degrees()
    return {
        "min": float(degs.min()),
        "max": float(degs.max()),
        "mean": float(degs.mean()),
        "std": float(degs.std()),
    }


def expected_diameter_sparse(n: int) -> float:
    """The Chung–Lu [5] diameter scale ``ln n / ln ln n`` for threshold G(n,p).

    Used by the protocols to size round budgets (a whp upper bound is a
    constant multiple of this; see :mod:`repro.analysis.bounds`).
    """
    if n < 3:
        return 1.0
    return math.log(n) / math.log(math.log(n))
