"""The Levy–Louchard–Petit baseline — reference [18] of the paper.

The paper positions its algorithms against the only prior distributed
HC algorithm: Levy et al. (2004), which runs in ``O(n^{3/4 + eps})``
rounds and *requires* ``p = omega(sqrt(log n) / n^{1/4})`` — a much
denser regime than the Hamiltonicity threshold.  Their algorithm
(built on MacKenzie–Stout [19]) "works in three phases: finding an
initial cycle, finding ``sqrt(n)`` disjoint paths, and finally patching
paths into the cycle to build the HC" (Section I-B).

Reconstruction (a substitution for the lost original)
-----------------------------------------------------
The original workshop paper predates artifact culture and no
implementation survives; we rebuild the three-phase structure at step
level with explicit round accounting:

1. *Disjoint paths.*  ``sqrt(n)`` seed nodes grow vertex-disjoint paths
   greedily in parallel; per round every active head claims a uniformly
   random unclaimed neighbour (ties broken by smallest path id — losers
   burn the round, exactly the conflict cost a distributed
   implementation pays).  Heads with no unclaimed neighbours retire.
2. *Initial cycle.*  The longest path is closed into a cycle by
   rotation–extension restricted to its own nodes (each rotation costs
   a renumbering broadcast over the path, charged at the path's
   diameter-bounded backbone like our DRA does).
3. *Patching.*  Paths are patched into the growing cycle one at a time:
   endpoints ``(u, v)`` of the path seek a cycle edge ``(x, y)`` with
   ``x ~ u`` and ``y ~ v`` (either orientation); each attempt costs one
   endpoint broadcast plus one candidate convergecast (charged ``2D+2``
   rounds).  If no patch edge exists the path is rotated to expose new
   endpoints and retried; after ``patch_attempts`` failures the run
   aborts.  Unclaimed leftover nodes are singleton paths patched the
   same way (a singleton needs a cycle edge whose *both* endpoints see
   it).

The reconstruction preserves the two behaviours the comparison (A4)
needs: the round count is dominated by sequential patching of
``Theta(sqrt(n))`` paths, and patching relies on *pairs* of adjacent
cross edges (probability ``~p^2`` per cycle edge), so success collapses
once ``n * p^2`` drops below ``~ln n`` — reproducing the density floor
the paper criticises [18] for, while DHC2 keeps working down to the
true threshold.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.graphs.properties import bfs_distances
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["run_levy", "levy_density_requirement"]


def levy_density_requirement(n: int) -> float:
    """The regime [18] needs: ``p = omega(sqrt(log n) / n^{1/4})``.

    Returned as the boundary value ``sqrt(ln n) / n^{1/4}``; the
    algorithm is only promised for ``p`` asymptotically above this.
    """
    if n < 3:
        return 1.0
    return math.sqrt(math.log(n)) / n**0.25


class _PathSystem:
    """Vertex-disjoint paths under construction (phase 1 state)."""

    def __init__(self, seeds: list[int]):
        self.paths: list[list[int]] = [[s] for s in seeds]
        self.owner: dict[int, int] = {s: i for i, s in enumerate(seeds)}
        self.active: set[int] = set(range(len(seeds)))

    def claimed(self, v: int) -> bool:
        return v in self.owner

    def grow(self, path_id: int, v: int) -> None:
        self.paths[path_id].append(v)
        self.owner[v] = path_id


def _grow_disjoint_paths(
    graph: Graph, seeds: list[int], rng: np.random.Generator,
) -> tuple[_PathSystem, int]:
    """Phase 1: parallel greedy growth; returns the system and round cost."""
    system = _PathSystem(seeds)
    rounds = 0
    while system.active:
        rounds += 1
        # Each active head proposes one random unclaimed neighbour.
        proposals: dict[int, list[int]] = {}
        for path_id in sorted(system.active):
            head = system.paths[path_id][-1]
            unclaimed = [w for w in graph.neighbor_list(head)
                         if not system.claimed(w)]
            if not unclaimed:
                system.active.discard(path_id)
                continue
            pick = unclaimed[int(rng.integers(len(unclaimed)))]
            proposals.setdefault(pick, []).append(path_id)
        # Conflict rule: smallest path id wins the node; losers retry.
        for node, contenders in proposals.items():
            system.grow(min(contenders), node)
    return system, rounds


def _close_into_cycle(
    graph: Graph, path: list[int], rng: np.random.Generator,
    *, step_budget: int,
) -> tuple[list[int] | None, int, int]:
    """Phase 2: rotation-close a path into a cycle using its own nodes.

    Returns ``(cycle | None, steps, rounds)``; each rotation is charged
    ``2 * ceil(log2 L) + 2`` rounds (renumbering broadcast over a
    balanced backbone of the L path nodes), closure checks are free
    (head consults its own adjacency).
    """
    if len(path) < 3:
        return None, 0, 0
    members = set(path)
    path = list(path)
    pos = {v: i for i, v in enumerate(path)}
    used: set[tuple[int, int]] = set()
    broadcast = 2 * max(1, math.ceil(math.log2(len(path)))) + 2
    steps = 0
    rounds = 0
    while steps < step_budget:
        steps += 1
        head = path[-1]
        start = path[0]
        if graph.has_edge(head, start) and len(path) == len(members):
            rounds += 1
            return path, steps, rounds
        options = [w for w in graph.neighbor_list(head)
                   if w in members and w != head
                   and (head, w) not in used]
        if not options:
            return None, steps, rounds
        pick = options[int(rng.integers(len(options)))]
        used.add((head, pick))
        used.add((pick, head))
        j = pos[pick]
        if j == len(path) - 2:  # its own predecessor: nothing to rotate
            rounds += 1
            continue
        # Rotate: reverse the suffix after pick.
        suffix = path[j + 1:]
        suffix.reverse()
        path[j + 1:] = suffix
        for i, v in enumerate(suffix, start=j + 1):
            pos[v] = i
        rounds += broadcast
    return None, steps, rounds


def _rotate_endpoint(
    graph: Graph, work: list[int], rng: np.random.Generator,
) -> list[int] | None:
    """Pósa-rotate ``work`` at one end to expose a fresh endpoint.

    If the tail ``work[-1]`` has an on-path edge to ``work[j]``
    (``j < len-2``), the suffix after ``j`` reverses and ``work[j+1]``
    becomes the new tail; failing that, the same is tried from the head
    (on the reversed path).  Returns the rotated path, or ``None`` when
    neither endpoint has a usable fold edge (endpoints cannot change).
    """
    for attempt in (work, work[::-1]):
        tail = attempt[-1]
        folds = [j for j in range(len(attempt) - 2)
                 if graph.has_edge(tail, attempt[j])]
        if folds:
            j = folds[int(rng.integers(len(folds)))]
            return attempt[:j + 1] + attempt[j + 1:][::-1]
    return None


def _find_patch(
    graph: Graph, cycle: list[int], u: int, v: int,
) -> tuple[int, bool] | None:
    """Find ``i`` such that cycle edge ``(c[i], c[i+1])`` patches path ends
    ``u .. v``; returns ``(i, reversed)`` or ``None``.

    ``reversed`` means the path must be inserted tail-first
    (``c[i] ~ v`` and ``c[i+1] ~ u``).
    """
    L = len(cycle)
    for i in range(L):
        x, y = cycle[i], cycle[(i + 1) % L]
        if graph.has_edge(x, u) and graph.has_edge(y, v):
            return i, False
        if graph.has_edge(x, v) and graph.has_edge(y, u):
            return i, True
    return None


def run_levy(
    graph: Graph,
    *,
    seed: int = 0,
    seeds_count: int | None = None,
    patch_attempts: int = 12,
) -> RunResult:
    """Run the reconstructed Levy et al. baseline on ``graph``.

    Step-level engine (``engine="fast"``): the returned ``rounds`` is
    the explicit accounting described in the module docstring, and
    ``success`` requires a fully verified Hamiltonian cycle.
    """
    n = graph.n
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if n < 3:
        return RunResult("levy", False, None, 0, engine="fast",
                         detail={"reason": "too-small"})

    k = seeds_count if seeds_count is not None else max(1, math.isqrt(n))
    k = min(k, n)
    seeds = rng.choice(n, size=k, replace=False).astype(int).tolist()

    # Phase 1 — sqrt(n) disjoint paths.
    system, rounds = _grow_disjoint_paths(graph, seeds, rng)
    paths = sorted((p for p in system.paths), key=len, reverse=True)
    leftovers = [v for v in range(n) if v not in system.owner]
    paths.extend([v] for v in leftovers)
    phase1_rounds = rounds

    # Phase 2 — close a path into the initial cycle (longest first; a
    # couple of fallbacks keep one unlucky path from dooming the run).
    cycle = None
    steps = 0
    base_index = -1
    for candidate in range(min(3, len(paths))):
        base = paths[candidate]
        budget = int(7 * len(base) * max(1.0, math.log(max(2, len(base))))) + 32
        cycle, attempt_steps, close_rounds = _close_into_cycle(
            graph, base, rng, step_budget=budget)
        steps += attempt_steps
        rounds += close_rounds
        if cycle is not None:
            base_index = candidate
            break
    if cycle is None:
        return RunResult("levy", False, None, rounds, steps=steps, engine="fast",
                         detail={"reason": "initial-cycle", "paths": len(paths)})
    paths.pop(base_index)

    # Phase 3 — patch the remaining paths in, one at a time.
    diam_budget = _hop_radius(graph, cycle[0])
    patch_cost = 2 * diam_budget + 2
    patched = 0
    for path in paths:
        ok = False
        work = list(path)
        for _attempt in range(max(1, patch_attempts)):
            rounds += patch_cost
            u, v = work[0], work[-1]
            found = _find_patch(graph, cycle, u, v)
            if found is not None:
                i, rev = found
                insert = list(reversed(work)) if rev else work
                cycle = cycle[:i + 1] + insert + cycle[i + 1:]
                ok = True
                break
            if len(work) > 2:
                # Expose fresh endpoints by a genuine Pósa rotation
                # (edge-preserving); stop retrying if no fold exists.
                rotated = _rotate_endpoint(graph, work, rng)
                if rotated is None:
                    break
                work = rotated
        if not ok:
            return RunResult(
                "levy", False, None, rounds, steps=steps, engine="fast",
                detail={"reason": "patch-failed", "patched": patched,
                        "paths": len(paths) + 1})
        patched += 1

    cycle = verified_cycle(graph, cycle) if len(cycle) == n else None
    return RunResult(
        algorithm="levy",
        success=cycle is not None,
        cycle=cycle,
        rounds=rounds,
        steps=steps,
        engine="fast",
        detail={"paths": len(paths) + 1, "patched": patched,
                "phase1_rounds": phase1_rounds,
                "density_floor": levy_density_requirement(n)},
    )


def _hop_radius(graph: Graph, source: int) -> int:
    """Eccentricity of ``source`` (broadcast cost), tolerant of isolates."""
    dist = bfs_distances(graph, source)
    reachable = dist[dist >= 0]
    return int(reachable.max()) if reachable.size else 1
