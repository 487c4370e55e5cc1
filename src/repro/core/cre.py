"""CRE — cycles, rotations, extensions (Alon–Krivelevich, arXiv:1903.03007).

The CRE algorithm grows a Hamilton path with the three moves its name
lists, spending expected ``O(n / p)`` time on ``G(n, p)`` above the
Hamiltonicity threshold (linear in the input size):

* **extension** — the path head moves to an unvisited neighbour;
* **cycle extension** — when the head is stuck but closes a cycle with
  the tail, re-open that cycle at a node with an unvisited neighbour
  and extend from there (the move that escapes "trapped" components a
  plain rotation walk cannot leave);
* **rotation** — otherwise, a Pósa rotation at a random on-path
  neighbour of the head re-exposes a different endpoint.

This reproduction implements the randomized Monte Carlo core with a
step budget; the paper's deterministic exhaustive-search fallback
(which upgrades the algorithm to a Las Vegas decider) is out of scope
and recorded as a ROADMAP follow-up — a budget exhaustion is reported
as an honest failure, exactly like the source paper's algorithms.

The solver is sequential (the whole graph in one place, ``rounds =
0``), so it registers as the ``sequential`` reference engine for
algorithm ``"cre"``; :mod:`repro.engines.fast_cre` replays the same
decision sequence on CSR position arrays, drawing from a bit-identical
Python-int replica of the same stream, and must match cycle, steps,
and failure codes seed for seed (the registry ``parity`` declaration).

Decision contract shared by both engines (one RNG stream,
``numpy.random.default_rng(seed)``):

1. the start vertex is one ``integers(n)`` draw;
2. each step draws exactly one ``integers(k)`` per non-empty choice
   set, in this order: extension candidates (unvisited neighbours of
   the head, ascending id), else cycle-extension pivot (path nodes
   with an unvisited neighbour, *path order*) then its target
   (ascending id), else rotation target (on-path neighbours of the
   head minus the head's predecessor, ascending id).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import dra_step_budget
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.verify.hamiltonicity import verified_cycle

__all__ = [
    "run_cre",
    "cre_step_budget",
    "CRE_FAIL_TOO_SMALL",
    "CRE_FAIL_BUDGET",
    "CRE_FAIL_STRANDED",
    "CRE_FAIL_CUT_OFF",
]

CRE_FAIL_TOO_SMALL = "too-small"
CRE_FAIL_BUDGET = "budget"
CRE_FAIL_STRANDED = "stranded"
CRE_FAIL_CUT_OFF = "cut-off"


def cre_step_budget(n: int) -> int:
    """Default step budget: the Theorem-2 scale ``O(n log n)`` with slack.

    The paper's expected move count is ``O(n)``; the extra log factor
    absorbs the rotation-heavy tail near the threshold without letting
    a hopeless instance run forever.
    """
    return dra_step_budget(n)


def run_cre(
    graph: Graph,
    *,
    seed: int = 0,
    step_budget: int | None = None,
) -> RunResult:
    """Run the CRE solver on ``graph`` (scalar reference implementation).

    Returns the standard :class:`~repro.engines.results.RunResult`:
    ``steps`` counts executed moves, ``detail`` carries the per-move
    breakdown and the failure code, ``rounds`` is 0 (sequential).
    """
    n = graph.n
    detail = {"fail": None, "extensions": 0, "rotations": 0,
              "cycle_extensions": 0}
    if n < 3:
        detail["fail"] = CRE_FAIL_TOO_SMALL
        return RunResult("cre", False, None, 0, engine="sequential",
                         detail=detail)
    budget = step_budget if step_budget is not None else cre_step_budget(n)
    rng = np.random.default_rng(seed)
    neighbors = {v: graph.neighbor_list(v) for v in range(n)}
    neighbor_sets = {v: set(nbrs) for v, nbrs in neighbors.items()}
    # Unvisited-neighbour counts, maintained incrementally: the cycle-
    # extension pivot scan needs them for every path node.
    unvisited_degree = [len(neighbors[v]) for v in range(n)]

    start = int(rng.integers(n))
    path = [start]
    pos = {start: 0}
    for w in neighbors[start]:
        unvisited_degree[w] -= 1

    def visit(w: int) -> None:
        pos[w] = len(path)
        path.append(w)
        for u in neighbors[w]:
            unvisited_degree[u] -= 1

    steps = 0
    ok = False
    while True:
        head = path[-1]
        tail = path[0]
        # Closure is the termination condition, not a budgeted move —
        # checked before the budget gate so a run whose last allowed
        # move completes the Hamilton path is a success, not a
        # "budget" failure one comparison short.
        if len(path) == n and tail in neighbor_sets[head]:
            ok = True
            break
        if steps >= budget:
            detail["fail"] = CRE_FAIL_BUDGET
            break
        steps += 1
        fresh = [w for w in neighbors[head] if w not in pos]
        if fresh:
            visit(fresh[int(rng.integers(len(fresh)))])
            detail["extensions"] += 1
            continue
        if tail in neighbor_sets[head] and len(path) < n:
            # Cycle extension: the path closes a non-spanning cycle;
            # re-open it at a pivot that can reach an unvisited node.
            pivots = [v for v in path if unvisited_degree[v] > 0]
            if not pivots:
                detail["fail"] = CRE_FAIL_CUT_OFF
                break
            pivot = pivots[int(rng.integers(len(pivots)))]
            targets = [w for w in neighbors[pivot] if w not in pos]
            target = targets[int(rng.integers(len(targets)))]
            i = pos[pivot]
            path = path[i + 1:] + path[:i + 1]
            pos = {v: j for j, v in enumerate(path)}
            visit(target)
            detail["cycle_extensions"] += 1
            continue
        # Rotation: a random on-path neighbour of the head, excluding
        # the head's predecessor (that edge is already on the path).
        pred = path[-2] if len(path) >= 2 else -1
        pivots = [w for w in neighbors[head] if w in pos and w != pred]
        if not pivots:
            detail["fail"] = CRE_FAIL_STRANDED
            break
        pivot = pivots[int(rng.integers(len(pivots)))]
        j = pos[pivot]
        segment = path[j + 1:]
        segment.reverse()
        path[j + 1:] = segment
        for offset, v in enumerate(segment):
            pos[v] = j + 1 + offset
        detail["rotations"] += 1

    cycle = verified_cycle(graph, list(path)) if ok else None
    if ok and cycle is None:
        detail["fail"] = CRE_FAIL_STRANDED
    return RunResult(
        algorithm="cre",
        success=cycle is not None,
        cycle=cycle,
        rounds=0,
        steps=steps,
        engine="sequential",
        detail=detail,
    )
