"""Fast-engine CRE: the same moves on CSR position arrays.

Replays :mod:`repro.core.cre`'s decision sequence (see that module's
decision contract) with the data layout of the array kernel: an int64
path array plus position map, and a rotation is one slice reversal
plus one fancy-indexed ``pos`` update, so long paths still scale
(:class:`~repro.engines.arraywalk.ArrayWalk` goes one step further
and moves only the shorter side of the cut).  Each step pays only for the move it makes:

* draws come from one :func:`~repro.engines.streams.trial_stream`,
  the Generator's stream in Python ints;
* an extension is one masked row slice over an unvisited-node mask;
* closure is a lookup in the tail's neighbour marks, asked only at
  ``plen == n`` or when the head has no fresh neighbour;
* a stuck head's neighbours are all on the path, so the rotation
  pivot is a draw over the sorted row that skips the predecessor;
* cycle extensions are rare, so they find their pivots in one O(m)
  pass over the unvisited mask and extensions keep no degree counts.

Same single RNG stream, same draw order, hence seed-for-seed
identical cycle, steps, and failure codes (the registry ``parity``
declaration, held by ``tests/test_engine_parity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.cre import (
    CRE_FAIL_BUDGET,
    CRE_FAIL_CUT_OFF,
    CRE_FAIL_STRANDED,
    CRE_FAIL_TOO_SMALL,
    cre_step_budget,
)
from repro.engines.streams import trial_stream
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["_cre_fast"]


def _cre_fast(
    graph: Graph,
    *,
    seed: int = 0,
    step_budget: int | None = None,
) -> RunResult:
    """The CRE solver on CSR arrays; see module docstring."""
    n = graph.n
    detail = {"fail": None, "extensions": 0, "rotations": 0,
              "cycle_extensions": 0}
    if n < 3:
        detail["fail"] = CRE_FAIL_TOO_SMALL
        return RunResult("cre", False, None, 0, engine="fast", detail=detail)
    budget = step_budget if step_budget is not None else cre_step_budget(n)
    draw = trial_stream(seed).integers
    indptr, indices = graph.indptr, graph.indices
    bounds = indptr.tolist()

    path = np.empty(n, dtype=np.int64)
    pos = np.full(n, -1, dtype=np.int64)
    free = np.ones(n, dtype=bool)
    ramp = np.arange(n, dtype=np.int64)

    head = tail = int(draw(n))
    path[0] = head
    pos[head] = 0
    free[head] = False
    plen = 1
    # Closure marks: the neighbours of the tail, which moves only on a
    # cycle extension.
    closes = np.zeros(n, dtype=bool)
    closes[indices[bounds[tail]:bounds[tail + 1]]] = True

    steps = extensions = 0
    ok = False
    while True:
        row = indices[bounds[head]:bounds[head + 1]]
        # Closure precedes the budget gate (see the reference
        # implementation): it is the termination condition, not a move.
        # Below n it is only asked once the head has no fresh neighbour.
        if plen == n and closes[head]:
            ok = True
            break
        if steps >= budget:
            detail["fail"] = CRE_FAIL_BUDGET
            break
        steps += 1
        if plen < n:
            fresh = row[free[row]]
            if fresh.size:
                head = int(fresh[draw(fresh.size)])
                pos[head] = plen
                free[head] = False
                path[plen] = head
                plen += 1
                extensions += 1
                continue
            if closes[head]:
                # Cycle extension: re-open the (head, tail) cycle at a
                # pivot with an unvisited neighbour, in path order.
                free_upto = np.zeros(indices.size + 1, dtype=np.int64)
                np.cumsum(free[indices], out=free_upto[1:])
                on_path = path[:plen]
                pivots = on_path[free_upto[indptr[on_path + 1]]
                                 > free_upto[indptr[on_path]]]
                if pivots.size == 0:
                    detail["fail"] = CRE_FAIL_CUT_OFF
                    break
                pivot = int(pivots[draw(pivots.size)])
                pivot_row = indices[bounds[pivot]:bounds[pivot + 1]]
                targets = pivot_row[free[pivot_row]]
                head = int(targets[draw(targets.size)])
                i = int(pos[pivot])
                path[:plen] = np.concatenate((path[i + 1:plen], path[:i + 1]))
                pos[path[:plen]] = ramp[:plen]
                tail = int(path[0])
                closes[:] = False
                closes[indices[bounds[tail]:bounds[tail + 1]]] = True
                pos[head] = plen
                free[head] = False
                path[plen] = head
                plen += 1
                detail["cycle_extensions"] += 1
                continue
        # Rotation: every neighbour of the head is on the path, so the
        # choice set is the sorted row minus the head's predecessor.
        degree = row.size
        if plen < 2 or degree < 2:
            detail["fail"] = CRE_FAIL_STRANDED
            break
        k = int(draw(degree - 1))
        if k >= row.searchsorted(path[plen - 2]):
            k += 1
        j = int(pos[row[k]])
        path[j + 1:plen] = path[plen - 1:j:-1]
        pos[path[j + 1:plen]] = ramp[j + 1:plen]
        head = int(path[plen - 1])
        detail["rotations"] += 1
    detail["extensions"] = extensions

    cycle = verified_cycle(graph, path[:plen].tolist()) if ok else None
    if ok and cycle is None:
        detail["fail"] = CRE_FAIL_STRANDED
    return RunResult(
        algorithm="cre",
        success=cycle is not None,
        cycle=cycle,
        rounds=0,
        steps=steps,
        engine="fast",
        detail=detail,
    )
