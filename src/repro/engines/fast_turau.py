"""Fast-engine Turau: identical merge decisions, estimated rounds.

Replays :mod:`repro.core.turau`'s path-merging protocol centrally on
int64 link/position arrays: the proposal round is one vectorised
min-id accept, each merge phase draws the *same per-node RNG streams
in the same order* as the CONGEST protocol (one candidate pick over
the same sorted candidate list), and path bookkeeping (the
far-endpoint/length pairs the distributed tokens deliver) is
recomputed by walking the committed links — exactly the information a
stamp-``l`` token carries, including its *timing*: an endpoint is
fresh for phase ``l + 1`` iff its path length fits the phase window
(``len <= W_l + 2``), which is precisely the condition under which the
distributed token arrives before the next announce round (tokens walk
one hop per round and are uncontended by construction — path edge
sets are vertex-disjoint and launches are spaced a full phase apart).

Cycle, steps, failure codes, phase counts, and initial path counts
are therefore seed-for-seed identical to ``engine="congest"`` (the
registry ``parity`` declaration; ``tests/test_engine_parity.py``
holds it across a model/size/density grid).  Rounds are a structural
estimate (closure round plus a done-flood eccentricity), like the
DHC2 fast engine's Phase-2 accounting.
"""

from __future__ import annotations

import numpy as np

from repro.core.turau import (
    FAIL_NO_CLOSURE_EDGE,
    FAIL_PHASE_BUDGET,
    FAIL_TOO_SMALL,
    cycle_from_links,
    phase_starts,
    phase_windows,
    role_bit,
    turau_phase_budget,
)
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.graphs.properties import eccentricity
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["_turau_fast"]

class _LinkState:
    """Committed path links (two slots per node) and path walks."""

    def __init__(self, n: int):
        self.n = n
        self.slot_a = np.full(n, -1, dtype=np.int64)
        self.slot_b = np.full(n, -1, dtype=np.int64)

    def commit(self, u: int, v: int) -> None:
        for me, peer in ((u, v), (v, u)):
            if self.slot_a[me] < 0:
                self.slot_a[me] = peer
            else:
                self.slot_b[me] = peer

    def degrees(self) -> np.ndarray:
        return (self.slot_a >= 0).astype(np.int64) + (self.slot_b >= 0)

    def links_of(self, v: int) -> list[int]:
        return [int(w) for w in (self.slot_a[v], self.slot_b[v]) if w >= 0]

    def walk_paths(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(far, plen, deg): the pairs the distributed tokens deliver.

        ``far[v]`` / ``plen[v]`` are meaningful for endpoints
        (``deg == 1``) and singletons (``deg == 0``, ``far = v``,
        ``plen = 1``); interior nodes keep ``far = -1``.
        """
        n = self.n
        deg = self.degrees()
        far = np.full(n, -1, dtype=np.int64)
        plen = np.zeros(n, dtype=np.int64)
        singles = deg == 0
        far[singles] = np.flatnonzero(singles)
        plen[singles] = 1
        seen = np.zeros(n, dtype=bool)
        slot_a, slot_b = self.slot_a, self.slot_b
        for v in np.flatnonzero(deg == 1):
            if seen[v]:
                continue
            seen[v] = True
            length = 1
            prev, cur = int(v), int(slot_a[v])
            while True:
                seen[cur] = True
                length += 1
                a, b = int(slot_a[cur]), int(slot_b[cur])
                nxt = a if b == prev else (b if a == prev else -1)
                if nxt < 0:
                    break
                prev, cur = cur, nxt
            far[v], far[cur] = cur, v
            plen[v] = plen[cur] = length
        return far, plen, deg


def _turau_fast(
    graph: Graph,
    *,
    seed: int = 0,
    phase_budget: int | None = None,
    trace: dict | None = None,
) -> RunResult:
    """Turau path merging replayed on arrays; see module docstring.

    ``trace``, if given, is filled with the replay's communication
    schedule — the proposal endpoints, each phase's request/grant
    pairs, and the closure flood source — without perturbing any
    decision.  The native k-machine engine uses it to bin the
    protocol's traffic onto machine links.
    """
    from repro.engines.streams import first_draws, node_streams

    n = graph.n
    if trace is not None:
        trace.update(proposals=None, phases=[], flood_source=-1)
    if n < 3:
        return RunResult("turau", False, None, 0, engine="fast",
                         detail={"fail": FAIL_TOO_SMALL, "phases": 0,
                                 "initial_paths": n})
    budget = max(1, phase_budget if phase_budget is not None
                 else turau_phase_budget(n))
    windows = phase_windows(n, budget)
    starts = phase_starts(n, budget)
    rngs = node_streams(seed, n)
    indptr, indices = graph.indptr, graph.indices

    links = _LinkState(n)
    steps = 0

    # -- proposal round: each node picks one random higher-id neighbour,
    # each target accepts its minimum-id proposer --------------------------------
    # v's higher-id neighbours are the tail of its sorted row; a node
    # with none draws nothing, the others draw as one vector.
    above = np.zeros(indices.size + 1, dtype=np.int64)
    np.cumsum(np.repeat(np.arange(n), np.diff(indptr)) < indices, out=above[1:])
    higher = above[indptr[1:]] - above[indptr[:-1]]
    pick = first_draws(rngs, higher)
    proposers = np.flatnonzero(higher)
    propose = np.full(n, -1, dtype=np.int64)
    propose[proposers] = indices[
        indptr[proposers + 1] - higher[proposers] + pick[proposers]]
    # Sorting by (target, proposer) makes the first entry per target the
    # min-id winner — the acceptance rule of the distributed round.
    order = np.lexsort((proposers, propose[proposers]))
    targets = propose[proposers][order]
    winners = proposers[order]
    first = np.ones(targets.size, dtype=bool)
    first[1:] = targets[1:] != targets[:-1]
    for v, w in zip(winners[first], targets[first]):
        links.commit(int(v), int(w))
        steps += 1
    if trace is not None:
        trace["proposals"] = (proposers, propose[proposers])
        trace["accepts"] = (targets[first], winners[first])

    deg0 = links.degrees()
    initial_paths = int((deg0 == 0).sum()) + int((deg0 == 1).sum()) // 2

    # -- merge phases -------------------------------------------------------------
    phases_used = budget
    fail: str | None = FAIL_PHASE_BUDGET
    closure_at = -1
    flood_source = -1
    for ell in range(1, budget + 1):
        far, plen, deg = links.walk_paths()
        window = windows[ell - 1]
        endpoints = np.flatnonzero(deg == 1)
        fresh = endpoints[plen[endpoints] <= window + 2]
        spanning = fresh[plen[fresh] == n]
        if spanning.size:
            # One path covers every node and both (fresh) endpoints know
            # it; the smaller endpoint attempts closure.
            e = int(spanning.min())
            f = int(far[e])
            phases_used = ell
            row = indices[indptr[e]:indptr[e + 1]]
            if (row == f).any():
                links.commit(e, f)
                steps += 1
                fail = None
            else:
                fail = FAIL_NO_CLOSURE_EDGE
            closure_at = starts[ell - 1]
            flood_source = f if fail is None else e
            if trace is not None:
                trace["flood_source"] = flood_source
            break
        # Role designation per path end, driven by the phase index and
        # the path id's bits (see :func:`repro.core.turau.role_bit`).
        participants = np.sort(np.concatenate((np.flatnonzero(deg == 0), fresh)))
        pid = {int(v): min(int(v), int(far[v])) for v in participants}
        passive: set[int] = set()
        requesters: list[int] = []
        for v in participants:
            v = int(v)
            f = int(far[v])
            r = role_bit(pid[v], ell, n)
            if f == v:  # singleton: its one end alternates roles
                may_request = bool(r)
            else:
                request_end = pid[v] if r else max(v, f)
                may_request = v == request_end
            if may_request:
                requesters.append(v)
            else:
                passive.add(v)
        choice: dict[int, int] = {}
        for a in requesters:  # id order (participants are sorted)
            row = indices[indptr[a]:indptr[a + 1]]
            candidates = [int(w) for w in row
                          if int(w) in passive and pid[int(w)] > pid[a]]
            if candidates:  # CSR rows are sorted, hence so is the list
                choice[a] = candidates[int(rngs[a].integers(len(candidates)))]
        accepted: dict[int, int] = {}
        for a, b in choice.items():
            if b not in accepted or a < accepted[b]:
                accepted[b] = a
        for b, a in sorted(accepted.items()):
            links.commit(a, b)
            steps += 1
        if trace is not None:
            trace["phases"].append({
                "participants": int(participants.size),
                "window": int(window),
                "announcers": np.array(sorted(passive), dtype=np.int64),
                "requests": np.array(sorted(choice.items()),
                                     dtype=np.int64).reshape(-1, 2),
                "grants": np.array(sorted(accepted.items()),
                                   dtype=np.int64).reshape(-1, 2),
            })

    # -- result assembly ----------------------------------------------------------
    cycle = None
    if fail is None:
        cycle = verified_cycle(
            graph, cycle_from_links([links.links_of(v) for v in range(n)]))
        if cycle is None:
            fail = FAIL_PHASE_BUDGET
    if closure_at >= 0:
        # A spanning path exists at closure time, so the graph is
        # connected and the flood cost is the source's eccentricity.
        rounds = closure_at + 1 + eccentricity(graph, flood_source)
    else:
        rounds = starts[-1]
    return RunResult(
        algorithm="turau",
        success=cycle is not None,
        cycle=cycle,
        rounds=rounds,
        steps=steps,
        engine="fast",
        detail={"fail": fail, "phases": phases_used,
                "initial_paths": initial_paths},
    )
