"""Fast-engine DHC2: identical cycles, estimated rounds.

Phase 1 replays exactly (same colour draws, same per-partition trees
and walk RNG streams as the CONGEST protocol — integration tests assert
the per-partition cycles match).  Phase 2's bridge selection is fully
deterministic (no randomness), so the merge sequence and final
Hamiltonian cycle are likewise identical.

Rounds: Phase 1 is computed with the exact event recursion of
:mod:`repro.engines.fast`; Phase 2 merge levels use a structural
estimate (verify/verdict handshake + convergecast + floods + tree
rebuild, each a small multiple of the class diameter), since the
event-driven CONGEST implementation's exact timing depends on queue
pacing.  Cross-engine tests bound the ratio; scaling *shape* (the
``n**delta`` exponent of Theorem 10) is unaffected.

``engine="fast"`` replays Phase 1 through the shared replay core
(:mod:`repro.engines.phase1_replay` — also what the native k-machine
DHC1/DHC2 engines consume) on the array kernel
(:mod:`repro.engines.arraywalk`) over a colour-filtered CSR built in
one vectorised pass; ``_dhc2_fast_py`` keeps the pure-Python walker
as a test-only parity oracle (formerly registered as
``engine="fast-py"``, retired after its deprecation release).
Phase 2 is deterministic and shared verbatim by both.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import diameter_budget, dra_step_budget
from repro.core.dhc2 import default_color_count
from repro.core.phase1 import colors_at_level, merge_levels
from repro.engines.fast import _FastWalk, bfs_completion_round, build_min_id_bfs_tree
from repro.engines.phase1_replay import color_partition, replay_partition_walks
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph, csr_sources
from repro.verify.hamiltonicity import CycleViolation, verify_cycle

__all__ = ["_dhc2_fast"]


def _dhc2_fast(
    graph: Graph,
    *,
    delta: float = 0.5,
    k: int | None = None,
    seed: int = 0,
) -> RunResult:
    """Algorithm 3 with Phase 1 on the array kernel."""
    from repro.engines.batchwalk import node_streams

    n = graph.n
    colors = k if k is not None else default_color_count(n, delta)
    rngs = node_streams(seed, n)

    color_of, sub_indptr, sub_indices, twins, alive = color_partition(
        graph, rngs, colors)

    # -- Phase 1: replay every partition walk ------------------------------------
    elect_budget = diameter_budget(max(3, (2 * n) // max(1, colors)))
    phase1_start = 1 + elect_budget  # colour round + election deadline
    p1 = replay_partition_walks(
        indptr=sub_indptr, indices=sub_indices, twins=twins, alive=alive,
        rngs=rngs, color_of=color_of, colors=colors,
        start_round=phase1_start)
    if not p1.ok:
        return _fail(n, colors, p1.fail_round, p1.fail_reason, "fast")

    return _phase2(graph, p1.cycles, colors, p1.phase1_end, p1.steps, "fast")


def _dhc2_fast_py(
    graph: Graph,
    *,
    delta: float = 0.5,
    k: int | None = None,
    seed: int = 0,
) -> RunResult:
    """Algorithm 3 on the pure-Python walker (the kernel's parity oracle)."""
    n = graph.n
    colors = k if k is not None else default_color_count(n, delta)
    seeds = np.random.SeedSequence(seed).spawn(n) if n else []
    rngs = [np.random.default_rng(s) for s in seeds]

    color_of = np.array([1 + int(rngs[v].integers(colors)) for v in range(n)], dtype=np.int64)
    classes: dict[int, list[int]] = {c: [] for c in range(1, colors + 1)}
    for v in range(n):
        classes[int(color_of[v])].append(v)

    def same_color_neighbors(v: int) -> list[int]:
        return [int(w) for w in graph.neighbors(v) if color_of[w] == color_of[v]]

    # -- Phase 1: replay every partition walk ------------------------------------
    elect_budget = diameter_budget(max(3, (2 * n) // max(1, colors)))
    phase1_start = 1 + elect_budget  # colour round + election deadline
    cycles: dict[int, list[int]] = {}
    steps = 0
    phase1_end = phase1_start
    for c, members in classes.items():
        if not members:
            return _fail(n, colors, phase1_start, "empty-partition", "fast-py")
        tree = build_min_id_bfs_tree(members, same_color_neighbors, root=min(members))
        if tree is None:
            return _fail(n, colors, phase1_start, "partition-disconnected",
                         "fast-py")
        finish = bfs_completion_round(tree, same_color_neighbors, phase1_start)
        walk = _FastWalk(
            size=len(members),
            edges_of=lambda v: [(w, 0, 0) for w in same_color_neighbors(v)],
            rngs=rngs,
            initial_head=tree.root,
            step_budget=dra_step_budget(len(members)),
            tree_depth=max(1, tree.tree_depth),
            start_round=finish + 1,
        )
        walk.run()
        steps = max(steps, walk.steps)
        if not walk.success:
            return _fail(n, colors, walk.end_round, f"walk-{walk.fail_code}",
                         "fast-py")
        cycles[c] = walk.cycle()
        phase1_end = max(phase1_end, walk.end_round + tree.eccentricity(walk.flood_initiator))

    return _phase2(graph, cycles, colors, phase1_end, steps, "fast-py")


def _phase2(graph: Graph, cycles: dict[int, list[int]], colors: int,
            phase1_end: int, steps: int, engine: str,
            observer=None) -> RunResult:
    """Phase 2: deterministic merges (identical for both Phase-1 paths).

    ``observer(a_cycle, b_cycle, merged)``, if given, sees every
    successful pair merge in execution order without perturbing it —
    the native k-machine engine charges bridge-scan traffic there.
    """
    n = graph.n
    rounds = phase1_end
    levels = merge_levels(colors)
    keys = _edge_keys(graph)  # shared by every vectorised bridge scan
    for level in range(1, levels + 1):
        remaining = colors_at_level(colors, level)
        next_cycles: dict[int, list[int]] = {}
        for a_color in range(1, remaining + 1, 2):
            b_color = a_color + 1
            new_color = (a_color + 1) // 2
            a_members = cycles.get(a_color)
            if b_color > remaining:
                if a_members is None:
                    return _fail(n, colors, rounds, "missing-class", engine)
                next_cycles[new_color] = a_members
                continue
            b_members = cycles.get(b_color)
            if a_members is None or b_members is None:
                return _fail(n, colors, rounds, "missing-class", engine)
            merged = _merge_pair_vec(graph, a_members, b_members, keys)
            if merged is None:
                return _fail(n, colors, rounds, "no-bridge", engine)
            if observer is not None:
                observer(a_members, b_members, merged)
            next_cycles[new_color] = merged
            rounds += _level_cost(len(merged))
        cycles = next_cycles

    final = cycles.get(1)
    ok = final is not None and len(final) == n
    if ok:
        # Normalise to start at node 0 (the congest engine's convention),
        # keeping the successor direction.
        start = final.index(0)
        final = final[start:] + final[:start]
        try:
            verify_cycle(graph, final)
        except CycleViolation:
            ok = False
    return RunResult(
        algorithm="dhc2",
        success=bool(ok),
        cycle=final if ok else None,
        rounds=rounds,
        steps=steps,
        engine=engine,
        detail={"k": colors, "levels": levels},
    )


def _level_cost(merged_size: int) -> int:
    """Structural per-merge round estimate (see module docstring)."""
    diam = diameter_budget(merged_size)
    return 24 + 8 * diam


def _merge_pair(graph: Graph, a_cycle: list[int], b_cycle: list[int], has_edge):
    """Replay the deterministic bridge selection and splice the cycles.

    Mirrors :class:`repro.core.merge.MergeMachine`: per active node ``v``
    (with successor ``u``), each partner-colour neighbour ``w`` answers
    with ``w' = succ(w)`` preferred over ``pred(w)``; ``v`` keeps the
    smallest ``w``; the winner is the smallest ``(v, w)``.

    With the graph's own adjacency test (the normal case) the candidate
    scan runs vectorised over the CSR; a caller-supplied ``has_edge``
    (e.g. an ablated rule) takes the reference Python path.
    """
    if has_edge == graph.has_edge:
        return _merge_pair_vec(graph, a_cycle, b_cycle)
    return _merge_pair_py(graph, a_cycle, b_cycle, has_edge)


def _edge_keys(graph: Graph) -> np.ndarray:
    """Sorted ``src * n + dst`` keys of the directed edges (CSR order)."""
    return csr_sources(graph.indptr) * graph.n + graph.indices


def _merge_pair_vec(graph: Graph, a_cycle: list[int], b_cycle: list[int],
                    keys: np.ndarray | None = None):
    """Vectorised bridge selection: one masked scan over A's CSR rows.

    The winner is the lexicographically smallest valid ``(v, w)`` with
    ``w' = succ(w)`` preferred at that pair — exactly the selection the
    per-node Python loop makes, so both produce the same splice.
    """
    from repro.engines.arraywalk import gather_neighbors

    n = graph.n
    s_a, s_b = len(a_cycle), len(b_cycle)
    a_arr = np.asarray(a_cycle, dtype=np.int64)
    b_arr = np.asarray(b_cycle, dtype=np.int64)
    a_pos = np.empty(n, dtype=np.int64)
    a_pos[a_arr] = np.arange(s_a, dtype=np.int64)
    succ_a = np.empty(n, dtype=np.int64)
    succ_a[a_arr] = np.roll(a_arr, -1)
    in_b = np.zeros(n, dtype=bool)
    in_b[b_arr] = True
    b_pos = np.empty(n, dtype=np.int64)
    b_pos[b_arr] = np.arange(s_b, dtype=np.int64)
    b_succ = np.empty(n, dtype=np.int64)
    b_succ[b_arr] = np.roll(b_arr, -1)
    b_pred = np.empty(n, dtype=np.int64)
    b_pred[b_arr] = np.roll(b_arr, 1)

    # Directed candidate edges v -> w with v in A, w in B.
    indptr, indices = graph.indptr, graph.indices
    counts = indptr[a_arr + 1] - indptr[a_arr]
    v_e = np.repeat(a_arr, counts)
    w_e = gather_neighbors(indptr, indices, a_arr)
    keep = in_b[w_e]
    v_e, w_e = v_e[keep], w_e[keep]
    if v_e.size == 0:
        return None

    # Pair-membership tests u—w' as one searchsorted over the sorted
    # directed-edge key array (CSR order is (src, dst)-sorted already).
    if keys is None:
        keys = _edge_keys(graph)
    u_e = succ_a[v_e] * n
    present = _pairs_present(
        keys, np.concatenate((u_e + b_succ[w_e], u_e + b_pred[w_e])))
    ok_succ, ok_pred = present[:v_e.size], present[v_e.size:]
    valid = ok_succ | ok_pred
    if not valid.any():
        return None
    v_e, w_e, ok_succ = v_e[valid], w_e[valid], ok_succ[valid]
    at_v = v_e == v_e.min()
    w_at_v = w_e[at_v]
    j = int(np.argmin(w_at_v))
    v, w = int(v_e[at_v][j]), int(w_at_v[j])
    direction = 0 if bool(ok_succ[at_v][j]) else 1

    w_pos = int(b_pos[w])
    if direction == 0:  # w' = succ(w): walk B backwards from w
        b_seq = b_arr[(w_pos - np.arange(s_b, dtype=np.int64)) % s_b]
    else:  # w' = pred(w): keep B's orientation
        b_seq = np.roll(b_arr, -w_pos)
    u_pos = (int(a_pos[v]) + 1) % s_a
    a_seq = np.roll(a_arr, -u_pos)  # u ... v
    return np.concatenate((b_seq, a_seq)).tolist()  # w ... w', u ... v


def _pairs_present(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether each query key appears in the sorted key array."""
    if sorted_keys.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    slots = np.searchsorted(sorted_keys, queries)
    slots[slots == sorted_keys.size] = 0  # any in-range slot; compared next
    return sorted_keys[slots] == queries


def _merge_pair_py(graph: Graph, a_cycle: list[int], b_cycle: list[int],
                   has_edge):
    """Reference per-node scan, kept for ablations with a custom rule."""
    s_a, s_b = len(a_cycle), len(b_cycle)
    b_pos = {v: i for i, v in enumerate(b_cycle)}
    b_set = set(b_cycle)
    best = None  # (v, w, u, wp, direction, w_pos, v_pos)
    for v_pos, v in enumerate(a_cycle):
        u = a_cycle[(v_pos + 1) % s_a]
        local = None
        for w in graph.neighbors(v):
            w = int(w)
            if w not in b_set:
                continue
            wp_succ = b_cycle[(b_pos[w] + 1) % s_b]
            wp_pred = b_cycle[(b_pos[w] - 1) % s_b]
            if has_edge(u, wp_succ):
                cand = (w, wp_succ, 0)
            elif has_edge(u, wp_pred):
                cand = (w, wp_pred, 1)
            else:
                continue
            if local is None or cand[0] < local[0]:
                local = cand
        if local is not None:
            cand = (v, local[0], u, local[1], local[2], b_pos[local[0]], v_pos)
            if best is None or (cand[0], cand[1]) < (best[0], best[1]):
                best = cand
    if best is None:
        return None
    v, w, u, wp, direction, w_pos, v_pos = best
    if direction == 0:  # w' = succ(w): walk B backwards from w
        b_seq = [b_cycle[(w_pos - t) % s_b] for t in range(s_b)]
    else:  # w' = pred(w): keep B's orientation
        b_seq = [b_cycle[(w_pos + t) % s_b] for t in range(s_b)]
    u_pos = (v_pos + 1) % s_a
    a_seq = a_cycle[u_pos:] + a_cycle[:u_pos]  # u ... v
    return b_seq + a_seq  # w ... w' , u ... v  (closes v -> w)


def _fail(n: int, colors: int, rounds: int, reason: str,
          engine: str = "fast") -> RunResult:
    return RunResult(
        algorithm="dhc2",
        success=False,
        cycle=None,
        rounds=rounds,
        engine=engine,
        detail={"k": colors, "levels": merge_levels(colors), "fail": reason},
    )
