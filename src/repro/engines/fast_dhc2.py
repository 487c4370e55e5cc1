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
(:func:`repro.engines.phase1_replay.replay_phase1` — also what native
k-machine DHC1 runs) on the array kernel (:mod:`repro.engines.arraywalk`)
over a colour-filtered CSR built in one vectorised pass.  The
pure-Python parity oracle (once registered as ``engine="fast-py"``)
lives in ``tests/oracles.py`` and imports :func:`_phase2` and
:func:`_fail` from here: Phase 2 is deterministic and shared verbatim
by both.  Its replay stops each merge at the first valid bridge in
``(v, w)`` order, which is the one the protocol selects.

The native k-machine engine does not re-run DHC2: it calls
:func:`_dhc2_fast` with the internal ``trace=`` dict and charges its
link ledger from the recorded Phase-1 classes and merges (including
the full bridge scan every class-A node makes).
"""

from __future__ import annotations

from repro.analysis.bounds import class_size_cap, diameter_budget
from repro.core.dhc2 import default_color_count
from repro.core.phase1 import colors_at_level, merge_levels, resolve_colors
from repro.engines.phase1_replay import replay_phase1
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["_dhc2_fast"]


def _dhc2_fast(
    graph: Graph,
    *,
    delta: float = 0.5,
    k: int | None = None,
    seed: int = 0,
    trace: dict | None = None,
) -> RunResult:
    """Algorithm 3 with Phase 1 on the array kernel.

    ``trace``, if given, receives Phase 1's per-class records
    (``classes``, see :func:`~repro.engines.phase1_replay.replay_phase1`),
    its result ``phase1`` and the successful pair merges ``merges``,
    without perturbing any decision; the native k-machine engine
    charges from it.
    """
    from repro.engines.streams import node_streams

    n = graph.n
    colors = resolve_colors(k, lambda: default_color_count(n, delta))
    rngs = node_streams(seed, n)
    if trace is not None:
        trace.update(classes=[], merges=[])

    # -- Phase 1: colour draw + every partition walk -----------------------------
    phase1_start = 1 + diameter_budget(class_size_cap(n, colors))  # colour round + election
    p1 = replay_phase1(graph, rngs, colors, start_round=phase1_start,
                       trace=None if trace is None else trace["classes"])
    if trace is not None:
        trace["phase1"] = p1
    if not p1.ok:
        return _fail(n, colors, p1.fail_round, p1.fail_reason, "fast")

    return _phase2(graph, p1.cycles, colors, p1.phase1_end, p1.steps, "fast",
                   trace=None if trace is None else trace["merges"])


def _phase2(graph: Graph, cycles: dict[int, list[int]], colors: int,
            phase1_end: int, steps: int, engine: str,
            trace: list | None = None) -> RunResult:
    """Phase 2: deterministic merges (identical for both Phase-1 paths).

    ``trace``, if given, receives an ``(a_cycle, b_cycle, merged)``
    record per successful pair merge, in execution order.
    """
    n = graph.n
    rounds = phase1_end
    levels = merge_levels(colors)
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
            merged = _merge_pair(graph, a_members, b_members)
            if merged is None:
                return _fail(n, colors, rounds, "no-bridge", engine)
            if trace is not None:
                trace.append((a_members, b_members, merged))
            next_cycles[new_color] = merged
            rounds += _level_cost(len(merged))
        cycles = next_cycles

    final = cycles.get(1)
    if final is not None and len(final) == n:
        # Normalise to start at node 0 (the congest engine's convention),
        # keeping the successor direction.
        start = final.index(0)
        final = verified_cycle(graph, final[start:] + final[:start])
    else:
        final = None
    return RunResult(
        algorithm="dhc2",
        success=final is not None,
        cycle=final,
        rounds=rounds,
        steps=steps,
        engine=engine,
        detail={"k": colors, "levels": levels},
    )


def _level_cost(merged_size: int) -> int:
    """Structural per-merge round estimate (see module docstring)."""
    diam = diameter_budget(merged_size)
    return 24 + 8 * diam


def _merge_pair(graph: Graph, a_cycle: list[int], b_cycle: list[int]):
    """Replay the deterministic bridge selection and splice the cycles.

    Mirrors :class:`repro.core.merge.MergeMachine`: per active node ``v``
    (with successor ``u``), each partner-colour neighbour ``w`` answers
    with ``w' = succ(w)`` preferred over ``pred(w)``; ``v`` keeps the
    smallest ``w``; the winner is the smallest ``(v, w)``.  Trying A's
    nodes in ascending id and each one's B-neighbours in ascending
    order makes the first valid pair that winner, so the scan stops
    there.  Returns ``None`` without a bridge.
    """
    has_edge = graph.has_edge
    s_a, s_b = len(a_cycle), len(b_cycle)
    b_pos = {w: i for i, w in enumerate(b_cycle)}
    for v_pos in sorted(range(s_a), key=a_cycle.__getitem__):
        u_pos = (v_pos + 1) % s_a
        u = a_cycle[u_pos]
        for w in graph.neighbor_list(a_cycle[v_pos]):
            w_pos = b_pos.get(w)
            if w_pos is None:
                continue
            if has_edge(u, b_cycle[(w_pos + 1) % s_b]):
                # w' = succ(w): walk B backwards from w.
                b_seq = b_cycle[w_pos::-1] + b_cycle[:w_pos:-1]
            elif has_edge(u, b_cycle[w_pos - 1]):
                # w' = pred(w): keep B's orientation.
                b_seq = b_cycle[w_pos:] + b_cycle[:w_pos]
            else:
                continue
            # w ... w', u ... v  (closes v -> w)
            return b_seq + a_cycle[u_pos:] + a_cycle[:u_pos]
    return None


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
