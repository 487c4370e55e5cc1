"""A1 — bridge availability per level-1 merge pair in DHC2's Phase 2.

The reproduction commits to a deterministic rule (prefer
``w' = succ(w)``; min-``w`` per active node; min-``(v, w)`` globally;
see :mod:`repro.core.merge`).  This benchmark
counts how many bridge candidates exist per level-1 merge pair, which
shows the selection rule has plenty of slack (Lemma 8's "many bridges"
claim), and checks that the fast engine's merge (``_merge_pair``) joins
every such pair.  It asserts at least one candidate per pair and a mean
above three.

The level-1 partition cycles are read from the ``trace`` of the fast
engine's own run (``trace["phase1"].cycles`` from
:func:`~repro.engines.fast_dhc2._dhc2_fast`), so they are the cycles it
merged.
"""

from repro.engines.fast_dhc2 import _dhc2_fast, _merge_pair
from repro.graphs import gnp_random_graph, paper_probability

from benchmarks.conftest import show


def _bridge_count(graph, a_cycle, b_cycle):
    count = 0
    s_b = len(b_cycle)
    b_pos = {v: i for i, v in enumerate(b_cycle)}
    b_set = set(b_cycle)
    for v_pos, v in enumerate(a_cycle):
        u = a_cycle[(v_pos + 1) % len(a_cycle)]
        for w in graph.neighbors(v):
            w = int(w)
            if w not in b_set:
                continue
            wp_succ = b_cycle[(b_pos[w] + 1) % s_b]
            wp_pred = b_cycle[(b_pos[w] - 1) % s_b]
            count += graph.has_edge(u, wp_succ) + graph.has_edge(u, wp_pred)
    return count


def test_a1_bridge_selection_ablation(benchmark):
    n, delta, c = 512, 0.5, 8.0
    p = paper_probability(n, delta, c)
    g = gnp_random_graph(n, p, seed=41)

    trace: dict = {}
    res = _dhc2_fast(g, delta=delta, seed=42, trace=trace)
    assert res.success
    k = res.detail["k"]
    cycles = trace["phase1"].cycles
    assert len(cycles) == k
    assert sum(len(cyc) for cyc in cycles.values()) == n

    rows = []
    for a in range(1, k, 2):
        if a + 1 > k:
            break
        bridges = _bridge_count(g, cycles[a], cycles[a + 1])
        merged_min = _merge_pair(g, cycles[a], cycles[a + 1])
        rows.append((f"({a},{a + 1})", bridges, merged_min is not None))
        assert bridges >= 1
        assert merged_min is not None
    show(f"A1: bridge availability per level-1 pair (n={n}, K={k})",
         ["pair", "candidate_bridges", "min_rule_merges"], rows)
    avg = sum(r[1] for r in rows) / len(rows)
    print(f"mean candidate bridges per pair: {avg:.1f} "
          f"(Lemma 8 expects an abundance, ~p^2 * |A||B| pairs)")
    assert avg > 3  # selection rule has real slack
    benchmark.extra_info["rows"] = rows
    benchmark.pedantic(_bridge_count, args=(g, cycles[1], cycles[2]),
                       rounds=1, iterations=1)
