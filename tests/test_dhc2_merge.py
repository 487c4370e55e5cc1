"""DHC2 Phase 2's pair merge (``fast_dhc2._merge_pair``) against an oracle.

The oracle enumerates every valid bridge ``(v, w, direction)`` — ``v``
in A with successor ``u``, ``w`` a graph neighbour of ``v`` in B, and
``u`` adjacent to ``w' = succ(w)`` (direction 0) or ``pred(w)``
(direction 1) — and splices at the minimum, which is the protocol's
rule: smallest ``(v, w)``, ``succ(w)`` preferred.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.fast_dhc2 import _merge_pair
from repro.graphs import Graph


def oracle_merge(graph, a_cycle, b_cycle):
    s_a, s_b = len(a_cycle), len(b_cycle)
    valid = []
    for v_pos, v in enumerate(a_cycle):
        u = a_cycle[(v_pos + 1) % s_a]
        for w_pos, w in enumerate(b_cycle):
            if not graph.has_edge(v, w):
                continue
            for direction, step in ((0, 1), (1, -1)):
                if graph.has_edge(u, b_cycle[(w_pos + step) % s_b]):
                    valid.append((v, w, direction, v_pos, w_pos))
    if not valid:
        return None
    _v, _w, direction, v_pos, w_pos = min(valid)
    step = -1 if direction == 0 else 1  # walk B away from w'
    b_seq = [b_cycle[(w_pos + step * t) % s_b] for t in range(s_b)]
    a_seq = [a_cycle[(v_pos + 1 + t) % s_a] for t in range(s_a)]
    return b_seq + a_seq


def cycle_edges(cycle):
    return {frozenset((cycle[i], cycle[(i + 1) % len(cycle)]))
            for i in range(len(cycle))}


@st.composite
def merge_inputs(draw, small_side=None):
    """A graph on ``n`` nodes plus two cyclic orders splitting its nodes."""
    n = draw(st.integers(2, 14))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    graph = Graph(n, [e for e, k in zip(pairs, keep) if k])
    order = draw(st.permutations(range(n)))
    if small_side is None:
        cut = draw(st.integers(1, n - 1))
    else:
        cut = min(draw(st.sampled_from(small_side)), n - 1)
        if draw(st.booleans()):
            cut = n - cut  # the small side is B
    return graph, list(order[:cut]), list(order[cut:])


class TestMergePair:
    @given(merge_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, inputs):
        graph, a, b = inputs
        assert _merge_pair(graph, a, b) == oracle_merge(graph, a, b)

    @given(merge_inputs(small_side=(1, 2)))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_with_a_tiny_side(self, inputs):
        graph, a, b = inputs
        assert min(len(a), len(b)) <= 2
        assert _merge_pair(graph, a, b) == oracle_merge(graph, a, b)

    @given(merge_inputs())
    @settings(max_examples=200, deadline=None)
    def test_merged_is_a_cycle_of_the_union_through_one_bridge(self, inputs):
        graph, a, b = inputs
        merged = _merge_pair(graph, a, b)
        if merged is None:
            return
        assert sorted(merged) == sorted(a + b)
        extra = cycle_edges(merged) - cycle_edges(a) - cycle_edges(b)
        # The two bridge edges {v, w} and {u, w'}; they can coincide
        # with cycle edges when a side has one or two nodes.
        assert len(extra) <= 2
        for edge in extra:
            x, y = tuple(edge)
            assert graph.has_edge(x, y)

    def test_no_cross_edge_is_no_bridge(self):
        graph = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert _merge_pair(graph, [0, 1, 2], [3, 4, 5]) is None

    def test_cross_edge_without_closing_edge_is_no_bridge(self):
        graph = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                          (0, 3)])
        assert _merge_pair(graph, [0, 1, 2], [3, 4, 5]) is None

    def test_single_nodes_join_into_a_two_cycle(self):
        graph = Graph(2, [(0, 1)])
        assert _merge_pair(graph, [0], [1]) == [1, 0]

    def test_succ_is_preferred_over_pred(self):
        # A's smallest node 0 sees B's 3, and u = 1 closes to both
        # succ(3) = 4 and pred(3) = 5; without {1, 4} only pred remains.
        base = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 5)]
        a, b = [0, 1, 2], [3, 4, 5]
        assert _merge_pair(Graph(6, base + [(1, 4)]), a, b) == [3, 5, 4, 1, 2, 0]
        assert _merge_pair(Graph(6, base), a, b) == [3, 4, 5, 1, 2, 0]
