"""Unit tests for the CSR Graph data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.graphs.adjacency import sorted_unique

from tests.conftest import complete, ring


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0)
        assert g.n == 0 and g.m == 0

    def test_edgeless_graph(self):
        g = Graph(5)
        assert g.n == 5 and g.m == 0
        assert all(g.degree(v) == 0 for v in g.nodes())

    def test_simple_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.m == 3
        assert g.degree(1) == 2
        assert g.neighbor_list(1) == [0, 2]

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)


class TestQueries:
    def test_has_edge_both_orientations(self):
        g = Graph(4, [(0, 2)])
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)
        assert not g.has_edge(1, 1)

    def test_neighbors_sorted(self):
        g = Graph(5, [(2, 4), (2, 0), (2, 3)])
        assert list(g.neighbors(2)) == [0, 3, 4]

    def test_degrees_vector(self):
        g = ring(6)
        assert list(g.degrees()) == [2] * 6

    def test_edges_iteration_normalized(self):
        g = Graph(4, [(3, 1), (0, 2)])
        assert sorted(g.edges()) == [(0, 2), (1, 3)]

    def test_edge_array_matches_edges(self):
        g = complete(5)
        arr = g.edge_array()
        assert sorted(map(tuple, arr.tolist())) == sorted(g.edges())

    def test_contains_and_len(self):
        g = Graph(3)
        assert 2 in g and 3 not in g
        assert len(g) == 3

    def test_equality_and_hash(self):
        g1 = Graph(3, [(0, 1)])
        g2 = Graph(3, [(1, 0)])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != Graph(3, [(0, 2)])


class TestSubgraph:
    def test_induced_subgraph(self):
        g = complete(5)
        sub, mapping = g.subgraph([1, 3, 4])
        assert sub.n == 3 and sub.m == 3
        assert mapping == {1: 0, 3: 1, 4: 2}

    def test_subgraph_drops_external_edges(self):
        g = ring(6)
        sub, _ = g.subgraph([0, 1, 3])
        assert sub.m == 1  # only (0, 1) survives

    def test_duplicate_selection_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ring(4).subgraph([0, 0])

    def test_unordered_selection_relabels_in_given_order(self):
        # The mapping follows the order given, not node-id order; the
        # vectorised membership pass must preserve that contract.
        g = ring(6)
        sub, mapping = g.subgraph([4, 3, 5])
        assert mapping == {4: 0, 3: 1, 5: 2}
        assert sub.m == 2  # (3,4) and (4,5) survive
        assert sub.has_edge(0, 1) and sub.has_edge(0, 2)

    def test_empty_selection(self):
        sub, mapping = ring(4).subgraph([])
        assert sub.n == 0 and sub.m == 0 and mapping == {}

    @given(
        n=st.integers(2, 20),
        edges=st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=60),
        pick=st.lists(st.integers(0, 19), unique=True, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_subgraph_matches_pairwise_definition(self, n, edges, pick):
        clean = [(a % n, b % n) for a, b in edges if a % n != b % n]
        g = Graph(n, clean)
        nodes = [v % n for v in pick if v % n < n]
        nodes = list(dict.fromkeys(nodes))
        sub, mapping = g.subgraph(nodes)
        assert sub.n == len(nodes)
        for i, u in enumerate(nodes):
            for j, v in enumerate(nodes):
                assert sub.has_edge(i, j) == g.has_edge(u, v)


class TestCsrViews:
    def test_indptr_indices_define_neighbor_slices(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        indptr, indices = g.indptr, g.indices
        assert indptr.shape == (g.n + 1,)
        assert indices.shape == (2 * g.m,)
        for v in g.nodes():
            row = indices[indptr[v]:indptr[v + 1]]
            assert np.array_equal(row, g.neighbors(v))

    def test_rows_sorted_ascending(self):
        g = complete(6)
        for v in g.nodes():
            row = g.indices[g.indptr[v]:g.indptr[v + 1]]
            assert np.all(np.diff(row) > 0)


class TestSortedUnique:
    @pytest.mark.parametrize("values", [
        [],
        [7],
        [3, 3, 3, 3],
        [-4, 0, 2, 9, 11],
        [11, 9, 2, 0, -4],
        np.random.default_rng(3).integers(-50, 50, size=400).tolist(),
    ], ids=["empty", "singleton", "all-duplicate", "sorted", "reversed",
            "random"])
    def test_matches_np_unique(self, values):
        arr = np.asarray(values, dtype=np.int64)
        got = sorted_unique(arr)
        want = np.unique(arr)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@given(
    n=st.integers(2, 25),
    edges=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=80),
)
@settings(max_examples=60, deadline=None)
def test_graph_invariants_hold_for_arbitrary_input(n, edges):
    """Degrees sum to 2m; adjacency is symmetric; neighbours sorted."""
    clean = [(a % n, b % n) for a, b in edges if a % n != b % n]
    g = Graph(n, clean)
    assert int(g.degrees().sum()) == 2 * g.m
    for v in g.nodes():
        row = g.neighbors(v)
        assert list(row) == sorted(set(row.tolist()))
        for w in row:
            assert g.has_edge(int(w), v)
