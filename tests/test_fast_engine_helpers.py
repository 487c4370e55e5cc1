"""Unit tests for the parity oracles' tree/timing helpers."""

from repro.graphs import Graph

from tests.conftest import path_graph, ring
from tests.oracles import SpanningTree, bfs_completion_round, build_min_id_bfs_tree


class TestMinIdBfsTree:
    def test_ring_tree_shape(self):
        g = ring(6)
        tree = build_min_id_bfs_tree(list(range(6)), g.neighbor_list, root=0)
        assert tree.root == 0
        assert tree.tree_depth == 3
        assert tree.parent[1] == 0 and tree.parent[5] == 0

    def test_min_id_parent_rule(self):
        # Node 3 can attach under 1 or 2; the distributed rule picks 1.
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        tree = build_min_id_bfs_tree([0, 1, 2, 3], g.neighbor_list, root=0)
        assert tree.parent[3] == 1
        assert tree.children[1] == [3]

    def test_unreachable_returns_none(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert build_min_id_bfs_tree([0, 1, 2, 3], g.neighbor_list, root=0) is None

    def test_subset_membership(self):
        g = ring(8)
        members = [0, 1, 2, 3]

        def nbrs(v):
            return [w for w in g.neighbor_list(v) if w in set(members)]

        tree = build_min_id_bfs_tree(members, nbrs, root=0)
        assert set(tree.depth) == set(members)

    def test_eccentricity_on_path_tree(self):
        g = path_graph(5)
        tree = build_min_id_bfs_tree(list(range(5)), g.neighbor_list, root=0)
        assert tree.eccentricity(0) == 4
        assert tree.eccentricity(2) == 2


class TestBfsCompletionRound:
    def test_single_node(self):
        tree = SpanningTree(0, {0: -1}, {0: 0}, {0: []}, [0])
        done = bfs_completion_round(tree, lambda v: [], start_round=10)
        assert done == 11  # the joined-this-round deferral

    def test_path_completion_grows_with_depth(self):
        short = path_graph(3)
        long = path_graph(9)
        t1 = build_min_id_bfs_tree(list(range(3)), short.neighbor_list, root=0)
        t2 = build_min_id_bfs_tree(list(range(9)), long.neighbor_list, root=0)
        f1 = bfs_completion_round(t1, short.neighbor_list, 0)
        f2 = bfs_completion_round(t2, long.neighbor_list, 0)
        assert f2 > f1 >= 2
