"""Tests for Hamiltonian-cycle verification."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph, gnp_random_graph
from repro.verify import (
    CycleViolation,
    cycle_from_successors,
    is_hamiltonian_cycle,
    is_hamiltonian_path,
    verified_cycle,
    verify_cycle,
)

from tests.conftest import complete, path_graph, ring


class TestVerifyCycle:
    def test_valid_ring(self):
        verify_cycle(ring(6), [0, 1, 2, 3, 4, 5])

    def test_any_rotation_valid(self):
        verify_cycle(ring(6), [3, 4, 5, 0, 1, 2])

    def test_reverse_valid(self):
        verify_cycle(ring(6), [0, 5, 4, 3, 2, 1])

    def test_wrong_length(self):
        with pytest.raises(CycleViolation, match="visits"):
            verify_cycle(ring(6), [0, 1, 2])

    def test_repeat_node(self):
        with pytest.raises(CycleViolation, match="twice"):
            verify_cycle(ring(4), [0, 1, 2, 1])

    def test_non_edge(self):
        with pytest.raises(CycleViolation, match="not an edge"):
            verify_cycle(ring(6), [0, 2, 1, 3, 4, 5])

    def test_missing_closing_edge(self):
        g = path_graph(4)
        with pytest.raises(CycleViolation):
            verify_cycle(g, [0, 1, 2, 3])

    def test_too_small_graph(self):
        with pytest.raises(CycleViolation, match="< 3"):
            verify_cycle(Graph(2, [(0, 1)]), [0, 1])

    def test_out_of_range_node(self):
        with pytest.raises(CycleViolation):
            verify_cycle(ring(4), [0, 1, 2, 9])

    def test_missing_closing_edge_is_named(self):
        with pytest.raises(CycleViolation,
                           match=r"^\(3, 0\) is not an edge of the graph$"):
            verify_cycle(path_graph(4), [0, 1, 2, 3])

    def test_first_non_edge_in_traversal_order_is_named(self):
        g = ring(6)
        # (1, 3) and (2, 5) are both non-edges; (1, 3) comes first.
        with pytest.raises(CycleViolation, match=r"^\(1, 3\) is not"):
            verify_cycle(g, [0, 1, 3, 2, 5, 4])
        # (4, 0) comes before the closing non-edge (5, 1).
        with pytest.raises(CycleViolation, match=r"^\(4, 0\) is not"):
            verify_cycle(g, [1, 2, 3, 4, 0, 5])

    def test_numpy_cycle_accepted(self):
        verify_cycle(ring(6), np.array([3, 4, 5, 0, 1, 2], dtype=np.int64))
        with pytest.raises(CycleViolation, match=r"^\(0, 2\) is not"):
            verify_cycle(ring(6), np.array([0, 2, 1, 3, 4, 5], dtype=np.int64))


    def test_non_integer_ids_rejected(self):
        # 1.5 and 2.9 pass the range and duplicate checks but are not
        # node ids; truncating them would accept a bogus cycle.
        with pytest.raises(CycleViolation, match="integers"):
            verify_cycle(complete(3), [0, 1.5, 2])
        with pytest.raises(CycleViolation, match="integers"):
            verify_cycle(ring(4), [0, 1, 2.9, 3])
        with pytest.raises(CycleViolation, match="integers"):
            verify_cycle(ring(4), np.array([0.0, 1.0, 2.0, 3.0]))
        assert not is_hamiltonian_cycle(complete(3), [0, 1.5, 2])
        assert not is_hamiltonian_cycle(ring(4), [0, 1, 2.9, 3])

    def test_integer_kinds_accepted(self):
        verify_cycle(ring(4), [np.int32(0), np.int64(1), 2, np.uint8(3)])
        verify_cycle(ring(4), np.array([3, 2, 1, 0], dtype=np.uint16))


class TestVectorChecks:
    """The vector range, duplicate and edge checks name what the loop named."""

    @pytest.mark.parametrize("nested", [
        [[0, 1]] * 6,
        np.zeros((6, 2), dtype=int),
        [[0, 1], [2]] * 3,
    ], ids=["list-of-pairs", "2d-array", "ragged"])
    def test_nested_sequences_fail_cleanly(self, nested):
        g = gnp_random_graph(6, 1.0, seed=0)
        with pytest.raises(CycleViolation, match="flat sequence"):
            verify_cycle(g, nested)
        assert verified_cycle(g, nested) is None
        assert not is_hamiltonian_cycle(g, nested)
        assert not is_hamiltonian_path(g, nested)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_first_offender_is_named_in_traversal_order(self, data):
        n = data.draw(st.integers(3, 9))
        cycle = data.draw(st.lists(st.integers(-2, n + 2), min_size=n,
                                   max_size=n))
        graph = complete(n)
        want = None
        seen = set()
        for v in cycle:  # the ordered reference check
            if not 0 <= v < n:
                want = f"node {v} out of range"
            elif v in seen:
                want = f"node {v} visited twice"
            seen.add(v)
            if want:
                break
        if want is None:
            verify_cycle(graph, cycle)
        else:
            with pytest.raises(CycleViolation, match=f"^{want}$"):
                verify_cycle(graph, cycle)
        assert is_hamiltonian_path(graph, cycle) == (want is None)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_edge_check_matches_has_edge(self, data):
        n = data.draw(st.integers(3, 12))
        graph = gnp_random_graph(n, data.draw(st.sampled_from([0.0, 0.3, 0.9])),
                                 seed=data.draw(st.integers(0, 99)))
        cycle = data.draw(st.permutations(list(range(n))))
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        missing = [(a, b) for a, b in pairs if not graph.has_edge(a, b)]
        if missing:
            a, b = missing[0]
            with pytest.raises(CycleViolation,
                               match=rf"^\({a}, {b}\) is not an edge"):
                verify_cycle(graph, cycle)
        else:
            verify_cycle(graph, cycle)
        assert is_hamiltonian_path(graph, cycle) == all(
            graph.has_edge(a, b) for a, b in pairs[:-1])

    @pytest.mark.parametrize("seed", range(40))
    def test_broken_cycle_names_its_first_missing_pair(self, seed):
        # A random graph holding a random Hamiltonian cycle, with some
        # of the cycle's pairs taken out again (the closing pair
        # included in every fourth case).
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        cycle = rng.permutation(n).tolist()
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        broken = set(rng.choice(n, size=int(rng.integers(1, 4)),
                                replace=True).tolist())
        if seed % 4 == 0:
            broken.add(n - 1)
        cut = {frozenset(pairs[i]) for i in broken}
        extra = gnp_random_graph(n, float(rng.uniform(0.0, 0.6)), seed=seed)
        edges = {frozenset(e) for e in extra.edges()} | {
            frozenset(pair) for pair in pairs}
        graph = Graph(n, [tuple(e) for e in edges - cut])
        # The reference: the first cycle pair that is not an edge.
        first = next(i for i, (a, b) in enumerate(pairs)
                     if frozenset((a, b)) in cut)
        a, b = pairs[first]
        with pytest.raises(CycleViolation,
                           match=rf"^\({a}, {b}\) is not an edge of the graph$"):
            verify_cycle(graph, cycle)
        assert verified_cycle(graph, cycle) is None


class TestHamiltonianPath:
    def test_non_integer_ids_rejected(self):
        assert not is_hamiltonian_path(path_graph(3), [0, 1.5, 2])
        assert not is_hamiltonian_path(path_graph(4), [0, 1, 2.9, 3])
        assert is_hamiltonian_path(path_graph(3),
                                   np.array([2, 1, 0], dtype=np.int32))

    def test_path(self):
        assert is_hamiltonian_path(path_graph(5), [0, 1, 2, 3, 4])

    def test_not_path(self):
        assert not is_hamiltonian_path(path_graph(5), [0, 2, 1, 3, 4])

    def test_wrong_length(self):
        assert not is_hamiltonian_path(path_graph(5), [0, 1, 2])

    def test_non_edge_path(self):
        # A permutation of the nodes whose last hop (4, 0) is missing.
        assert not is_hamiltonian_path(path_graph(5), [1, 2, 3, 4, 0])
        assert is_hamiltonian_path(path_graph(5), [4, 3, 2, 1, 0])


class TestSuccessorMaps:
    def test_roundtrip(self):
        succ = {0: 1, 1: 2, 2: 3, 3: 0}
        assert cycle_from_successors(succ) == [0, 1, 2, 3]

    def test_two_cycles_detected(self):
        succ = {0: 1, 1: 0, 2: 3, 3: 2}
        with pytest.raises(CycleViolation, match="multiple cycles"):
            cycle_from_successors(succ)

    def test_missing_entry(self):
        with pytest.raises(CycleViolation):
            cycle_from_successors({0: 1, 1: 2})

    def test_bad_start(self):
        with pytest.raises(CycleViolation):
            cycle_from_successors({1: 2, 2: 1}, start=0)


class TestVerifiedCycle:
    """The one success test every runner applies to its output."""

    def test_node_sequence(self):
        cycle = [3, 4, 5, 0, 1, 2]
        assert verified_cycle(ring(6), cycle) is cycle

    @pytest.mark.parametrize("make", [
        tuple,
        np.array,
        lambda c: [np.int64(v) for v in c],
        lambda c: np.array(c, dtype=np.int32),
    ], ids=["tuple", "ndarray", "np-int64-list", "int32-ndarray"])
    def test_verified_cycle_is_a_list_of_python_ints(self, make):
        # A JSON store takes only Python ints; the annotation says list.
        got = verified_cycle(ring(6), make([3, 4, 5, 0, 1, 2]))
        assert got.__class__ is list and got == [3, 4, 5, 0, 1, 2]
        assert all(v.__class__ is int for v in got)
        json.dumps(got)

    def test_successor_map_flattens_from_node_zero(self):
        succ = {v: (v - 1) % 6 for v in range(6)}
        assert verified_cycle(ring(6), succ) == [0, 5, 4, 3, 2, 1]

    def test_split_successor_map(self):
        # Two triangles cover all six nodes of K6 but are not one cycle.
        succ = {0: 1, 1: 2, 2: 0, 3: 4, 4: 5, 5: 3}
        assert verified_cycle(complete(6), succ) is None

    def test_non_integer_ids(self):
        assert verified_cycle(ring(4), [0, 1, 2, 3.0]) is None
        assert verified_cycle(ring(4), {0: 1.0, 1.0: 2, 2: 3, 3: 0}) is None

    def test_rejections(self):
        assert verified_cycle(ring(6), None) is None
        assert verified_cycle(path_graph(4), [0, 1, 2, 3]) is None
        assert verified_cycle(ring(6), {0: 1, 1: 2}) is None
        assert verified_cycle(Graph(2, [(0, 1)]), [0, 1]) is None


@given(st.permutations(list(range(8))))
@settings(max_examples=40, deadline=None)
def test_every_permutation_cycles_on_complete_graph(perm):
    """On K_n every permutation order is a valid Hamiltonian cycle."""
    g = complete(8)
    assert is_hamiltonian_cycle(g, list(perm))


@given(st.permutations(list(range(7))))
@settings(max_examples=40, deadline=None)
def test_successor_roundtrip_is_rotation_invariant(perm):
    order = list(perm)
    succ = {order[i]: order[(i + 1) % 7] for i in range(7)}
    rebuilt = cycle_from_successors(succ, start=order[0])
    assert rebuilt == order
