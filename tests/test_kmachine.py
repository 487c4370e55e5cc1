"""Tests for the k-machine model subsystem (repro.kmachine).

Covers: the random-vertex-partition object, exact link accounting on a
hand-checkable protocol, invariance of the converted protocol's output,
and the Conversion-Theorem bound formula.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.congest import FaultPlan, NetworkModel
from repro.congest.message import Message
from repro.congest.node import Context, Protocol
from repro.core import run_dra
from repro.graphs import gnp_random_graph, paper_probability
from repro.graphs.adjacency import Graph
from repro.kmachine import (
    VertexPartition,
    conversion_round_bound,
    run_converted,
    run_converted_hc,
)
from repro.trace import TraceRecorder


# ---------------------------------------------------------------------------
# VertexPartition
# ---------------------------------------------------------------------------


class TestVertexPartition:
    def test_random_assigns_every_node(self):
        part = VertexPartition.random(100, k=4, seed=1)
        assert part.n == 100
        assert part.k == 4
        assert sorted(v for m in range(4) for v in part.hosted(m)) == list(range(100))

    def test_random_is_deterministic_per_seed(self):
        a = VertexPartition.random(64, k=8, seed=5)
        b = VertexPartition.random(64, k=8, seed=5)
        c = VertexPartition.random(64, k=8, seed=6)
        assert np.array_equal(a.machine_of, b.machine_of)
        assert not np.array_equal(a.machine_of, c.machine_of)

    def test_round_robin_is_perfectly_balanced(self):
        part = VertexPartition.round_robin(100, k=4)
        assert part.loads().tolist() == [25, 25, 25, 25]
        assert part.load_imbalance() == 1.0

    def test_loads_sum_to_n(self):
        part = VertexPartition.random(257, k=7, seed=0)
        assert int(part.loads().sum()) == 257

    def test_rvp_imbalance_is_modest(self):
        # Lemma 4.1 of [16]: O~(n/k) nodes per machine whp.  At n=4096,
        # k=8 the expected load is 512; a 1.5x cap is very generous.
        part = VertexPartition.random(4096, k=8, seed=3)
        assert part.load_imbalance() < 1.5

    def test_link_and_crosses(self):
        part = VertexPartition(np.array([0, 0, 1, 2]), k=3)
        assert not part.crosses(0, 1)
        assert part.link(0, 1) is None
        assert part.crosses(1, 2)
        assert part.link(2, 1) == (0, 1)
        assert part.link(3, 2) == (1, 2)

    def test_rejects_bad_assignment(self):
        with pytest.raises(ValueError):
            VertexPartition(np.array([0, 3]), k=2)
        with pytest.raises(ValueError):
            VertexPartition(np.array([0, 1]), k=0)
        with pytest.raises(ValueError):
            VertexPartition(np.array([[0], [1]]), k=2)

    def test_machine_lookup_matches_array(self):
        part = VertexPartition.random(32, k=4, seed=9)
        for v in range(32):
            assert part.machine(v) == int(part.machine_of[v])

    @given(n=st.integers(1, 200), k=st.integers(1, 16), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_partition_properties_hold(self, n, k, seed):
        part = VertexPartition.random(n, k, seed=seed)
        loads = part.loads()
        assert loads.sum() == n
        assert len(loads) == k
        assert part.load_imbalance() >= 1.0 or n == 0


class TestPartitionEdgeCases:
    """The corners the native k-machine engine actually hits."""

    def test_k_equals_one_everything_local(self):
        part = VertexPartition.random(16, k=1, seed=0)
        assert part.loads().tolist() == [16]
        assert part.load_imbalance() == 1.0
        for u in range(16):
            assert part.machine(u) == 0
        assert part.link(0, 15) is None and not part.crosses(0, 15)

    def test_k_exceeding_n_leaves_machines_empty(self):
        part = VertexPartition.random(4, k=16, seed=1)
        loads = part.loads()
        assert loads.sum() == 4 and len(loads) == 16
        empty = [m for m in range(16) if not part.hosted(m)]
        assert len(empty) >= 12  # pigeonhole: at most n machines occupied
        for m in empty:
            assert loads[m] == 0

    def test_empty_machine_hosted_is_empty_list(self):
        part = VertexPartition(np.array([0, 0, 2, 2]), k=3)
        assert part.hosted(1) == []
        assert part.loads().tolist() == [2, 0, 2]
        # An empty machine still has well-defined links.
        assert part.link(0, 2) == (0, 2)

    def test_zero_nodes_partition(self):
        part = VertexPartition(np.array([], dtype=np.int64), k=3)
        assert part.n == 0
        assert part.loads().tolist() == [0, 0, 0]
        assert part.load_imbalance() == 1.0

    def test_rvp_deterministic_across_both_engines(self):
        # The native engine and the converted simulator must draw the
        # *same* partition from a shared seed: the model's RVP is part
        # of the cost semantics, not an engine implementation detail.
        import repro
        from repro.graphs import gnp_random_graph as gnp

        graph = gnp(48, 0.6, seed=2)
        seed, k = 11, 4
        reference = VertexPartition.random(graph.n, k, seed=seed)
        converted = run_converted_hc(
            graph, algorithm="dra", k_machines=k, seed=seed)
        native = repro.run(graph, "dra", engine="kmachine", seed=seed,
                           k_machines=k)
        # run_converted returns its partition; compare assignments.
        result, metrics = converted
        assert metrics.k == reference.k
        assert native.detail["k_machines"] == reference.k
        # Identical partition + exact DRA traffic model => identical
        # cross/local word split on the same seed tree.
        assert native.detail["kmachine"]["cross_words"] == metrics.cross_words
        again = VertexPartition.random(graph.n, k, seed=seed)
        assert np.array_equal(reference.machine_of, again.machine_of)


# ---------------------------------------------------------------------------
# Exact accounting on a hand-checkable protocol
# ---------------------------------------------------------------------------


class _OneShotSend(Protocol):
    """Node 0 sends one 2-field message to each neighbour in round 1.

    Receivers halt on delivery; the run then ends by quiescence (the
    sender has nothing further scheduled).
    """

    def __init__(self, node_id: int):
        self.node_id = node_id

    def on_start(self, ctx: Context) -> None:
        if ctx.node_id == 0:
            for w in ctx.neighbors:
                ctx.send(w, "x", 7, 9)

    def on_round(self, ctx: Context, inbox: list[Message]) -> None:
        ctx.halt()


class TestLinkAccounting:
    def test_exact_words_on_a_star(self):
        # Star 0-{1,2,3}; machines: {0,1} on m0, {2} on m1, {3} on m2.
        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        part = VertexPartition(np.array([0, 0, 1, 2]), k=3)
        res = run_converted(
            graph, _OneShotSend, k=3, partition=part, max_rounds=8, link_words=16)
        m = res.metrics
        # Message (kind, 7, 9) = 3 words (tag + 2 fields).
        assert m.local_words == 3       # 0 -> 1 stays on machine 0
        assert m.cross_words == 6       # 0 -> 2 and 0 -> 3 cross
        assert m.link_words[0, 1] == 3
        assert m.link_words[0, 2] == 3
        assert m.link_words[1, 2] == 0
        assert m.max_round_link_words == 3

    def test_single_machine_everything_local(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        part = VertexPartition(np.zeros(4, dtype=np.int64), k=1)
        res = run_converted(
            graph, _OneShotSend, k=1, partition=part, max_rounds=8)
        assert res.metrics.cross_words == 0
        assert res.metrics.local_words == 9
        # Rounds still tick in lockstep: one k-machine round per CONGEST round.
        assert res.metrics.kmachine_rounds == res.metrics.congest_rounds

    def test_narrow_link_inflates_rounds(self):
        # All of node 0's traffic to machine 1 in one round; W=1 word
        # forces ceil(3 / 1) = 3 k-machine rounds for that CONGEST round.
        graph = Graph(2, [(0, 1)])
        part = VertexPartition(np.array([0, 1]), k=2)
        wide = run_converted(
            graph, _OneShotSend, k=2, partition=part, max_rounds=8, link_words=16)
        narrow = run_converted(
            graph, _OneShotSend, k=2, partition=part, max_rounds=8, link_words=1)
        assert narrow.metrics.congest_rounds == wide.metrics.congest_rounds
        assert narrow.metrics.kmachine_rounds > wide.metrics.kmachine_rounds

    def test_partition_shape_mismatch_rejected(self):
        graph = Graph(3, [(0, 1), (1, 2)])
        part = VertexPartition(np.array([0, 1]), k=2)
        with pytest.raises(ValueError, match="does not match"):
            run_converted(graph, _OneShotSend, k=2, partition=part, max_rounds=4)

    def test_bad_link_bandwidth_rejected(self):
        graph = Graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="bandwidth"):
            run_converted(graph, _OneShotSend, k=2, max_rounds=4, link_words=0)


# ---------------------------------------------------------------------------
# Conversion of the paper's algorithms
# ---------------------------------------------------------------------------


class TestConvertedAlgorithms:
    def _graph(self, n=48, seed=11):
        return gnp_random_graph(n, paper_probability(n, 0.5, 6.0), seed=seed)

    def test_converted_dra_matches_native_output(self):
        graph = self._graph()
        native = run_dra(graph, seed=4)
        converted, metrics = run_converted_hc(
            graph, algorithm="dra", k_machines=4, seed=4)
        assert native.success and converted.success
        assert converted.cycle == native.cycle
        assert converted.rounds == native.rounds
        assert metrics.congest_rounds == native.rounds
        assert metrics.kmachine_rounds >= metrics.congest_rounds * 0  # sane

    def test_converted_dhc2_succeeds_and_accounts(self):
        graph = self._graph(n=64, seed=3)
        result, metrics = run_converted_hc(
            graph, algorithm="dhc2", k_machines=4, seed=3, delta=0.5)
        assert result.success
        assert metrics.cross_words > 0
        assert metrics.congest_rounds == result.rounds
        total_link = int(metrics.link_words.sum())
        assert total_link == metrics.cross_words

    def test_more_machines_less_local_traffic(self):
        graph = self._graph(n=64, seed=7)
        _, m2 = run_converted_hc(graph, algorithm="dra", k_machines=2, seed=7)
        _, m8 = run_converted_hc(graph, algorithm="dra", k_machines=8, seed=7)
        # With more machines a random edge is more likely to cross:
        # expected local share is 1/k.
        assert m8.local_words < m2.local_words
        assert m8.cross_words > m2.cross_words

    def test_unknown_algorithm_rejected(self):
        graph = self._graph(n=24)
        with pytest.raises(ValueError, match="not k-machine convertible"):
            run_converted_hc(graph, algorithm="no-such-algorithm", k_machines=2)

    def test_centralized_algorithm_rejected(self):
        # upcast is registered but centralized: the registry's congest
        # spec declares kmachine_convertible=False, so conversion refuses.
        graph = self._graph(n=24)
        with pytest.raises(ValueError, match="not k-machine convertible"):
            run_converted_hc(graph, algorithm="upcast", k_machines=2)

    def test_busiest_link_is_consistent(self):
        graph = self._graph(n=48, seed=5)
        _, metrics = run_converted_hc(graph, algorithm="dra", k_machines=3, seed=5)
        a, b, words = metrics.busiest_link()
        assert words == int(metrics.link_words.max())
        assert metrics.link_words[a, b] == words

    def test_speedup_and_summary_fields(self):
        graph = self._graph(n=48, seed=6)
        _, metrics = run_converted_hc(graph, algorithm="dra", k_machines=4, seed=6)
        s = metrics.summary()
        for key in ("k", "congest_rounds", "kmachine_rounds", "cross_words",
                    "local_words", "max_round_link_words", "link_imbalance",
                    "speedup"):
            assert key in s
        assert s["k"] == 4.0
        assert metrics.speedup() == pytest.approx(
            metrics.congest_rounds / metrics.kmachine_rounds)

    def test_network_model_passes_through(self):
        # A converted run under faults is the congest run on the same
        # model, re-costed: conversion still never perturbs the protocol.
        graph = self._graph(seed=2)
        model = NetworkModel(
            fault_plan=FaultPlan(drop_probability=0.01, seed=1))
        converted, metrics = run_converted_hc(
            graph, algorithm="dra", k_machines=2, seed=4, network=model)
        direct = repro.run(graph, "dra", engine="congest", seed=4,
                           network=model)
        assert converted == direct
        assert converted.detail["faults"]["dropped"] > 0
        assert metrics.congest_rounds == direct.rounds > 0
        assert metrics.cross_words > 0 and metrics.kmachine_rounds > 0

    def test_callers_hook_runs_first_and_keeps_its_observer(self):
        graph = self._graph(n=32, seed=2)
        recorder = TraceRecorder()
        result, metrics = run_converted_hc(
            graph, algorithm="dra", k_machines=2, seed=2,
            network=NetworkModel(network_hook=recorder.attach))
        assert recorder.total_seen == result.messages > 0
        assert metrics.congest_rounds == result.rounds

    def test_async_model_rejected(self):
        graph = self._graph(n=24)
        with pytest.raises(ValueError, match="async"):
            run_converted_hc(graph, algorithm="dra", k_machines=2,
                             network=NetworkModel(mode="async"))


# ---------------------------------------------------------------------------
# The Conversion-Theorem bound
# ---------------------------------------------------------------------------


class TestConversionBound:
    def test_bound_decreases_in_k(self):
        values = [conversion_round_bound(10_000, 200, 30, k=k) for k in (2, 4, 8, 16)]
        assert values == sorted(values, reverse=True)

    def test_bound_terms(self):
        # M/k^2 term + T*Delta/k term, divided by link words.
        got = conversion_round_bound(1000, 10, 5, k=10, link_words=1)
        assert got == pytest.approx(1000 / 100 + 10 * 5 / 10)

    def test_bound_rejects_bad_k(self):
        with pytest.raises(ValueError):
            conversion_round_bound(10, 10, 10, k=0)

    def test_measured_rounds_within_bound_regime(self):
        # The measured conversion should not exceed the theorem shape by
        # more than a constant factor (we allow a generous 20x: the
        # bound ignores per-round indivisibility).
        graph = gnp_random_graph(48, paper_probability(48, 0.5, 6.0), seed=3)
        result, metrics = run_converted_hc(graph, algorithm="dra", k_machines=4, seed=3)
        assert result.success
        delta_max = max(graph.degree(v) for v in range(graph.n))
        bound = conversion_round_bound(
            result.messages, result.rounds, delta_max, k=4)
        assert metrics.kmachine_rounds <= 20 * bound + 10 * result.rounds
