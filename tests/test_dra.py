"""Tests for the distributed rotation algorithm (Algorithm 1, Theorem 2)."""

import math
from collections import Counter

import pytest

from repro.analysis.bounds import dra_step_budget
from repro.congest import NetworkModel
from repro.core import run_dra
from repro.core.rotation import FAIL_NO_EDGES, FAIL_TOO_SMALL
from repro.engines.fast import _dra_fast
import repro
from repro.graphs import Graph, gnp_random_graph, paper_probability
from repro.verify import is_hamiltonian_cycle

from tests.conftest import complete, dense_gnp, path_graph, ring


class TestDraCongest:
    def test_finds_cycle_on_dense_gnp(self):
        g = dense_gnp(80, c=8, seed=11)
        res = run_dra(g, seed=5)
        assert res.success
        assert is_hamiltonian_cycle(g, res.cycle)

    def test_cycle_output_contract(self):
        """End of Section I-A: each node knows its two cycle edges."""
        g = complete(20)
        res = run_dra(g, seed=3)
        assert res.success and len(res.cycle) == 20

    def test_ring_succeeds(self):
        # A ring has exactly one HC; the walk must find it.
        res = run_dra(ring(12), seed=1)
        assert res.success

    def test_path_fails_honestly(self):
        res = run_dra(path_graph(10), seed=1)
        assert not res.success
        assert FAIL_NO_EDGES in res.detail["fail_codes"]

    def test_too_small_graph(self):
        res = run_dra(complete(2), seed=0)
        assert not res.success
        assert FAIL_TOO_SMALL in res.detail["fail_codes"]

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_disconnected_failure_is_named(self, mode):
        """One walk closes per component; the cause must still be named."""
        k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        g = Graph(8, k4 + [(a + 4, b + 4) for a, b in k4])
        res = run_dra(g, seed=3, network=NetworkModel(mode=mode))
        assert not res.success
        fast = _dra_fast(g, seed=3)
        assert res.detail["fail_codes"] == fast.detail["fail_codes"] == ["bfs-unreachable"]

    def test_step_budget_respected(self):
        g = dense_gnp(60, c=8, seed=2)
        res = run_dra(g, seed=3)
        assert res.steps <= dra_step_budget(60)

    def test_deterministic_given_seed(self):
        g = dense_gnp(60, c=8, seed=7)
        a = run_dra(g, seed=4)
        b = run_dra(g, seed=4)
        assert a.cycle == b.cycle and a.rounds == b.rounds

    def test_memory_stays_sublinear_ish(self):
        """Fully-distributed claim: no node state explodes to O(n log n)."""
        n = 100
        g = dense_gnp(n, c=8, seed=1)
        res = run_dra(g, seed=2, audit_memory=True)
        assert res.success
        # Each node keeps O(degree + tree) words; degree ~ 8 ln n here.
        assert res.detail["max_state_words"] < 40 * math.log(n) * 8


class TestDraTrafficByKind:
    """Congest DRA's traffic, pinned per message kind.

    Totals alone would not catch a change that moves traffic between
    phases (flood-min ``lm``, BFS ``bt``, walk ``rw``) while keeping the
    sums; the counts come from the round observer, i.e. as sent.
    """

    # seed -> (rounds, messages, bits, {kind: messages})
    PINS = {
        0: (1432, 14097, 421974, {"lm.m": 3230, "bt.e": 1367, "bt.a": 47, "bt.d": 47,
                                  "bt.c": 47, "rw.p": 241, "rw.r": 9071, "rw.w": 47}),
        1: (1369, 13933, 409310, {"lm.m": 3442, "bt.e": 1423, "bt.a": 47, "bt.d": 47,
                                  "bt.c": 47, "rw.p": 232, "rw.r": 8648, "rw.w": 47}),
        2: (1320, 13589, 396430, {"lm.m": 3454, "bt.e": 1403, "bt.a": 47, "bt.d": 47,
                                  "bt.c": 47, "rw.p": 225, "rw.r": 8319, "rw.w": 47}),
    }

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_messages_per_kind(self, seed):
        counts = Counter()

        def hook(net):
            def observe(_network, deliveries):
                counts.update(payload[0] for _src, _dst, payload in deliveries)
            net.round_observer = observe

        graph = gnp_random_graph(48, paper_probability(48, 1, 8), seed=seed)
        result = run_dra(graph, seed=seed, network=NetworkModel(network_hook=hook))
        assert result.success
        assert (result.rounds, result.messages, result.bits, dict(counts)) == self.PINS[seed]


class TestDraFastEngine:
    @pytest.mark.parametrize("n,c,seed", [(60, 8, 1), (90, 7, 2), (140, 6, 3)])
    def test_engines_agree_exactly(self, n, c, seed):
        """The headline cross-validation: same cycle, steps, and rounds."""
        g = dense_gnp(n, c=c, seed=seed)
        slow = run_dra(g, seed=seed + 10)
        fast = repro.run(g, "dra", engine="fast", seed=seed + 10)
        assert slow.success == fast.success
        assert slow.cycle == fast.cycle
        assert slow.steps == fast.steps
        assert slow.rounds == fast.rounds

    def test_engines_agree_on_failure(self):
        g = dense_gnp(200, c=4, seed=7)  # marginal density: may fail
        slow = run_dra(g, seed=1)
        fast = repro.run(g, "dra", engine="fast", seed=1)
        assert slow.success == fast.success
        assert slow.rounds == fast.rounds

    def test_fast_engine_validates_output(self):
        g = dense_gnp(120, c=8, seed=4)
        res = repro.run(g, "dra", engine="fast", seed=6)
        assert res.success
        assert is_hamiltonian_cycle(g, res.cycle)

    def test_step_bound_theorem2_shape(self):
        """Steps stay within 7 n ln n (Theorem 2) with a wide margin."""
        for n, seed in [(100, 0), (200, 1), (400, 2)]:
            g = dense_gnp(n, c=8, seed=seed)
            res = repro.run(g, "dra", engine="fast", seed=seed)
            assert res.success
            assert res.steps <= 7 * n * math.log(n)

    def test_disconnected_graph_fails(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not repro.run(g, "dra", engine="fast", seed=0).success
        assert not run_dra(g, seed=0).success

    def test_rotation_and_extension_counters(self):
        g = dense_gnp(100, c=8, seed=5)
        res = repro.run(g, "dra", engine="fast", seed=3)
        detail = res.detail
        assert detail["extensions"] == 99  # n-1 extensions exactly
        assert detail["extensions"] + detail["rotations"] + detail["retries"] \
            == res.steps - 1  # final step is the closure
