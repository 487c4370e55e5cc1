"""Tests for DHC2 (Algorithm 3): partitioning, merging, end-to-end."""

import itertools
import math

import pytest

from repro.congest.model import NetworkModel
from repro.core import run_dhc2
from repro.core.dhc2 import default_color_count
from repro.core.phase1 import color_at_level, colors_at_level, merge_levels
import repro
from repro.engines.fast_dhc2 import _dhc2_fast
from repro.graphs import Graph, gnp_random_graph
from repro.verify import is_hamiltonian_cycle


def dhc2_graph(n, k, c=8.0, seed=0):
    """G(n,p) dense enough that each of the k partitions is Hamiltonian."""
    s = max(3, n // k)
    p = min(1.0, c * math.log(s) / s)
    return gnp_random_graph(n, p, seed=seed)


class TestColorArithmetic:
    def test_color_halves_per_level(self):
        assert color_at_level(5, 1) == 5
        assert color_at_level(5, 2) == 3
        assert color_at_level(5, 3) == 2
        assert color_at_level(8, 4) == 1

    def test_colors_at_level(self):
        assert colors_at_level(8, 1) == 8
        assert colors_at_level(8, 2) == 4
        assert colors_at_level(8, 4) == 1

    def test_merge_levels(self):
        assert merge_levels(1) == 0
        assert merge_levels(2) == 1
        assert merge_levels(8) == 3
        assert merge_levels(9) == 4

    def test_pairing_is_collision_free(self):
        """Distinct level-l colours map to distinct level-(l+1) colours
        unless they are a merge pair."""
        for k in range(1, 40):
            for level in range(1, merge_levels(k) + 1):
                remaining = colors_at_level(k, level)
                succ = {}
                for c in range(1, remaining + 1):
                    succ.setdefault(-(-c // 2), []).append(c)
                for group in succ.values():
                    assert len(group) <= 2

    def test_default_color_count(self):
        assert default_color_count(256, 0.5) == 16
        assert default_color_count(1000, 1.0) == 1
        with pytest.raises(ValueError):
            default_color_count(100, 1.5)


class TestDhc2EndToEnd:
    def test_produces_verified_cycle(self):
        g = dhc2_graph(120, 4, seed=2)
        res = run_dhc2(g, k=4, seed=3)
        assert res.success
        assert is_hamiltonian_cycle(g, res.cycle)

    def test_multiple_merge_levels(self):
        g = dhc2_graph(240, 8, seed=5)
        res = run_dhc2(g, k=8, seed=6)
        assert res.success
        assert res.detail["levels"] == 3

    def test_odd_color_count_sits_out(self):
        g = dhc2_graph(150, 5, seed=7)
        res = run_dhc2(g, k=5, seed=8)
        assert res.success

    def test_single_partition_reduces_to_dra(self):
        g = dhc2_graph(60, 1, seed=9)
        res = run_dhc2(g, k=1, seed=10)
        assert res.success
        assert res.detail["levels"] == 0

    def test_deterministic_given_seed(self):
        g = dhc2_graph(120, 4, seed=11)
        assert run_dhc2(g, k=4, seed=1).cycle == run_dhc2(g, k=4, seed=1).cycle

    def test_sparse_graph_fails_honestly(self):
        # Far below the partition threshold: phase 1 cannot succeed.
        g = gnp_random_graph(120, 0.02, seed=13)
        res = run_dhc2(g, k=4, seed=14)
        assert not res.success
        assert res.cycle is None

    def test_memory_balance(self):
        """Fully-distributed: per-node state is degree-scaled (o(n) in
        the paper's sparse regimes) and balanced across nodes."""
        g = dhc2_graph(160, 4, seed=15)
        res = run_dhc2(g, k=4, seed=16, audit_memory=True)
        assert res.success
        words = res.detail["state_words"]
        max_deg = int(g.degrees().max())
        assert max(words) < 100 * (max_deg + 50)
        assert max(words) < 4 * (sum(words) / len(words))  # balanced


class TestDhc2FastEngine:
    @pytest.mark.parametrize("n,k,seed", [(120, 4, 2), (200, 4, 4), (240, 8, 5)])
    def test_cycles_identical_across_engines(self, n, k, seed):
        g = dhc2_graph(n, k, seed=seed)
        slow = run_dhc2(g, k=k, seed=seed + 1)
        fast = repro.run(g, "dhc2", engine="fast", k=k, seed=seed + 1)
        assert slow.success and fast.success
        assert slow.cycle == fast.cycle

    def test_round_estimates_same_ballpark(self):
        g = dhc2_graph(200, 4, seed=4)
        slow = run_dhc2(g, k=4, seed=5)
        fast = repro.run(g, "dhc2", engine="fast", k=4, seed=5)
        ratio = slow.rounds / fast.rounds
        assert 0.2 < ratio < 5.0

    def test_fast_engine_scales(self):
        n = 1024
        p = min(1.0, 6 * math.log(n) / math.sqrt(n))
        g = gnp_random_graph(n, p, seed=9)
        res = repro.run(g, "dhc2", engine="fast", delta=0.5, seed=10)
        assert res.success
        assert is_hamiltonian_cycle(g, res.cycle)

    def test_fast_failure_reported(self):
        g = gnp_random_graph(100, 0.02, seed=3)
        res = repro.run(g, "dhc2", engine="fast", k=4, seed=4)
        assert not res.success
        assert "fail" in res.detail


def _two_cliques(size, bridge=None):
    """Two disjoint cliques on ``size`` nodes each, optionally joined."""
    a, b = range(size), range(size, 2 * size)
    edges = list(itertools.combinations(a, 2)) + list(itertools.combinations(b, 2))
    return Graph(2 * size, edges + ([bridge] if bridge else []))


def _clique(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


FAIL_CASES = {  # name: (graph, k, seed, cause)
    "two-k4": (_two_cliques(4), 1, 1, "partition-disconnected"),
    "empty-4": (Graph(4), 1, 1, "partition-disconnected"),
    "star-6": (Graph(6, [(0, i) for i in range(1, 6)]), 1, 1, "walk-1"),
    "k8": (_clique(8), 3, 1, "walk-3"),
    "path-5": (Graph(5, [(i, i + 1) for i in range(4)]), 2, 1,
               "partition-disconnected"),
    # Seed 3 leaves colour 1 empty: with k=2 the passive class waits
    # for a merge that never starts; with k=4 the partner class aborts.
    "k6-empty": (_clique(6), 2, 3, "empty-partition"),
    "k8-empty": (_clique(8), 4, 3, "empty-partition"),
}


class TestDhc2FailureCause:
    """The CONGEST runs name the cause ``fast`` names for the same run."""

    @pytest.mark.parametrize("network", [None, NetworkModel(mode="async")],
                             ids=["sync", "async"])
    @pytest.mark.parametrize("case", sorted(FAIL_CASES))
    def test_congest_cause_matches_fast(self, case, network):
        graph, k, seed, cause = FAIL_CASES[case]
        fast = _dhc2_fast(graph, k=k, seed=seed)
        slow = run_dhc2(graph, k=k, seed=seed, network=network)
        assert not fast.success and not slow.success
        assert slow.detail["fail"] == fast.detail["fail"] == cause

    def test_phase2_abort_is_no_bridge(self):
        # Seed 1082 colours the cliques as the two classes, so Phase 1
        # succeeds and the single cross edge is no bridge.
        graph = _two_cliques(5, bridge=(0, 5))
        assert _dhc2_fast(graph, k=2, seed=1082).detail["fail"] == "no-bridge"
        res = run_dhc2(graph, k=2, seed=1082)
        assert not res.success
        assert res.detail["fail"] == "no-bridge"

    def test_success_names_no_cause(self):
        res = run_dhc2(dhc2_graph(40, 2, seed=3), k=2, seed=4)
        assert res.success
        assert "fail" not in res.detail
