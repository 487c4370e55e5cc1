"""Tests for DHC1 (hypernode phase) and the Upcast / trivial algorithms."""

import math

import pytest

import repro
from repro.cli import _sample_graph
from repro.congest.model import NetworkModel
from repro.core import run_dhc1, run_trivial, run_upcast, upcast_sample_size
from repro.core.dhc1 import default_sqrt_colors
from repro.graphs import Graph, gnp_random_graph
from repro.verify import is_hamiltonian_cycle

from tests.conftest import complete


def dhc1_graph(n, c=2.2, seed=0):
    p = min(1.0, c * math.log(n) / math.sqrt(n))
    return gnp_random_graph(n, p, seed=seed)


class TestDhc1:
    def test_produces_verified_cycle(self):
        g = dhc1_graph(200, seed=3)
        res = run_dhc1(g, k=5, seed=4)
        assert res.success
        assert is_hamiltonian_cycle(g, res.cycle)
        assert "fail" not in res.detail

    def test_more_hypernodes(self):
        g = dhc1_graph(324, c=2.0, seed=4)
        res = run_dhc1(g, k=8, seed=5)
        assert res.success
        assert is_hamiltonian_cycle(g, res.cycle)

    def test_default_k_is_sqrt_n(self):
        assert default_sqrt_colors(256) == 16
        assert default_sqrt_colors(100) == 10

    def test_deterministic(self):
        g = dhc1_graph(200, seed=6)
        a = run_dhc1(g, k=5, seed=7)
        b = run_dhc1(g, k=5, seed=7)
        assert a.success == b.success and a.cycle == b.cycle

    def test_sparse_fails_honestly(self):
        g = gnp_random_graph(150, 0.03, seed=8)
        res = run_dhc1(g, k=5, seed=9)
        assert not res.success and res.cycle is None

    def test_memory_balance(self):
        """DHC1 is fully distributed: per-node state is degree-scaled
        (O(deg * polylog), which is o(n) in the paper's regimes) and
        balanced — no node plays the Upcast root."""
        g = dhc1_graph(200, seed=10)
        res = run_dhc1(g, k=5, seed=11, audit_memory=True)
        assert res.success
        max_deg = int(g.degrees().max())
        words = res.detail["state_words"]
        assert max(words) < 100 * (max_deg + 50)
        assert max(words) < 4 * (sum(words) / len(words))  # balanced


def _cliques(*sizes):
    edges, base = [], 0
    for size in sizes:
        edges += [(a, b) for a in range(base, base + size)
                  for b in range(a + 1, base + size)]
        base += size
    return Graph(base, edges)


# name: (graph, k, seed, cause).  Sparse G(n, p) below DHC1's regime fails
# in Phase 1; one colour class leaves a one-hypernode virtual walk.
DHC1_FAIL_CASES = {
    **{f"gnp64-{s}": (_sample_graph("gnp", 64, 0.5, 1.5, s)[0], None, s,
                      cause)
       for s, cause in enumerate(("partition-disconnected", "walk-1",
                                  "walk-1", "walk-1"))},
    "triangle+isolated": (Graph(4, [(0, 1), (1, 2), (2, 0)]), None, 0,
                          "isolated-node"),
    "two-k4": (_cliques(4, 4), 1, 0, "global-bfs-unreachable"),
    "one-class": (dhc1_graph(40, c=4.0), 1, 0, "virtual-walk-3"),
}


class TestDhc1FailureCause:
    """The CONGEST runs name the cause ``kmachine`` names for the same run."""

    @pytest.mark.parametrize("network", [None, NetworkModel(mode="async")],
                             ids=["sync", "async"])
    @pytest.mark.parametrize("case", sorted(DHC1_FAIL_CASES))
    def test_congest_cause_matches_kmachine(self, case, network):
        graph, k, seed, cause = DHC1_FAIL_CASES[case]
        native = repro.run(graph, "dhc1", engine="kmachine", k=k, seed=seed)
        slow = run_dhc1(graph, k=k, seed=seed, network=network)
        assert not native.success and not slow.success
        assert slow.detail["fail"] == native.detail["fail"] == cause


class TestUpcast:
    def test_produces_verified_cycle(self):
        n = 100
        g = gnp_random_graph(n, 1.2 * math.log(n) / math.sqrt(n), seed=3)
        res = run_upcast(g, seed=4)
        assert res.success
        assert is_hamiltonian_cycle(g, res.cycle)

    def test_sample_size_formula(self):
        assert upcast_sample_size(1000, 3.0) == math.ceil(3 * math.log(1000))

    def test_root_memory_is_centralized(self):
        """Section III: the root holds Theta(n log n) words — the audit
        must show one node far above the fully-distributed scale."""
        n = 128
        g = gnp_random_graph(n, 1.5 * math.log(n) / math.sqrt(n), seed=5)
        res = run_upcast(g, seed=6, audit_memory=True)
        assert res.success
        words = sorted(res.detail["state_words"])
        assert words[-1] > n  # the root: at least Omega(n)
        assert words[len(words) // 2] < words[-1] / 4  # median node is small

    def test_tiny_sample_fails_often(self):
        """Ablation A2's mechanism: starve the sample, solve fails."""
        n = 128
        failures = 0
        for seed in range(4):
            g = gnp_random_graph(n, 1.5 * math.log(n) / math.sqrt(n), seed=seed)
            res = run_upcast(g, c_prime=0.2, seed=seed, solver_restarts=2)
            failures += not res.success
        assert failures >= 2

    def test_deterministic(self):
        n = 100
        g = gnp_random_graph(n, 1.5 * math.log(n) / math.sqrt(n), seed=9)
        assert run_upcast(g, seed=1).cycle == run_upcast(g, seed=1).cycle


class TestTrivial:
    def test_collects_everything_and_succeeds(self):
        g = gnp_random_graph(80, 0.35, seed=2)
        res = run_trivial(g, seed=3)
        assert res.success
        assert is_hamiltonian_cycle(g, res.cycle)

    def test_rounds_scale_with_edges(self):
        """The trivial algorithm pays O(m) rounds; Upcast pays far less."""
        n = 128
        g = gnp_random_graph(n, 2.0 * math.log(n) / math.sqrt(n), seed=4)
        trivial = run_trivial(g, seed=5)
        upcast = run_upcast(g, seed=5)
        assert trivial.success and upcast.success
        assert trivial.rounds > 2 * upcast.rounds

    def test_complete_graph(self):
        res = run_trivial(complete(20), seed=1)
        assert res.success
