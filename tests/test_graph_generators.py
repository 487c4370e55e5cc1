"""Tests for the random-graph generators (vs theory and networkx oracle)."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    batch_gnp,
    chung_lu_graph,
    gnm_random_graph,
    gnp_random_graph,
    hamiltonicity_threshold,
    paper_probability,
    power_law_weights,
    random_regular_graph,
)
from repro.graphs._sampling import decode_pair_indices, encode_pairs, pair_count, sample_distinct


class TestPairSampling:
    @given(n=st.integers(2, 60), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_encode_decode_roundtrip(self, n, data):
        total = pair_count(n)
        idx = data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=30))
        arr = np.asarray(sorted(set(idx)), dtype=np.int64)
        lo, hi = decode_pair_indices(n, arr)
        assert np.all(lo < hi) and np.all(hi < n)
        assert np.array_equal(encode_pairs(n, lo, hi), arr)

    def test_sample_distinct_exact_count_and_range(self):
        rng = np.random.default_rng(0)
        out = sample_distinct(rng, 1000, 200)
        assert out.size == 200
        assert np.unique(out).size == 200
        assert out.min() >= 0 and out.max() < 1000

    def test_sample_distinct_full_range(self):
        rng = np.random.default_rng(1)
        out = sample_distinct(rng, 10, 10)
        assert sorted(out.tolist()) == list(range(10))

    def test_sample_distinct_rejects_oversample(self):
        with pytest.raises(ValueError):
            sample_distinct(np.random.default_rng(0), 5, 6)


class TestGnp:
    def test_determinism_by_seed(self):
        a = gnp_random_graph(200, 0.05, seed=42)
        b = gnp_random_graph(200, 0.05, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        a = gnp_random_graph(200, 0.05, seed=1)
        b = gnp_random_graph(200, 0.05, seed=2)
        assert a != b

    def test_edge_count_concentrates(self):
        n, p = 400, 0.05
        expect = pair_count(n) * p
        counts = [gnp_random_graph(n, p, seed=s).m for s in range(5)]
        assert all(abs(c - expect) < 5 * math.sqrt(expect) for c in counts)

    def test_extreme_probabilities(self):
        assert gnp_random_graph(50, 0.0, seed=0).m == 0
        assert gnp_random_graph(50, 1.0, seed=0).m == pair_count(50)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            gnp_random_graph(10, 1.5, seed=0)

    def test_paper_probability_regimes(self):
        n = 10_000
        assert paper_probability(n, 1.0, 2.0) == pytest.approx(2 * math.log(n) / n)
        assert paper_probability(n, 0.5, 2.0) == pytest.approx(2 * math.log(n) / 100)
        assert paper_probability(16, 0.5, 100.0) == 1.0  # clamped

    def test_paper_probability_validation(self):
        with pytest.raises(ValueError):
            paper_probability(100, 0.0, 1.0)
        with pytest.raises(ValueError):
            paper_probability(100, 0.5, -1.0)

    def test_threshold_value(self):
        assert hamiltonicity_threshold(100) == pytest.approx(math.log(100) / 100)


#: sha256 of ``gnp_random_graph(1024, paper_probability(1024, 1, 8),
#: seed=s).indices`` (int64, little-endian), recorded from the two-key
#: lexsort CSR build: the one-key sort and the sort-based unique must
#: reproduce the sampled graphs bit for bit.
GNP_1024_INDICES_SHA256 = {
    1: "3470336fe1ad04fd73bb15527217c758601914f67ad484aa84a81725cbc5d137",
    2: "e0659201f2b630ac3a105508f66dd38f641c6e8d170ebd2a26c1585c1ca9a130",
    3: "013c032018a0514e6e7c4fed83cf2b1901a5d9e98dfb8dbf8c40aa22f1ae07af",
}


class TestCsrBuild:
    @staticmethod
    def lexsort_csr(n, lo, hi):
        """Reference CSR: both orientations ordered by a (src, dst) lexsort."""
        src = np.concatenate((lo, hi))
        dst = np.concatenate((hi, lo))
        order = np.lexsort((dst, src))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return indptr, dst[order]

    @pytest.mark.parametrize("n", [0, 1, 5, 300])
    def test_from_sorted_pairs_on_shuffled_pairs(self, n):
        rng = np.random.default_rng(n)
        total = pair_count(n)
        for k in sorted({0, total // 3, total}):
            lo, hi = decode_pair_indices(n, sample_distinct(rng, total, k))
            shuffle = rng.permutation(k)
            lo, hi = lo[shuffle], hi[shuffle]
            g = Graph.from_sorted_pairs(n, lo, hi)
            indptr, indices = self.lexsort_csr(n, lo, hi)
            assert g.m == k
            assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
            np.testing.assert_array_equal(g.indptr, indptr)
            np.testing.assert_array_equal(g.indices, indices)

    #: Every path into ``Graph.from_sorted_pairs``; each factory's last
    #: call there builds the graph it returns.
    PAIR_SOURCES = {
        "gnp": lambda: gnp_random_graph(300, 0.05, seed=1),
        "gnm": lambda: gnm_random_graph(200, 900, seed=2),
        "regular": lambda: random_regular_graph(100, 6, seed=3),
        "chung-lu": lambda: chung_lu_graph(
            power_law_weights(200, 2.5, mean_degree=6.0), seed=4),
        "subgraph": lambda: gnp_random_graph(120, 0.1, seed=5).subgraph(
            range(119, -1, -3))[0],
        "batch": lambda: batch_gnp(64, 0.2, [7, 8])[1],
        "edgeless": lambda: gnp_random_graph(40, 0.0, seed=6),
        "n0": lambda: gnp_random_graph(0, 0.5, seed=0),
        "n1": lambda: gnp_random_graph(1, 0.5, seed=0),
        "n2": lambda: gnp_random_graph(2, 1.0, seed=0),
    }

    @pytest.mark.parametrize("name", sorted(PAIR_SOURCES))
    def test_pair_sources_hand_ordered_pairs(self, name, monkeypatch):
        # The CSR build orders only the reverse orientation, so every
        # source must hand over its pairs in ascending (lo, hi) order;
        # the result must equal the lexsort reference on those pairs.
        calls = []
        build = Graph.from_sorted_pairs.__func__

        def spy(cls, n, lo, hi):
            calls.append((n, np.array(lo), np.array(hi)))
            return build(cls, n, lo, hi)

        monkeypatch.setattr(Graph, "from_sorted_pairs", classmethod(spy))
        g = self.PAIR_SOURCES[name]()
        n, lo, hi = calls[-1]
        assert np.all(lo < hi)
        assert np.all(np.diff(lo * n + hi) > 0)
        indptr, indices = self.lexsort_csr(n, lo, hi)
        assert (g.n, g.m) == (n, lo.size)
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int64
        np.testing.assert_array_equal(g.indptr, indptr)
        np.testing.assert_array_equal(g.indices, indices)

    @pytest.mark.parametrize("seed", sorted(GNP_1024_INDICES_SHA256))
    def test_gnp_golden_indices(self, seed):
        g = gnp_random_graph(1024, paper_probability(1024, 1, 8), seed=seed)
        digest = hashlib.sha256(g.indices.tobytes()).hexdigest()
        assert digest == GNP_1024_INDICES_SHA256[seed]


class TestGnm:
    def test_exact_edge_count(self):
        for m in (0, 10, 100):
            assert gnm_random_graph(50, m, seed=3).m == m

    def test_rejects_too_many_edges(self):
        with pytest.raises(ValueError):
            gnm_random_graph(5, 11, seed=0)

    def test_uniform_over_pairs(self):
        # Every pair should appear with roughly equal frequency.
        hits = np.zeros((6, 6))
        for s in range(300):
            g = gnm_random_graph(6, 3, seed=s)
            for a, b in g.edges():
                hits[a, b] += 1
        upper = hits[np.triu_indices(6, k=1)]
        assert upper.min() > 0.4 * upper.mean()


class TestRegular:
    def test_degrees_exact(self):
        g = random_regular_graph(30, 4, seed=1)
        assert all(g.degree(v) == 4 for v in g.nodes())

    def test_simple(self):
        g = random_regular_graph(24, 3, seed=5)
        assert g.m == 24 * 3 // 2

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError, match="even"):
            random_regular_graph(5, 3, seed=0)

    def test_degree_too_large_rejected(self):
        with pytest.raises(ValueError):
            random_regular_graph(4, 4, seed=0)

    def test_zero_degree(self):
        assert random_regular_graph(6, 0, seed=0).m == 0


class TestChungLu:
    def test_expected_degrees_tracked(self):
        n = 600
        w = np.full(n, 12.0)
        g = chung_lu_graph(w, seed=2)
        mean_deg = 2 * g.m / n
        assert abs(mean_deg - 12.0) < 2.0

    def test_zero_weights(self):
        assert chung_lu_graph(np.zeros(10), seed=0).m == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            chung_lu_graph([-1.0, 2.0], seed=0)

    def test_power_law_weights_mean(self):
        w = power_law_weights(500, 2.5, mean_degree=8.0)
        assert w.sum() / 500 == pytest.approx(8.0)
        assert w[0] > w[-1]  # heavy head

    def test_power_law_validation(self):
        with pytest.raises(ValueError):
            power_law_weights(10, 1.5, mean_degree=2.0)


def test_gnp_matches_networkx_statistics():
    """Cross-check degree statistics against the networkx oracle."""
    networkx = pytest.importorskip("networkx")
    n, p = 300, 0.1
    ours = np.mean([gnp_random_graph(n, p, seed=s).m for s in range(5)])
    theirs = np.mean([
        networkx.gnp_random_graph(n, p, seed=s).number_of_edges() for s in range(5)
    ])
    expect = pair_count(n) * p
    assert abs(ours - expect) < 0.05 * expect
    assert abs(theirs - expect) < 0.05 * expect
