"""Batched ``G(n, p)`` generation (``repro.graphs.batch_gnp``).

The module's whole value rests on one promise: ``batch_gnp(n, p,
seeds)`` is *seed-for-seed identical* to calling ``gnp_random_graph``
once per seed, and ``GnpBatch.stacked()`` is *bit-identical* to
``stack_graph_csrs`` + ``stacked_edge_twins`` over the materialised
graphs.  These tests pin that promise across the sampling regimes
(pooled sparse, dense permutation, degenerate), the per-trial
fallback, and the rarely-taken top-up branch — the last with scripted
generators, since honest oversampling makes it a ~1e-10 event at test
sizes.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.engines.batchwalk import stack_graph_csrs, stacked_edge_twins
import importlib

from repro.graphs import GnpBatch, batch_gnp, gnp_random_graph

# ``repro.graphs`` re-exports the *function* ``batch_gnp``, shadowing
# the submodule attribute of the same name — go via sys.modules.
batch_gnp_module = importlib.import_module("repro.graphs.batch_gnp")
from repro.graphs._sampling import (
    decode_pair_indices,
    encode_pairs,
    pair_count,
    sample_distinct,
)

GRID = [
    # (n, p, trials): sparse pooled, dense permutation, degenerate.
    (16, 0.25, 5),
    (48, 0.10, 7),
    (64, 0.05, 3),
    (10, 0.95, 4),
    (8, 1.0, 3),
    (12, 0.0, 3),
    (1, 0.5, 2),
    (0, 0.5, 2),
    (2, 0.5, 6),
]


def reference(n, p, seeds):
    return [gnp_random_graph(n, p, seed=s) for s in seeds]


class TestSeedForSeedEquality:
    @pytest.mark.parametrize("n,p,trials", GRID)
    def test_matches_per_trial_generator(self, n, p, trials):
        seeds = [1000 + 7 * i for i in range(trials)]
        batch = batch_gnp(n, p, seeds)
        assert len(batch) == trials
        for b, want in enumerate(reference(n, p, seeds)):
            assert batch[b] == want, f"trial {b}"

    def test_mixed_densities_share_one_batch(self):
        # Same n, wildly different seeds: the pooled unique must keep
        # each trial's draws in its own keyed slot.
        seeds = list(range(20))
        batch = batch_gnp(32, 0.2, seeds)
        for b, want in enumerate(reference(32, 0.2, seeds)):
            assert batch[b] == want

    def test_fallback_path_identical(self):
        seeds = [3, 14, 159]
        pooled = batch_gnp_module._generate(24, 0.3, seeds, pooled=True)
        serial = batch_gnp_module._generate(24, 0.3, seeds, pooled=False)
        for b in range(len(seeds)):
            assert pooled[b] == serial[b]

    def test_self_check_failure_forces_fallback(self, monkeypatch):
        calls = []
        real = batch_gnp_module.sample_distinct

        def counting(rng, upper, k):
            calls.append(k)
            return real(rng, upper, k)

        monkeypatch.setattr(batch_gnp_module, "_EXACT", False)
        monkeypatch.setattr(batch_gnp_module, "sample_distinct", counting)
        seeds = [5, 6, 7]
        batch = batch_gnp(40, 0.1, seeds)
        assert calls  # sparse trials went through the serial sampler
        for b, want in enumerate(reference(40, 0.1, seeds)):
            assert batch[b] == want

    def test_pooled_sampling_exact_caches_verdict(self, monkeypatch):
        monkeypatch.setattr(batch_gnp_module, "_EXACT", None)
        assert batch_gnp_module.pooled_sampling_exact() is True
        assert batch_gnp_module._EXACT is True

    def test_overflow_guard_degrades_to_serial(self):
        # len(rngs) * upper over the int64 keying headroom: the pooled
        # unique is skipped, sample_distinct runs per trial, results
        # still match the reference stream exactly.
        upper = 2**61
        counts = np.array([3, 4], dtype=np.int64)
        rngs = [np.random.default_rng(s) for s in (11, 12)]
        got = dict(batch_gnp_module._trial_runs(
            rngs, upper, counts, pooled=True))
        assert sorted(got) == [0, 1]
        np.testing.assert_array_equal(
            got[0], sample_distinct(np.random.default_rng(11), upper, 3))
        np.testing.assert_array_equal(
            got[1], sample_distinct(np.random.default_rng(12), upper, 4))

    @pytest.mark.parametrize("p", [0.4, 0.9])
    def test_dense_pool_is_the_only_batch_sized_allocation(self, p):
        # Dense runs are drawn and decoded straight into the pair
        # arrays one trial at a time: traced peak memory stays near the
        # pool itself (lo + hi), with no batch-sized index array or
        # list of runs alive beside it.
        batch_gnp(60, p, [0])  # self-check and imports outside the trace
        tracemalloc.start()
        try:
            batch = batch_gnp(200, p, list(range(40)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pool = 2 * 8 * int(batch.edge_counts.sum())
        assert peak < 1.25 * pool


class TestStackedCsr:
    @pytest.mark.parametrize("n,p,trials", [(24, 0.2, 6), (10, 0.9, 4),
                                            (12, 0.0, 3)])
    def test_bit_identical_to_serial_stacking(self, n, p, trials):
        seeds = [70 + i for i in range(trials)]
        batch = batch_gnp(n, p, seeds)
        indptr, indices, twins = batch.stacked()
        graphs = reference(n, p, seeds)
        want_indptr, want_indices = stack_graph_csrs(graphs)
        np.testing.assert_array_equal(indptr, want_indptr)
        np.testing.assert_array_equal(indices, want_indices)
        assert indices.dtype == want_indices.dtype
        want_twins = stacked_edge_twins(want_indptr, want_indices, trials, n)
        np.testing.assert_array_equal(twins, want_twins)
        assert twins.dtype == want_twins.dtype

    def test_stacked_is_cached(self):
        batch = batch_gnp(16, 0.3, [1, 2])
        assert batch.stacked() is batch.stacked()

    def test_edge_counts(self):
        seeds = [9, 10, 11]
        batch = batch_gnp(20, 0.25, seeds)
        want = [g.indices.size // 2 for g in reference(20, 0.25, seeds)]
        np.testing.assert_array_equal(batch.edge_counts, want)
        np.testing.assert_array_equal(batch.directed_counts,
                                      [2 * w for w in want])


class TestListProtocol:
    def test_graphs_are_built_on_access_and_not_kept(self):
        seeds = [1, 2, 3]
        batch = batch_gnp(16, 0.3, seeds)
        for b, seed in enumerate(seeds):
            assert batch[b] == gnp_random_graph(16, 0.3, seed=seed)
        graph = batch[1]
        ref = weakref.ref(graph)
        del graph
        assert ref() is None

    def test_negative_index_and_bounds(self):
        batch = batch_gnp(16, 0.3, [1, 2, 3])
        assert batch[-1] == batch[2]
        with pytest.raises(IndexError):
            batch[3]
        with pytest.raises(IndexError):
            batch[-4]

    def test_iteration_yields_every_trial(self):
        seeds = [4, 5, 6, 7]
        batch = batch_gnp(16, 0.4, seeds)
        assert list(batch) == reference(16, 0.4, seeds)

    def test_contiguous_slice_is_zero_copy_view(self):
        seeds = list(range(8))
        batch = batch_gnp(24, 0.2, seeds)
        view = batch[2:6]
        assert isinstance(view, GnpBatch)
        assert len(view) == 4
        assert view._lo is batch._lo  # shared pair arrays, no copy
        for i in range(4):
            assert view[i] == batch[2 + i]
        indptr, indices, twins = view.stacked()
        want_indptr, want_indices = stack_graph_csrs(
            [batch[2 + i] for i in range(4)])
        np.testing.assert_array_equal(indptr, want_indptr)
        np.testing.assert_array_equal(indices, want_indices)

    def test_empty_and_clamped_slices(self):
        batch = batch_gnp(16, 0.3, [1, 2, 3])
        assert len(batch[2:2]) == 0
        assert len(batch[2:1]) == 0
        assert len(batch[1:99]) == 2

    def test_non_unit_step_rejected(self):
        batch = batch_gnp(16, 0.3, [1, 2, 3])
        with pytest.raises(ValueError, match="contiguous"):
            batch[::2]


class ScriptedRng:
    """Replays a fixed script of ``integers`` draws; delegates the rest.

    Forces the top-up branch of distinct sampling deterministically —
    with honest oversampling a shortfall is a ~1e-10 event, so the
    branch is pinned here instead of by luck.
    """

    def __init__(self, script, choice_seed=99):
        self.script = list(script)
        self._rng = np.random.default_rng(choice_seed)

    def integers(self, low, high=None, size=None, dtype=np.int64):
        draw = np.asarray(self.script.pop(0), dtype=dtype)
        assert draw.size == size, "script out of step with the sampler"
        return draw

    def choice(self, upper, size=None, replace=True):
        return self._rng.choice(upper, size=size, replace=replace)

    def permutation(self, upper):  # pragma: no cover - dense regime only
        return self._rng.permutation(upper)


class TestTopUpBranch:
    def test_top_up_matches_sample_distinct_tail(self):
        upper, k = 1000, 50
        first = int(k * 1.1) + 16   # 71 draws, only 10 distinct values
        script = [
            np.tile(np.arange(10), 8)[:first],          # round 1: 10 distinct
            np.arange(100, 100 + k - 10 + 16),          # top-up 1: now 66 > k
        ]
        a = ScriptedRng([s.copy() for s in script])
        b = ScriptedRng([s.copy() for s in script])
        want = sample_distinct(a, upper, k)
        chosen = np.unique(b.integers(0, upper, size=first, dtype=np.int64))
        got = batch_gnp_module.top_up_distinct(b, upper, k, chosen)
        assert want.size == k
        np.testing.assert_array_equal(got, want)

    def test_two_round_top_up(self):
        upper, k = 1000, 50
        first = int(k * 1.1) + 16
        script = [
            np.tile(np.arange(10), 8)[:first],          # 10 distinct
            np.tile(np.arange(10, 20), 6)[:k - 10 + 16],  # +10 -> 20 distinct
            np.arange(500, 500 + k - 20 + 16),          # +46 -> 66 distinct
        ]
        a = ScriptedRng([s.copy() for s in script])
        b = ScriptedRng([s.copy() for s in script])
        want = sample_distinct(a, upper, k)
        chosen = np.unique(b.integers(0, upper, size=first, dtype=np.int64))
        got = batch_gnp_module.top_up_distinct(b, upper, k, chosen)
        np.testing.assert_array_equal(got, want)


class TestSortedSamplingContract:
    """``sample_distinct`` returns sorted indices; the decode needs them.

    ``decode_pair_indices`` reads each row's pair count off the sorted
    indices, so it is checked against ``encode_pairs`` and against
    ``np.triu_indices`` (whose row-major order is the pair index order)
    over every index, strided subsets and every row boundary.
    """

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 63, 64, 65, 127, 200])
    def test_decode_every_pair_index(self, n):
        total = pair_count(n)
        want_lo, want_hi = np.triu_indices(n, 1)
        lo, hi = decode_pair_indices(n, np.arange(total, dtype=np.int64))
        np.testing.assert_array_equal(lo, want_lo)
        np.testing.assert_array_equal(hi, want_hi)
        assert lo.dtype == hi.dtype == np.int64
        np.testing.assert_array_equal(encode_pairs(n, lo, hi),
                                      np.arange(total))

    @pytest.mark.parametrize("n", range(2, 201, 9))
    def test_decode_strided_subsets(self, n):
        total = pair_count(n)
        want_lo, want_hi = np.triu_indices(n, 1)
        for start in {0, 1, total // 2, total - 1}:
            for stride in (1, 2, 3, n - 1, n, n + 1, 97):
                idx = np.arange(start, total, stride, dtype=np.int64)
                lo, hi = decode_pair_indices(n, idx)
                np.testing.assert_array_equal(lo, want_lo[idx])
                np.testing.assert_array_equal(hi, want_hi[idx])
                np.testing.assert_array_equal(encode_pairs(n, lo, hi), idx)

    def test_decode_row_boundaries_at_large_n(self):
        n = 10**5
        rows = np.arange(n - 1, dtype=np.int64)
        starts = rows * n - rows * (rows + 1) // 2
        lo, hi = decode_pair_indices(n, starts)
        np.testing.assert_array_equal(lo, rows)
        np.testing.assert_array_equal(hi, rows + 1)
        lo, hi = decode_pair_indices(n, starts[1:] - 1)  # each row's last pair
        np.testing.assert_array_equal(lo, rows[:-1])
        np.testing.assert_array_equal(hi, np.full(n - 2, n - 1))
        lo, hi = decode_pair_indices(n, np.array([pair_count(n) - 1]))
        assert (lo.tolist(), hi.tolist()) == ([n - 2], [n - 1])

    def test_decode_empty(self):
        for n in (0, 1, 5):
            lo, hi = decode_pair_indices(n, np.empty(0, dtype=np.int64))
            assert lo.size == hi.size == 0

    @pytest.mark.parametrize("upper,k", [
        (1000, 400),     # dense: k * 3 >= upper, permutation branch
        (1000, 1000),    # dense: every value
        (10**6, 2000),   # sparse: rejection, downsampled overshoot
        (10**12, 50),    # sparse, huge range
    ])
    def test_sample_distinct_is_sorted_and_distinct(self, upper, k):
        for seed in range(5):
            out = sample_distinct(np.random.default_rng(seed), upper, k)
            assert out.dtype == np.int64 and out.size == k
            assert np.all(np.diff(out) > 0)
            assert out[0] >= 0 and out[-1] < upper

    def test_top_up_keeps_the_order(self):
        upper, k = 1000, 50
        first = int(k * 1.1) + 16
        rng = ScriptedRng([np.tile(np.arange(10), 8)[:first],
                           np.arange(900, 900 - (k - 10 + 16), -1)])
        out = sample_distinct(rng, upper, k)
        assert out.size == k and np.all(np.diff(out) > 0)

    @pytest.mark.parametrize("n,p", [(96, 0.4), (300, 0.9), (128, 0.06),
                                     (400, 0.02)])
    def test_batch_matches_per_trial_generator(self, n, p):
        # Dense points (p >= 1/3) take the permutation branch through
        # sample_distinct; sparse ones the pooled unique.
        seeds = [5, 17, 2**40 + 1]
        batch = batch_gnp(n, p, seeds)
        for b, want in enumerate(reference(n, p, seeds)):
            assert batch[b] == want, f"trial {b}"


class TestValidation:
    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_bad_probability(self, p):
        with pytest.raises(ValueError, match="probability"):
            batch_gnp(8, p, [0])

    def test_bad_node_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            batch_gnp(-1, 0.5, [0])

    def test_matches_gnp_validation(self):
        # The same inputs must be rejected by both entry points.
        for bad_p in (-0.1, 1.5):
            with pytest.raises(ValueError):
                gnp_random_graph(8, bad_p, seed=0)

    def test_empty_seed_list(self):
        batch = batch_gnp(16, 0.3, [])
        assert len(batch) == 0
        indptr, indices, twins = batch.stacked()
        assert indptr.size == 1 and indices.size == 0 and twins.size == 0
