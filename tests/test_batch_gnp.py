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

import numpy as np
import pytest

from repro.engines.batchwalk import stack_graph_csrs, stacked_edge_twins
import importlib

from repro.graphs import GnpBatch, batch_gnp, gnp_random_graph

# ``repro.graphs`` re-exports the *function* ``batch_gnp``, shadowing
# the submodule attribute of the same name — go via sys.modules.
batch_gnp_module = importlib.import_module("repro.graphs.batch_gnp")
from repro.graphs._sampling import pair_count, sample_distinct

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
        got = batch_gnp_module._sample_batch_indices(
            rngs, upper, counts, pooled=True)
        want = np.concatenate([
            sample_distinct(np.random.default_rng(11), upper, 3),
            sample_distinct(np.random.default_rng(12), upper, 4),
        ])
        np.testing.assert_array_equal(got, want)


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
    def test_lazy_graphs_are_cached(self):
        batch = batch_gnp(16, 0.3, [1, 2, 3])
        assert batch[1] is batch[1]

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
