"""Fused-kernel vs pure-numpy bitwise equality (``repro.engines._jit``).

The fused batch kernels (:func:`~repro.engines._jit.walk_steps_impl`,
:func:`~repro.engines._jit.tree_build_impl`,
:func:`~repro.engines._jit.reverse_blocks_impl`) promise results
*bitwise identical* to the numpy pass loop whether or not numba
compiles them.  These tests enforce that promise on every host by
installing the ``*_impl`` functions **uncompiled** as the dispatch
targets — the exact code numba would compile, minus the compilation —
and holding every RunResult field against the numpy path.  Each impl
is written once with a ``prange`` trial loop (``range`` uncompiled),
so the serial and threaded builds share this source.  The CI jit lanes
(``REPRO_JIT=1`` with numba installed; one with
``REPRO_JIT_THREADS=2``) re-run the whole suite with the kernels
actually compiled, and :class:`TestCompiledBuilds` holds the serial
and ``parallel=True`` builds to each other there.

:class:`TestNodeStreams` pins the scalar half of the same replication,
:func:`~repro.engines.batchwalk.node_streams`, to the spawned
``default_rng`` generators the per-trial engines used to build.
"""

import math

import numpy as np
import pytest

from repro.engines import _jit, batchwalk
from repro.engines.arraywalk import edge_twins
from repro.engines.batchwalk import (
    build_batch_tree,
    node_streams,
    stack_graph_csrs,
    stacked_edge_twins,
)
from repro.engines.fast import _dra_fast
from repro.engines.fast_batch import (
    _cre_fast_batch,
    _dhc2_fast_batch,
    _dra_fast_batch,
    _turau_fast_batch,
)
from repro.engines.fast_dhc2 import _dhc2_fast
from repro.engines.fast_turau import _turau_fast
from repro.engines.kmachine_engine import _dra_kmachine
from repro.graphs import gnp_random_graph

BATCH_RUNNERS = {
    "dra": _dra_fast_batch,
    "cre": _cre_fast_batch,
    "dhc2": _dhc2_fast_batch,
    "turau": _turau_fast_batch,
}

FIELDS = ("success", "cycle", "steps", "rounds", "detail")


def sample(n, factor, seed):
    return gnp_random_graph(n, min(1.0, factor * math.log(n) / n), seed=seed)


def mixed_batch(n, trials, *, factors=(1.0, 8.0, 14.0), base_seed=300):
    graphs = [sample(n, factors[i % len(factors)], base_seed + i)
              for i in range(trials)]
    return graphs, [50 + i for i in range(trials)]


@pytest.fixture
def fused(monkeypatch):
    """Install the uncompiled impls as the live kernel dispatch targets."""
    monkeypatch.setattr(_jit, "walk_kernel", _jit.walk_steps_impl)
    monkeypatch.setattr(_jit, "tree_kernel", _jit.tree_build_impl)
    monkeypatch.setattr(_jit, "reverse_blocks", _jit.reverse_blocks_impl)


class TestFusedKernelEquality:
    """One fused trial-at-a-time loop == interleaved numpy passes."""

    def assert_paths_identical(self, algorithm, graphs, seeds, monkeypatch,
                               **kwargs):
        runner = BATCH_RUNNERS[algorithm]
        with monkeypatch.context() as m:
            m.setattr(_jit, "walk_kernel", None)
            m.setattr(_jit, "tree_kernel", None)
            m.setattr(_jit, "reverse_blocks", None)
            plain = runner(graphs, seeds=seeds, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(_jit, "walk_kernel", _jit.walk_steps_impl)
            m.setattr(_jit, "tree_kernel", _jit.tree_build_impl)
            m.setattr(_jit, "reverse_blocks", _jit.reverse_blocks_impl)
            fused = runner(graphs, seeds=seeds, **kwargs)
        assert len(fused) == len(plain) == len(graphs)
        outcomes = set()
        for i, (a, b) in enumerate(zip(fused, plain)):
            outcomes.add(b.success)
            for field in FIELDS:
                assert getattr(a, field) == getattr(b, field), (
                    f"{algorithm}: trial {i} field {field}")
        return outcomes

    @pytest.mark.parametrize("algorithm", sorted(BATCH_RUNNERS))
    @pytest.mark.parametrize("n", [16, 96])
    def test_mixed_outcomes(self, algorithm, n, monkeypatch):
        graphs, seeds = mixed_batch(n, 9)
        outcomes = self.assert_paths_identical(
            algorithm, graphs, seeds, monkeypatch)
        if n == 96 and algorithm in ("dra", "cre"):
            # The density mix must exercise success and failure alike.
            assert outcomes == {True, False}

    @pytest.mark.parametrize("algorithm", sorted(BATCH_RUNNERS))
    def test_single_trial(self, algorithm, monkeypatch):
        graphs, seeds = mixed_batch(64, 1, factors=(8.0,))
        self.assert_paths_identical(algorithm, graphs, seeds, monkeypatch)

    def test_budget_failures(self, monkeypatch):
        # FAIL_BUDGET exits mid-walk: end_round / flood bookkeeping
        # must match where the numpy pass loop stops.
        graphs, seeds = mixed_batch(64, 4, factors=(8.0,))
        self.assert_paths_identical("dra", graphs, seeds, monkeypatch,
                                    step_budget=7)

    def test_dhc2_partition_walks(self, monkeypatch):
        # Explicit k forces empty / disconnected colour classes, so the
        # fused walk runs with per-trial sizes below the block size.
        graphs = [sample(12, 3.0, 900 + i) for i in range(6)]
        self.assert_paths_identical("dhc2", graphs, list(range(6)),
                                    monkeypatch, k=5)


class TestFusedTreeKernel:
    @pytest.mark.parametrize("impl_name", ["tree_build_impl"])
    def test_tree_matches_numpy(self, impl_name, monkeypatch):
        graphs = [sample(32, 8.0, 20 + i) for i in range(5)]
        indptr, indices = stack_graph_csrs(graphs)
        roots = np.arange(5, dtype=np.int64) * 32
        with monkeypatch.context() as m:
            m.setattr(_jit, "tree_kernel", None)
            plain = build_batch_tree(indptr, indices, 5, 32, roots)
        with monkeypatch.context() as m:
            m.setattr(_jit, "tree_kernel", getattr(_jit, impl_name))
            fused = build_batch_tree(indptr, indices, 5, 32, roots)
        np.testing.assert_array_equal(fused.depth, plain.depth)
        np.testing.assert_array_equal(fused.parent, plain.parent)
        np.testing.assert_array_equal(fused.ok, plain.ok)
        np.testing.assert_array_equal(fused.tree_depth, plain.tree_depth)


@pytest.mark.skipif(not _jit.ENABLED,
                    reason="needs numba and REPRO_JIT=1 (the CI jit lanes)")
class TestCompiledBuilds:
    def test_serial_and_parallel_builds_agree(self, monkeypatch):
        serial, parallel = _jit._kernels(False), _jit._kernels(True)
        for a, b in zip(serial, parallel):
            # One source compiled twice, each build with its own
            # on-disk cache index.
            assert a is not b
            assert a.py_func.__code__ is b.py_func.__code__
            assert (a._cache._cache_file._index_name
                    != b._cache._cache_file._index_name)
        graphs, seeds = mixed_batch(96, 9)
        for algorithm, runner in sorted(BATCH_RUNNERS.items()):
            runs = []
            for kernels in (serial, parallel):
                with monkeypatch.context() as m:
                    for name, kernel in zip(
                            ("walk_kernel", "tree_kernel", "reverse_blocks"),
                            kernels):
                        m.setattr(_jit, name, kernel)
                    runs.append(runner(graphs, seeds=seeds))
            for i, (a, b) in enumerate(zip(*runs)):
                for field in FIELDS:
                    assert getattr(a, field) == getattr(b, field), (
                        f"{algorithm}: trial {i} field {field}")


class TestStackedEdgeTwins:
    def test_per_block_twins_match_serial(self):
        graphs = [sample(24, 6.0, 40 + i) for i in range(4)]
        indptr, indices = stack_graph_csrs(graphs)
        twins = stacked_edge_twins(indptr, indices, 4, 24)
        for b, g in enumerate(graphs):
            lo = int(indptr[b * 24])
            hi = int(indptr[(b + 1) * 24])
            want = edge_twins(g.indptr, g.indices)
            np.testing.assert_array_equal(twins[lo:hi] - lo, want)


class TestJitGating:
    def test_disabled_by_default(self):
        # Without REPRO_JIT (or without numba) nothing is compiled and
        # the dispatch attributes are None -> pure-numpy everywhere.
        if not _jit.ENABLED:
            assert _jit.walk_kernel is None
            assert _jit.tree_kernel is None
            assert _jit.reverse_blocks is None

    def test_impls_are_plain_python(self):
        # The docstring contract: *_impl stay callable uncompiled.
        for fn in (_jit.walk_steps_impl, _jit.tree_build_impl,
                   _jit.reverse_blocks_impl):
            assert callable(fn) and fn.__module__ == "repro.engines._jit"

    def test_fused_not_used_without_exact_pool(self, fused, monkeypatch):
        # The kernel replays DrawPool's PCG64 state arrays directly, so
        # dispatch must stay numpy when the pool fell back to per-node
        # Generators (no state arrays to advance) — and the fallback
        # results must equal the fused ones.
        from repro.engines import batchwalk

        calls = []

        def counting_kernel(*args):
            calls.append(1)
            return _jit.walk_steps_impl(*args)

        monkeypatch.setattr(_jit, "walk_kernel", counting_kernel)
        graphs, seeds = mixed_batch(16, 2, factors=(8.0,))
        with monkeypatch.context() as m:
            m.setattr(batchwalk, "_EXACT", False)
            plain = _dra_fast_batch(graphs, seeds=seeds)
        assert calls == []  # kernel installed but never dispatched
        want = _dra_fast_batch(graphs, seeds=seeds)
        assert calls  # exact pool restored -> fused dispatch taken
        for a, b in zip(plain, want):
            for field in FIELDS:
                assert getattr(a, field) == getattr(b, field)


class TestNodeStreams:
    """Scalar per-node streams == ``default_rng`` of every spawn child."""

    BOUNDS = (1, 2, 3, 7, 64, 4096, 2**31 + 1, 2**32 - 1, 2**32)

    @staticmethod
    def spawned(seed, n):
        return [np.random.default_rng(c)
                for c in np.random.SeedSequence(seed).spawn(n)]

    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 7, 2**130 + 5])
    def test_bit_identical_to_spawned_generators(self, seed):
        n = 9
        ours, ref = node_streams(seed, n), self.spawned(seed, n)
        if batchwalk._exact():
            assert all(isinstance(s, batchwalk._NodeStream) for s in ours)
        # Interleaved node order: each stream's buffered half-word must
        # survive other nodes' draws in between.
        order = np.random.default_rng(seed % 97)
        for _ in range(800):
            v = int(order.integers(n))
            bound = self.BOUNDS[int(order.integers(len(self.BOUNDS)))]
            assert ours[v].integers(bound) == int(ref[v].integers(bound))

    def test_numpy_integer_bounds(self):
        ours, ref = node_streams(11, 2), self.spawned(11, 2)
        for bound in (np.int64(5), np.uint32(2**32 - 1), np.int32(1)):
            assert ours[1].integers(bound) == int(ref[1].integers(bound))

    def test_empty_and_invalid_bounds(self):
        assert node_streams(5, 0) == []
        stream = node_streams(5, 1)[0]
        for bound in (0, -3, 2**32 + 1):
            with pytest.raises(ValueError):
                stream.integers(bound)

    def test_forced_fallback_gives_identical_results(self, monkeypatch):
        graphs = [sample(40, factor, 700 + i)
                  for i, factor in enumerate((1.0, 8.0, 8.0, 14.0))]
        runners = {
            "dra/fast": _dra_fast,
            "dhc2/fast": _dhc2_fast,
            "turau/fast": _turau_fast,
            "dra/kmachine": lambda g, seed: _dra_kmachine(
                g, seed=seed, k_machines=4),
        }

        def run_grid():
            return {name: [run(g, seed=20 + i) for i, g in enumerate(graphs)]
                    for name, run in runners.items()}

        with monkeypatch.context() as m:
            m.setattr(batchwalk, "_EXACT", False)
            assert all(isinstance(s, np.random.Generator)
                       for s in node_streams(3, 4))
            fallback = run_grid()
        streamed = run_grid()
        outcomes = set()
        for name, results in streamed.items():
            for i, (a, b) in enumerate(zip(results, fallback[name])):
                outcomes.add(a.success)
                for field in FIELDS:
                    assert getattr(a, field) == getattr(b, field), (
                        f"{name}: trial {i} field {field}")
        assert outcomes == {True, False}
