"""The fused batch kernels and the ``fast-batch`` route around them.

The fused batch kernels (:func:`~repro.engines._jit.walk_steps_impl`,
:func:`~repro.engines._jit.tree_build_impl`) promise results *bitwise
identical* to per-trial ``fast`` whether or not numba compiles them.  These tests enforce that promise on every host by
installing the ``*_impl`` functions **uncompiled** as the dispatch
targets — the exact code numba would compile, minus the compilation —
and holding every RunResult field against per-trial ``fast`` (and the
tree kernel against :func:`~repro.engines.arraywalk.build_array_tree`
per block).  The CI jit lane (``REPRO_JIT=1`` with numba installed)
re-runs the whole suite with the kernels actually compiled.  CRE and
Turau have no batch kernel; their ``fast-batch`` rides the same
equality checks as the per-trial route.

:class:`TestBatchTreeTiming` holds the batch tree's completion rounds
and flood eccentricities to :class:`~repro.engines.arraywalk.ArrayTree`
per trial, over full and colour-class blocks.

:class:`TestKernelRoute` pins the route: without a dispatchable walk
kernel, DRA and DHC2 ``fast-batch`` run each trial on ``fast``, and
CRE and Turau always do.

:class:`TestNodeStreams` pins the scalar half of the same replication,
:func:`~repro.engines.batchwalk.node_streams`, to the spawned
``default_rng`` generators the per-trial engines used to build.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import _jit, batchwalk, fast_batch
from repro.engines.arraywalk import build_array_tree, filtered_csr
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
    _dhc2_fast_batch_one,
    _dra_fast_batch,
    _dra_fast_batch_one,
    _turau_fast_batch,
    batch_kernel_active,
)
from repro.engines.fast_cre import _cre_fast
from repro.engines.fast_dhc2 import _dhc2_fast
from repro.engines.fast_turau import _turau_fast
from repro.engines.kmachine_engine import _dra_kmachine
from repro.graphs import batch_gnp, gnp_random_graph
from repro.graphs.adjacency import csr_sources

BATCH_RUNNERS = {
    "dra": _dra_fast_batch,
    "cre": _cre_fast_batch,
    "dhc2": _dhc2_fast_batch,
    "turau": _turau_fast_batch,
}

FAST_RUNNERS = {
    "dra": _dra_fast,
    "cre": _cre_fast,
    "dhc2": _dhc2_fast,
    "turau": _turau_fast,
}

FIELDS = ("success", "cycle", "steps", "rounds", "detail")


def sample(n, factor, seed):
    return gnp_random_graph(n, min(1.0, factor * math.log(n) / n), seed=seed)


def edge_twins(indptr, indices):
    """Oracle twin table of one CSR: ``twins[i]`` holds ``v→u`` when
    position ``i`` holds ``u→v``.  Sorting the directed entries by
    ``(dst, src)`` visits the reverse partners in ``(src, dst)`` order.
    """
    return np.lexsort((csr_sources(indptr), indices))


def mixed_batch(n, trials, *, factors=(1.0, 8.0, 14.0), base_seed=300):
    graphs = [sample(n, factors[i % len(factors)], base_seed + i)
              for i in range(trials)]
    return graphs, [50 + i for i in range(trials)]


@pytest.fixture
def fused(monkeypatch):
    """Install the uncompiled impls as the live kernel dispatch targets."""
    monkeypatch.setattr(_jit, "walk_kernel", _jit.walk_steps_impl)
    monkeypatch.setattr(_jit, "tree_kernel", _jit.tree_build_impl)


class TestFusedKernelEquality:
    """One fused trial-at-a-time loop == per-trial ``fast``."""

    def assert_paths_identical(self, algorithm, graphs, seeds, monkeypatch,
                               **kwargs):
        serial = FAST_RUNNERS[algorithm]
        plain = [serial(g, seed=s, **kwargs) for g, s in zip(graphs, seeds)]
        with monkeypatch.context() as m:
            m.setattr(_jit, "walk_kernel", _jit.walk_steps_impl)
            m.setattr(_jit, "tree_kernel", _jit.tree_build_impl)
            assert batch_kernel_active(algorithm) == (
                algorithm in ("dra", "dhc2"))
            fused = BATCH_RUNNERS[algorithm](graphs, seeds=seeds, **kwargs)
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
        # must match where the per-trial walk stops.
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
    def test_tree_matches_array_tree(self):
        # Mixed densities: the sparse blocks leave some trees short.
        n = 32
        graphs = [sample(n, factor, 20 + i)
                  for i, factor in enumerate((8.0, 0.5, 8.0, 1.0, 14.0))]
        batch = len(graphs)
        indptr, indices = stack_graph_csrs(graphs)
        roots = np.arange(batch, dtype=np.int64) * n
        tree = build_batch_tree(indptr, indices, batch, n, roots)
        ok = []
        for b, g in enumerate(graphs):
            want = build_array_tree(g.indptr, g.indices,
                                    np.arange(n, dtype=np.int64), root=0)
            ok.append(want is not None)
            assert bool(tree.ok[b]) == ok[-1]
            if want is None:
                continue
            block = slice(b * n, (b + 1) * n)
            parent = tree.parent[block]
            np.testing.assert_array_equal(tree.depth[block], want.depth)
            np.testing.assert_array_equal(
                np.where(parent >= 0, parent - b * n, -1), want.parent)
            assert tree.tree_depth[b] == want.tree_depth
        assert set(ok) == {True, False}


class TestBatchTreeTiming:
    """``BatchTree``'s completion rounds and flood eccentricities ==
    ``ArrayTree``'s on every trial, over full and colour-class blocks."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_array_tree_per_trial(self, data):
        n = data.draw(st.integers(1, 20), label="n")
        batch = data.draw(st.integers(1, 5), label="batch")
        # Mixed densities: p near 0 leaves blocks disconnected.
        graphs = [gnp_random_graph(
            n, data.draw(st.sampled_from((0.0, 0.1, 0.3, 0.6, 1.0))),
            seed=data.draw(st.integers(0, 2**16))) for _ in range(batch)]
        colors = data.draw(st.integers(1, 3), label="colors")
        color_mat = np.array(data.draw(st.lists(
            st.integers(1, colors), min_size=batch * n,
            max_size=batch * n)), dtype=np.int64).reshape(batch, n)
        live = np.array(data.draw(st.lists(
            st.booleans(), min_size=batch, max_size=batch)))
        c = data.draw(st.integers(1, colors), label="class")
        start = data.draw(st.integers(0, 40), label="start")

        indptr, indices = stack_graph_csrs(graphs)
        src = csr_sources(indptr)
        flat = color_mat.reshape(-1)
        sub_indptr, sub_indices = filtered_csr(
            indptr, indices, flat[src] == flat[indices])
        mask = color_mat == c
        cnt = mask.sum(axis=1)
        live &= cnt > 0
        roots = np.arange(batch, dtype=np.int64) * n + mask.argmax(axis=1)
        if colors == 1 and live.all():  # full blocks, default masks
            tree = build_batch_tree(sub_indptr, sub_indices, batch, n, roots)
        else:
            tree = build_batch_tree(sub_indptr, sub_indices, batch, n, roots,
                                    expect=cnt, live=live)
        done = tree.completion_times(start)
        connected = np.flatnonzero(tree.ok)
        picks = [data.draw(st.sampled_from(np.flatnonzero(mask[b]).tolist()))
                 for b in connected.tolist()]
        ecc = tree.eccentricities(connected * n + np.array(picks, dtype=np.int64))

        for b in range(batch):
            g = graphs[b]
            g_src = csr_sources(g.indptr)
            ip, ix = filtered_csr(g.indptr, g.indices,
                                  color_mat[b][g_src] == color_mat[b][g.indices])
            members = np.flatnonzero(mask[b])
            want = (build_array_tree(ip, ix, members, int(members[0]))
                    if live[b] else None)
            assert bool(tree.ok[b]) == (want is not None)
            block = done[b * n:(b + 1) * n]
            if want is None:
                assert not block.any()
                continue
            np.testing.assert_array_equal(block, want.completion_times(start))
            assert block[want.root] == want.completion_round(start)
            slot = int(np.searchsorted(connected, b))
            assert ecc[slot] == want.eccentricity(picks[slot])


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

    def test_twins_are_the_reverse_involution(self):
        graphs = [sample(32, 4.0, 2 + i) for i in range(3)]
        indptr, indices = stack_graph_csrs(graphs)
        twins = stacked_edge_twins(indptr, indices, 3, 32)
        src = csr_sources(indptr)
        assert np.array_equal(src[twins], indices)
        assert np.array_equal(indices[twins], src)
        assert np.array_equal(twins[twins], np.arange(twins.size))


class TestJitGating:
    def test_disabled_by_default(self):
        # Without REPRO_JIT (or without numba) nothing is compiled and
        # the dispatch attributes are None -> pure-numpy everywhere.
        if not _jit.ENABLED:
            assert _jit.walk_kernel is None
            assert _jit.tree_kernel is None

    def test_impls_are_plain_python(self):
        # The docstring contract: *_impl stay callable uncompiled.
        for fn in (_jit.walk_steps_impl, _jit.tree_build_impl):
            assert callable(fn) and fn.__module__ == "repro.engines._jit"

    def test_fused_not_used_without_exact_pool(self, fused, monkeypatch):
        # The kernel replays DrawPool's PCG64 state arrays directly, so
        # DRA must run per trial when the pool fell back to per-node
        # Generators (no state arrays to advance) — and the fallback
        # results must equal the fused ones.
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


class TestKernelRoute:
    """Without a dispatchable walk kernel DRA/DHC2 run per-trial ``fast``;
    CRE and Turau always do."""

    RUNNERS = {"dra": (_dra_fast_batch, _dra_fast_batch_one, _dra_fast),
               "dhc2": (_dhc2_fast_batch, _dhc2_fast_batch_one, _dhc2_fast)}

    @staticmethod
    def assert_fast(results, graphs, seeds, serial):
        assert len(results) == len(graphs)
        outcomes = set()
        for i, (got, seed) in enumerate(zip(results, seeds)):
            want = serial(graphs[i], seed=seed)
            outcomes.add(want.success)
            assert got.engine == "fast-batch"
            for field in FIELDS:
                assert getattr(got, field) == getattr(want, field), (
                    f"trial {i} field {field}")
        return outcomes

    @pytest.mark.parametrize("algorithm", sorted(RUNNERS))
    def test_inactive_kernel_runs_fast(self, algorithm, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("batch walk state built without a kernel")

        monkeypatch.setattr(_jit, "walk_kernel", None)
        monkeypatch.setattr(fast_batch, "BatchWalk", refuse)
        monkeypatch.setattr(fast_batch, "build_batch_tree", refuse)
        assert not batch_kernel_active(algorithm)
        batch_fn, one_fn, serial = self.RUNNERS[algorithm]
        graphs, seeds = mixed_batch(96, 6, factors=(1.0, 8.0, 30.0))
        outcomes = self.assert_fast(batch_fn(graphs, seeds=seeds), graphs,
                                    seeds, serial)
        assert outcomes == {True, False}
        pooled = batch_gnp(48, 0.5, [7, 8, 9])
        self.assert_fast(batch_fn(pooled, seeds=[1, 2, 3]), pooled,
                         [1, 2, 3], serial)
        self.assert_fast([one_fn(graphs[0], seed=seeds[0])], graphs[:1],
                         seeds[:1], serial)

    @pytest.mark.parametrize("algorithm", sorted(RUNNERS))
    def test_active_kernel_dispatches(self, algorithm, fused, monkeypatch):
        calls = []

        def counting_kernel(*args):
            calls.append(1)
            return _jit.walk_steps_impl(*args)

        monkeypatch.setattr(_jit, "walk_kernel", counting_kernel)
        assert batch_kernel_active(algorithm)
        batch_fn, one_fn, serial = self.RUNNERS[algorithm]
        graphs, seeds = mixed_batch(48, 3, factors=(8.0,))
        self.assert_fast(batch_fn(graphs, seeds=seeds), graphs, seeds,
                         serial)
        assert calls
        del calls[:]
        self.assert_fast([one_fn(graphs[0], seed=seeds[0])], graphs[:1],
                         seeds[:1], serial)
        assert calls

    def test_cre_and_turau_never_batch(self, monkeypatch):
        # With or without a walk kernel, CRE and Turau run each trial
        # on fast, pooled graphs included.
        pooled = batch_gnp(48, 0.5, [7, 8, 9])
        for kernel in (None, _jit.walk_steps_impl):
            monkeypatch.setattr(_jit, "walk_kernel", kernel)
            for algorithm in ("cre", "turau"):
                assert not batch_kernel_active(algorithm)
                self.assert_fast(
                    BATCH_RUNNERS[algorithm](pooled, seeds=[1, 2, 3]),
                    pooled, [1, 2, 3], FAST_RUNNERS[algorithm])


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
