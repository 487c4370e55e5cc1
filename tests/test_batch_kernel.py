"""The ``fast-batch`` route and the batch state the benchmark still names.

:class:`TestPerTrialRoute` pins the route: every ``fast-batch`` runner
runs each trial on per-trial ``fast``, so each RunResult field equals
``fast``'s on a list of graphs, on a pooled
:func:`~repro.graphs.batch_gnp.batch_gnp` batch and through the
single-graph ``*_one`` runner.

:class:`TestAutoBatchSize` pins
:func:`~repro.engines.fast_batch.auto_batch_size`, the per-point batch
cap of pooled generation, to its edge budget.

:class:`TestFusedTreeKernel` and :class:`TestBatchTreeTiming` hold
:func:`~repro.engines.batchwalk.build_batch_tree` and its
:class:`~repro.engines.batchwalk.BatchTree` to
:class:`~repro.engines.arraywalk.ArrayTree` per trial, over full and
colour-class blocks; :class:`TestStackedEdgeTwins` checks the stacked
twin table.

:class:`TestNodeStreams` pins :func:`~repro.engines.streams.node_streams`
to the spawned ``default_rng`` generators the per-trial engines used
to build.
"""

import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _AutoBatchSize
from repro.engines import streams
from repro.engines.arraywalk import build_array_tree, filtered_csr
from repro.engines.batchwalk import (
    build_batch_tree,
    stack_graph_csrs,
    stacked_edge_twins,
)
from repro.engines.fast import _dra_fast
from repro.engines.fast_batch import (
    _cre_fast_batch,
    _cre_fast_batch_one,
    _dhc2_fast_batch,
    _dhc2_fast_batch_one,
    _dra_fast_batch,
    _dra_fast_batch_one,
    _turau_fast_batch,
    _turau_fast_batch_one,
    auto_batch_size,
)
from repro.engines.fast_cre import _cre_fast
from repro.engines.fast_dhc2 import _dhc2_fast
from repro.engines.fast_turau import _turau_fast
from repro.engines.kmachine_engine import _dra_kmachine
from repro.engines.streams import node_streams
from repro.graphs import batch_gnp, gnp_random_graph
from repro.graphs.adjacency import csr_sources

from tests.conftest import generator_fallback

#: algorithm -> (batch runner, single-graph runner, per-trial fast).
RUNNERS = {
    "dra": (_dra_fast_batch, _dra_fast_batch_one, _dra_fast),
    "cre": (_cre_fast_batch, _cre_fast_batch_one, _cre_fast),
    "dhc2": (_dhc2_fast_batch, _dhc2_fast_batch_one, _dhc2_fast),
    "turau": (_turau_fast_batch, _turau_fast_batch_one, _turau_fast),
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


class TestPerTrialRoute:
    """Every ``fast-batch`` runner is per-trial ``fast``, field for field."""

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

    @pytest.mark.parametrize("source", ["graphs", "pooled", "one"])
    @pytest.mark.parametrize("algorithm", sorted(RUNNERS))
    def test_every_field_equals_fast(self, algorithm, source):
        batch_fn, one_fn, serial = RUNNERS[algorithm]
        if source == "graphs":
            graphs, seeds = mixed_batch(96, 6, factors=(1.0, 8.0, 30.0))
            outcomes = self.assert_fast(batch_fn(graphs, seeds=seeds),
                                        graphs, seeds, serial)
            assert outcomes == {True, False}
        elif source == "pooled":
            pooled = batch_gnp(48, 0.5, [7, 8, 9])
            self.assert_fast(batch_fn(pooled, seeds=[1, 2, 3]), pooled,
                             [1, 2, 3], serial)
        else:
            graphs, seeds = mixed_batch(96, 1, factors=(8.0,))
            self.assert_fast([one_fn(graphs[0], seed=seeds[0])], graphs,
                             seeds, serial)


class TestAutoBatchSize:
    """Batch caps fill the 80M directed-entry budget of pooled generation."""

    @pytest.mark.parametrize("n, p, want", [
        (512, None, 305),       # no density given: the complete graph
        (512, 2.0, 305),        # density clipped to 1
        (512, 0.0, 1024),       # an empty graph costs one entry a trial
        (16, None, 1024),       # small points stop at the cap
        (0, None, 1024),
        (100_000, None, 1),     # one trial over budget still runs
    ])
    def test_budget_over_expected_entries(self, n, p, want):
        assert auto_batch_size(n, p) == want

    def test_explicit_cap(self):
        assert auto_batch_size(64, cap=8) == 8
        assert auto_batch_size(64, 0.1, cap=1) == 1

    def test_sweep_point_caps_survive_pickling(self):
        # Sweeps hand the cap to worker processes; at the paper density
        # for delta=0.75, c=6 an n=512 point batches 879 trials.
        caps = pickle.loads(pickle.dumps(_AutoBatchSize(0.75, 6.0)))
        assert caps({"n": 512}) == 879
        assert caps({"n": 16}) == 1024

    def test_budget_is_not_read_from_the_environment(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, REPRO_BATCH_EDGE_BUDGET="1000")
        env["PYTHONPATH"] = (os.path.join(root, "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.engines.fast_batch import auto_batch_size\n"
             "print(auto_batch_size(512))"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "305"


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
        if streams._exact():
            assert all(isinstance(s, streams._NodeStream) for s in ours)
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

        with generator_fallback(monkeypatch):
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
