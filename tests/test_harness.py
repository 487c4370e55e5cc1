"""Tests for the experiment harness (repro.harness)."""

import json
import os
import platform
import subprocess
import sys

import numpy as np

import repro

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.results import RunResult
from repro.harness import runner as runner_module
from repro.harness import (
    JsonlStore,
    ParameterGrid,
    Trial,
    TrialRunner,
    group_by,
    quantile,
    success_rate,
    summarize,
)


class TestParameterGrid:
    def test_cartesian_product_order(self):
        grid = ParameterGrid(n=[64, 128], delta=[0.5, 0.8])
        assert grid.points() == [
            {"n": 64, "delta": 0.5}, {"n": 64, "delta": 0.8},
            {"n": 128, "delta": 0.5}, {"n": 128, "delta": 0.8},
        ]
        assert len(grid) == 4

    def test_single_axis(self):
        grid = ParameterGrid(c=[2, 4, 8])
        assert [p["c"] for p in grid] == [2, 4, 8]

    def test_subset_filters(self):
        grid = ParameterGrid(n=[64, 256, 1024], delta=[0.5, 0.8])
        feasible = grid.subset(lambda p: p["n"] ** p["delta"] >= 20)
        assert {"n": 64, "delta": 0.5} not in feasible  # 64^0.5 = 8 < 20
        assert {"n": 1024, "delta": 0.5} in feasible

    def test_with_overrides(self):
        grid = ParameterGrid(n=[64, 128])
        pinned = grid.with_overrides(c=6.0)
        assert all(p["c"] == 6.0 for p in pinned)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ParameterGrid()
        with pytest.raises(ValueError):
            ParameterGrid(n=[])

    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_length_is_product(self, sizes):
        axes = {f"a{i}": list(range(s)) for i, s in enumerate(sizes)}
        grid = ParameterGrid(**axes)
        expected = 1
        for s in sizes:
            expected *= s
        assert len(grid) == expected == len(grid.points())


class TestTrialRunner:
    def test_runs_every_point_and_trial(self):
        calls = []

        def fn(point, seed):
            calls.append((point["x"], seed))
            return {"success": True, "rounds": point["x"] * 10}

        runner = TrialRunner(fn, master_seed=1)
        trials = runner.run(ParameterGrid(x=[1, 2]), trials=3)
        assert len(trials) == 6
        assert len(calls) == 6
        assert all(t.success for t in trials)
        assert trials[0].metrics["rounds"] == 10.0

    def test_seed_derivation_is_stable_and_distinct(self):
        runner = TrialRunner(lambda p, s: {"success": True}, master_seed=7)
        seeds = {runner.derive_seed(i, j) for i in range(10) for j in range(10)}
        assert len(seeds) == 100  # no collisions in a small grid
        assert runner.derive_seed(3, 4) == TrialRunner(
            lambda p, s: {"success": True}, master_seed=7).derive_seed(3, 4)

    def test_different_master_seed_changes_streams(self):
        a = TrialRunner(lambda p, s: {"success": True}, master_seed=1)
        b = TrialRunner(lambda p, s: {"success": True}, master_seed=2)
        assert a.derive_seed(0, 0) != b.derive_seed(0, 0)

    def test_accepts_run_result(self):
        def fn(point, seed):
            return RunResult("dra", True, [0, 1, 2], rounds=42, messages=7)

        trials = TrialRunner(fn).run([{"n": 3}], trials=1)
        assert trials[0].metrics["rounds"] == 42.0
        assert trials[0].metrics["messages"] == 7.0

    def test_rejects_bad_return(self):
        with pytest.raises(TypeError):
            TrialRunner(lambda p, s: 42).run([{"n": 1}])
        with pytest.raises(ValueError, match="success"):
            TrialRunner(lambda p, s: {"rounds": 1}).run([{"n": 1}])

    def test_progress_callback(self):
        seen = []
        TrialRunner(lambda p, s: {"success": True}).run(
            [{"x": 1}], trials=2, progress=seen.append)
        assert len(seen) == 2
        assert all(isinstance(t, Trial) for t in seen)


def seed_of(point, seed):
    return {"success": True, "seed": seed}


class TestVectorSeeds:
    """A grid point's pending seeds, derived in one vector pass.

    Every seed must equal :meth:`TrialRunner.derive_seed`; the guard
    (first and last seed against the scalar derivation) must send a
    wrong vector result, a non-int master and a trial index past one
    uint32 word to the scalar loop.
    """

    TRIALS = list(range(300)) + [2**31, 2**32 - 1]

    @pytest.mark.parametrize("master", [0, 7, 2**32 + 5, 2**70 + 3])
    @pytest.mark.parametrize("point_index", [0, 3, 2**33])
    def test_equal_to_derive_seed(self, master, point_index, monkeypatch):
        runner = TrialRunner(seed_of, master_seed=master)
        scalar = [runner.derive_seed(point_index, t) for t in self.TRIALS]
        calls = []
        derive = runner.derive_seed
        monkeypatch.setattr(runner, "derive_seed",
                            lambda *a: calls.append(a) or derive(*a))
        assert runner._point_seeds(point_index, self.TRIALS) == scalar
        assert len(calls) == 2  # the guard only: the vector pass held

    @pytest.mark.parametrize("master, trials", [
        (np.int64(7), [0, 1, 2, 3]),
        (7, [0, 1, 2**32]),
    ], ids=["numpy-master", "wide-trial-index"])
    def test_scalar_loop_outside_the_vector_domain(self, master, trials,
                                                   monkeypatch):
        runner = TrialRunner(seed_of, master_seed=master)
        want = [runner.derive_seed(2, t) for t in trials]
        monkeypatch.setattr(runner_module, "spawn_states", None)
        assert runner._point_seeds(2, trials) == want

    def test_sharded_and_resumed_plans_get_the_same_seeds(self, tmp_path):
        grid = ParameterGrid(x=[1, 2, 3])
        reference = TrialRunner(seed_of, master_seed=9)
        want = {(t.point["x"], t.trial_index): t.seed
                for t in reference.run(grid, trials=7)}
        assert want == {(x, t): reference.derive_seed(i, t)
                        for i, x in enumerate((1, 2, 3)) for t in range(7)}
        got = {}
        for index in range(3):
            for t in TrialRunner(seed_of, master_seed=9,
                                 shard=(index, 3)).run(grid, trials=7):
                got[(t.point["x"], t.trial_index)] = t.seed
        assert got == want
        store = JsonlStore(tmp_path / "t.jsonl")
        runner = TrialRunner(seed_of, master_seed=9, store=store)
        runner.run(grid, trials=3)
        resumed = runner.run(grid, trials=7)
        assert {(t.point["x"], t.trial_index): t.seed
                for t in resumed} == want
        assert all(t.metrics["seed"] == t.seed for t in store.load())

    def test_wrong_vector_result_falls_back(self, tmp_path, monkeypatch):
        grid = ParameterGrid(x=[1, 2])
        right = JsonlStore(tmp_path / "right.jsonl")
        TrialRunner(seed_of, master_seed=5, store=right).run(grid, trials=9)
        real = runner_module.spawn_states

        def off_by_one(*args, **kwargs):
            return real(*args, **kwargs) + np.uint64(1)

        monkeypatch.setattr(runner_module, "spawn_states", off_by_one)
        wrong = JsonlStore(tmp_path / "wrong.jsonl")
        TrialRunner(seed_of, master_seed=5, store=wrong).run(grid, trials=9)
        assert [t.canonical_json() for t in wrong.load()] == [
            t.canonical_json() for t in right.load()]


class TestTrialStore:
    def test_roundtrip(self, tmp_path):
        store = JsonlStore(tmp_path / "t.jsonl")
        trial = Trial(point={"n": 8, "delta": 0.5}, trial_index=2, seed=99,
                      success=True, metrics={"rounds": 12.0}, elapsed_s=0.5)
        store.append(trial)
        loaded = store.load()
        assert len(loaded) == 1
        assert loaded[0].point == {"n": 8, "delta": 0.5}
        assert loaded[0].metrics["rounds"] == 12.0
        assert loaded[0].key() == trial.key()

    def test_resume_skips_recorded_trials(self, tmp_path):
        store = JsonlStore(tmp_path / "t.jsonl")
        calls = []

        def fn(point, seed):
            calls.append(point["x"])
            return {"success": True, "rounds": 1}

        runner = TrialRunner(fn, master_seed=3, store=store)
        grid = ParameterGrid(x=[1, 2])
        first = runner.run(grid, trials=2)
        assert len(calls) == 4
        second = runner.run(grid, trials=2)
        assert len(calls) == 4  # nothing re-ran
        assert [t.key() for t in second] == [t.key() for t in first]

    def test_resume_runs_only_new_trials(self, tmp_path):
        store = JsonlStore(tmp_path / "t.jsonl")
        calls = []

        def fn(point, seed):
            calls.append(1)
            return {"success": True}

        runner = TrialRunner(fn, master_seed=3, store=store)
        runner.run([{"x": 1}], trials=1)
        runner.run([{"x": 1}], trials=3)  # 2 new trial indices
        assert len(calls) == 3
        assert len(store) == 3

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        store = JsonlStore(path)
        store.append(Trial(point={"x": 1}, trial_index=0, seed=1, success=True))
        with path.open("a") as fh:
            fh.write('{"point": {"x": 2}, "trial_in')  # crash mid-append
        assert len(store.load()) == 1

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        store = JsonlStore(path)
        with path.open("w") as fh:
            fh.write("not json\n")
            fh.write(json.dumps(Trial(
                point={"x": 1}, trial_index=0, seed=1,
                success=True).to_json()) + "\n")
        with pytest.raises(json.JSONDecodeError):
            store.load()

    def test_clear(self, tmp_path):
        store = JsonlStore(tmp_path / "t.jsonl")
        store.append(Trial(point={}, trial_index=0, seed=0, success=False))
        store.clear()
        assert store.load() == []
        store.clear()  # idempotent


class TestAggregation:
    def _trials(self):
        return [
            Trial(point={"n": 64}, trial_index=i, seed=i,
                  success=i != 3, metrics={"rounds": float(100 + i)})
            for i in range(5)
        ] + [
            Trial(point={"n": 128}, trial_index=i, seed=i,
                  success=True, metrics={"rounds": float(200 + i)})
            for i in range(5)
        ]

    def test_success_rate(self):
        assert success_rate(self._trials()) == pytest.approx(0.9)
        assert success_rate([]) == 0.0

    def test_summarize_successes_only(self):
        stats = summarize(self._trials(), "rounds")
        # Failed trial 3 of n=64 excluded: values are 100,101,102,104,200..204
        assert stats["n_values"] == 9
        assert stats["min"] == 100.0
        assert stats["max"] == 204.0
        assert stats["success_rate"] == pytest.approx(0.9)

    def test_summarize_all_trials(self):
        stats = summarize(self._trials(), "rounds", successes_only=False)
        assert stats["n_values"] == 10

    def test_summarize_empty_metric(self):
        stats = summarize(self._trials(), "nonexistent")
        assert "mean" not in stats
        assert stats["n_values"] == 0

    def test_group_by_parameter(self):
        groups = group_by(self._trials(), "n")
        assert list(groups) == [64, 128]
        assert len(groups[64]) == 5

    def test_group_by_callable(self):
        groups = group_by(self._trials(), lambda t: t.success)
        assert len(groups[True]) == 9
        assert len(groups[False]) == 1

    def test_quantile(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert quantile([5.0], 0.0) == 5.0
        assert quantile([1.0, 3.0], 0.25) == 1.5
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
           q=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_quantile_within_range(self, values, q):
        result = quantile(values, q)
        assert min(values) <= result <= max(values)


class TestBatchedRunner:
    """Batched dispatch (``batch_fn``) must not change what is computed."""

    @staticmethod
    def _fns(algorithm="dra"):
        from repro.engines.registry import REGISTRY
        from repro.graphs import gnp_random_graph, paper_probability

        spec = REGISTRY.resolve(algorithm, "fast-batch")

        def sample(point, seed):
            p = paper_probability(point["n"], 1.0, point["c"])
            return gnp_random_graph(point["n"], p, seed=seed)

        def trial(point, seed):
            return spec.call(sample(point, seed), seed=seed)

        def batch(point, seeds):
            graphs = [sample(point, s) for s in seeds]
            return spec.call_batch(graphs, seeds=list(seeds))

        return trial, batch

    @pytest.mark.parametrize("algorithm", ["dra", "dhc2", "turau"])
    def test_batched_store_is_byte_identical(self, tmp_path, algorithm):
        trial, batch = self._fns(algorithm)
        grid = ParameterGrid(n=[24, 32], c=[8.0])
        solo = JsonlStore(tmp_path / "solo.jsonl")
        TrialRunner(trial, master_seed=11, store=solo).run(grid, trials=5)
        batched = JsonlStore(tmp_path / "batched.jsonl")
        got = TrialRunner(trial, master_seed=11, store=batched,
                          batch_fn=batch, batch_size=3).run(grid, trials=5)
        assert [t.canonical_json() for t in solo.load()] \
            == [t.canonical_json() for t in batched.load()]
        # Results surface in schedule order with real per-trial metadata.
        assert [t.trial_index for t in got] == [0, 1, 2, 3, 4] * 2

    @pytest.mark.parametrize("algorithm", ["dra", "dhc2", "turau"])
    def test_parallel_batched_matches_serial_batched(self, tmp_path,
                                                     algorithm):
        trial, batch = self._fns(algorithm)
        from repro.harness import ParallelTrialRunner

        grid = ParameterGrid(n=[24, 32], c=[8.0])
        serial = JsonlStore(tmp_path / "serial.jsonl")
        TrialRunner(trial, master_seed=11, store=serial,
                    batch_fn=batch, batch_size=3).run(grid, trials=4)
        par = JsonlStore(tmp_path / "par.jsonl")
        ParallelTrialRunner(trial, master_seed=11, store=par, jobs=2,
                            batch_fn=batch, batch_size=3).run(grid, trials=4)
        assert [t.canonical_json() for t in serial.load()] \
            == [t.canonical_json() for t in par.load()]

    @pytest.mark.parametrize("algorithm", ["dhc2", "turau"])
    def test_batched_resume_is_byte_identical(self, tmp_path, algorithm):
        # A batched rerun over a half-filled store must append exactly
        # the records the unbatched serial run would have written.
        trial, batch = self._fns(algorithm)
        grid = ParameterGrid(n=[24], c=[8.0])
        solo = JsonlStore(tmp_path / "solo.jsonl")
        TrialRunner(trial, master_seed=11, store=solo).run(grid, trials=6)
        resumed = JsonlStore(tmp_path / "resumed.jsonl")
        TrialRunner(trial, master_seed=11, store=resumed).run(grid, trials=2)
        TrialRunner(trial, master_seed=11, store=resumed,
                    batch_fn=batch, batch_size=4).run(grid, trials=6)
        assert [t.canonical_json() for t in solo.load()] \
            == [t.canonical_json() for t in resumed.load()]

    def test_callable_batch_size_caps_per_point(self, tmp_path):
        # batch_size(point) sizes each grid point's groups on its own
        # (the auto-batching sweep path); records stay byte-identical.
        trial, batch = self._fns()
        grid = ParameterGrid(n=[24, 32], c=[8.0])
        calls = []

        def counting_batch(point, seeds):
            calls.append((point["n"], len(seeds)))
            return batch(point, seeds)

        solo = JsonlStore(tmp_path / "solo.jsonl")
        TrialRunner(trial, master_seed=11, store=solo).run(grid, trials=4)
        sized = JsonlStore(tmp_path / "sized.jsonl")
        TrialRunner(trial, master_seed=11, store=sized,
                    batch_fn=counting_batch,
                    batch_size=lambda point: 3 if point["n"] == 24 else 2
                    ).run(grid, trials=4)
        assert calls == [(24, 3), (24, 1), (32, 2), (32, 2)]
        assert [t.canonical_json() for t in solo.load()] \
            == [t.canonical_json() for t in sized.load()]

    def test_callable_batch_size_parallel_grouping(self):
        from repro.harness import ParallelTrialRunner

        trial, batch = self._fns()
        got = ParallelTrialRunner(
            trial, master_seed=11, jobs=2, batch_fn=batch,
            batch_size=lambda point: max(1, point["n"] // 16)).run(
            ParameterGrid(n=[16, 48], c=[8.0]), trials=3)
        want = TrialRunner(trial, master_seed=11).run(
            ParameterGrid(n=[16, 48], c=[8.0]), trials=3)
        assert [t.canonical_json() for t in got] \
            == [t.canonical_json() for t in want]

    def test_batched_resume_skips_completed(self, tmp_path):
        trial, batch = self._fns()
        grid = ParameterGrid(n=[24], c=[8.0])
        store = JsonlStore(tmp_path / "resume.jsonl")
        TrialRunner(trial, master_seed=11, store=store).run(grid, trials=2)
        calls = []

        def counting_batch(point, seeds):
            calls.append(list(seeds))
            return batch(point, seeds)

        got = TrialRunner(trial, master_seed=11, store=store,
                          batch_fn=counting_batch, batch_size=4).run(
            grid, trials=6)
        # Only the four new trials reach the engine, as one group.
        assert len(got) == 6 and len(calls) == 1 and len(calls[0]) == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batch_fn_result_count_is_checked(self, jobs):
        # jobs=2 raises inside a pool worker and surfaces in the parent.
        from repro.harness import ParallelTrialRunner

        trial, batch = self._fns()
        runner = ParallelTrialRunner(
            trial, master_seed=1, jobs=jobs,
            batch_fn=lambda point, seeds: [], batch_size=2)
        with pytest.raises(ValueError, match="batch_fn returned"):
            runner.run(ParameterGrid(n=[16], c=[8.0]), trials=2)

    def test_spawned_workers_match_serial(self):
        # spawn pickles the groups and the pool initializer's sweep
        # callables instead of inheriting them (macOS's default).
        from repro import cli
        from repro.harness import ParallelTrialRunner

        trial = cli._SweepTrial("cre", "fast-batch", 1.0, 8.0, "gnp")
        batch = cli._SweepTrialBatch("cre", "fast-batch", 1.0, 8.0, "gnp")
        points = [{"n": 24}, {"n": 32}]
        want = TrialRunner(trial, master_seed=11).run(points, trials=4)
        got = ParallelTrialRunner(
            trial, master_seed=11, batch_fn=batch, batch_size=3, jobs=2,
            mp_context="spawn").run(points, trials=4)
        assert [t.canonical_json() for t in got] \
            == [t.canonical_json() for t in want]

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrialRunner(lambda p, s: {}, batch_size=0)


class TestEndToEndSweep:
    def test_harness_drives_a_real_algorithm(self, tmp_path):
        """A miniature E6-style sweep through the public harness API."""
        from repro.graphs import gnp_random_graph, paper_probability

        def trial(point, seed):
            p = paper_probability(point["n"], 1.0, point["c"])
            graph = gnp_random_graph(point["n"], p, seed=seed)
            return repro.run(graph, "dra", engine="fast", seed=seed)

        grid = ParameterGrid(n=[64], c=[2.0, 8.0])
        store = JsonlStore(tmp_path / "sweep.jsonl")
        trials = TrialRunner(trial, master_seed=5, store=store).run(
            grid, trials=4)
        by_c = group_by(trials, "c")
        # Denser graphs must not succeed less often.
        assert success_rate(by_c[8.0]) >= success_rate(by_c[2.0])
        assert success_rate(by_c[8.0]) >= 0.75
        # And everything was persisted.
        assert len(store) == 8


class TestHeapTuning:
    """``_keep_trial_arrays_on_heap``: glibc ``mallopt`` once per process."""

    @staticmethod
    def fake_libc(monkeypatch, **symbols):
        import ctypes
        import types

        opened = []

        def cdll(name):
            opened.append(name)
            return types.SimpleNamespace(gnu_get_libc_version=object(),
                                         **symbols)

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        monkeypatch.setattr(runner_module, "_heap_tuned", False)
        return opened

    def test_without_mallopt_it_does_nothing(self, monkeypatch):
        opened = self.fake_libc(monkeypatch)
        assert runner_module._keep_trial_arrays_on_heap() is False
        assert opened == [None]

    def test_sets_both_thresholds_once(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        opened = self.fake_libc(monkeypatch, mallopt=mallopt)
        assert runner_module._keep_trial_arrays_on_heap() is True
        assert runner_module._keep_trial_arrays_on_heap() is False
        assert opened == [None]
        assert calls == [(-3, 32 << 20), (-1, 128 << 20)]

    def test_a_rejected_threshold_is_reported(self, monkeypatch):
        self.fake_libc(monkeypatch, mallopt=lambda param, value: 0)
        assert runner_module._keep_trial_arrays_on_heap() is False

    def test_every_trial_process_tunes_its_heap(self, monkeypatch):
        calls = []
        monkeypatch.setattr(runner_module, "_keep_trial_arrays_on_heap",
                            lambda: calls.append("tuned"))
        monkeypatch.setattr(runner_module, "_worker_fns", (None, None))
        TrialRunner(seed_of).run([{"x": 1}], trials=1)
        runner_module._pool_initializer(seed_of, None)
        assert calls == ["tuned", "tuned"]

    @pytest.mark.skipif(
        not sys.platform.startswith("linux")
        or platform.libc_ver()[0] != "glibc", reason="needs glibc")
    def test_dense_trials_stop_faulting_their_arrays(self):
        # A dense DHC2 trial's transient arrays are each a few hundred
        # KB to 1 MB.  glibc's defaults map and unmap them per trial,
        # about 757 minor faults per trial here; kept on the heap, a
        # sweep past its first trial reuses them.
        script = (
            "import resource\n"
            "from repro import cli\n"
            "from repro.harness import TrialRunner\n"
            "trial = cli._SweepTrial('dhc2', 'fast', 0.75, 6.0, 'gnp')\n"
            "TrialRunner(trial, master_seed=7).run([{'n': 512}], trials=1)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "TrialRunner(trial, master_seed=8).run([{'n': 512}], trials=8)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print((after - before) / 8)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "src"),
            env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout.split()[-1]) < 50
