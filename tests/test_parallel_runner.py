"""ParallelTrialRunner: bit-for-bit parity with the serial runner.

The parallel runner must be an implementation detail, not a semantic
choice: same seed tree, same trial order, same store records in the
same file order (up to the wall-clock ``elapsed_s`` field), and the same
resume behaviour — whatever the chunking, and however skewed the grid.
"""

import json
import multiprocessing
import time

import pytest

import repro
from repro.graphs import gnp_random_graph, paper_probability
from repro.harness import (
    JsonlStore,
    ParallelTrialRunner,
    ParameterGrid,
    TrialRunner,
    canonical_order,
)
from repro.harness import runner as harness_runner


def dra_trial(point, seed):
    """Module-level so pool workers can unpickle it."""
    p = paper_probability(point["n"], 1.0, point["c"])
    graph = gnp_random_graph(point["n"], p, seed=seed)
    return repro.run(graph, "dra", engine="fast", seed=seed)


def skewed_trial(point, seed):
    """Cost scales steeply with n: the skew a pool must not serialise on."""
    p = paper_probability(point["n"], 1.0, 8.0)
    graph = gnp_random_graph(point["n"], p, seed=seed)
    return repro.run(graph, "dra", engine="fast", seed=seed)


def mapping_trial(point, seed):
    return {"success": seed % 3 != 0, "score": float(seed % 7)}


def slow_head_trial(point, seed):
    """Only the first slot (n=8, trial 0) is slow: a head-of-line straggler."""
    if point["n"] == 8 and seed == SLOW_HEAD_SEED:
        time.sleep(0.4)
    return {"success": True, "score": float(seed % 7)}


def stream_verdict_trial(point, seed):
    """Succeeds when the streams' self-check verdict is already settled."""
    from repro.engines import streams

    return {"success": streams._EXACT is not None}


#: The seed of slot (n=8, trial 0) under master seed 21.
SLOW_HEAD_SEED = TrialRunner(mapping_trial, master_seed=21).derive_seed(0, 0)


def canonical(trials):
    return [json.dumps(t.canonical_json(), sort_keys=True) for t in trials]


def file_records(path):
    """A JSONL store's lines in file order, minus ``elapsed_s``."""
    records = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("elapsed_s")
        records.append(json.dumps(record, sort_keys=True))
    return records


class TestParallelParity:
    def test_trials_identical_to_serial(self):
        grid = ParameterGrid(n=[48, 64], c=[2.0, 8.0])
        serial = TrialRunner(dra_trial, master_seed=11).run(grid, trials=4)
        parallel = ParallelTrialRunner(dra_trial, master_seed=11, jobs=4).run(
            grid, trials=4)
        assert canonical(parallel) == canonical(serial)

    def test_store_records_byte_identical(self, tmp_path):
        grid = ParameterGrid(n=[48], c=[2.0, 8.0])
        serial_store = JsonlStore(tmp_path / "serial.jsonl")
        parallel_store = JsonlStore(tmp_path / "parallel.jsonl")
        TrialRunner(dra_trial, master_seed=7, store=serial_store).run(
            grid, trials=4)
        ParallelTrialRunner(dra_trial, master_seed=7, store=parallel_store,
                            jobs=4).run(grid, trials=4)
        assert canonical(serial_store.load()) == canonical(parallel_store.load())

    def test_mapping_trials_supported(self):
        grid = ParameterGrid(n=[8, 16])
        serial = TrialRunner(mapping_trial, master_seed=3).run(grid, trials=5)
        parallel = ParallelTrialRunner(mapping_trial, master_seed=3, jobs=3).run(
            grid, trials=5)
        assert canonical(parallel) == canonical(serial)

    def test_jobs_one_degrades_to_serial_path(self):
        grid = ParameterGrid(n=[8])
        runner = ParallelTrialRunner(mapping_trial, master_seed=1, jobs=1)
        trials = runner.run(grid, trials=3)
        assert canonical(trials) == canonical(
            TrialRunner(mapping_trial, master_seed=1).run(grid, trials=3))

    def test_skewed_grid_canonical_parity(self):
        grid = ParameterGrid(n=[24, 192], c=[8.0])  # skewed columns
        serial = TrialRunner(skewed_trial, master_seed=11).run(grid, trials=4)
        parallel = ParallelTrialRunner(
            skewed_trial, master_seed=11, jobs=4).run(grid, trials=4)
        # The returned order is schedule order, so the lists — not just
        # the sets — must agree canonically.
        assert canonical(parallel) == canonical(serial)

    def test_store_byte_identical_for_mapping_trials(self, tmp_path):
        grid = ParameterGrid(n=[8, 16])
        serial_store = JsonlStore(tmp_path / "serial.jsonl")
        parallel_store = JsonlStore(tmp_path / "parallel.jsonl")
        TrialRunner(mapping_trial, master_seed=5, store=serial_store).run(
            grid, trials=6)
        ParallelTrialRunner(
            mapping_trial, master_seed=5, store=parallel_store,
            jobs=3).run(grid, trials=6)
        assert canonical(serial_store.load()) == canonical(parallel_store.load())

    def test_submission_order_survives_a_slow_head(self, tmp_path):
        """Records finishing behind a slow first trial wait for it.

        Slot (n=8, trial 0) sleeps while the other worker races through
        the rest of the grid; the parent must still write, and report,
        every record in slot order, so the parallel store file equals
        the serial one line by line.
        """
        points = [{"n": 8}, {"n": 16}]
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        TrialRunner(slow_head_trial, master_seed=21,
                    store=JsonlStore(serial)).run(points, trials=6)
        seen = []
        out = ParallelTrialRunner(
            slow_head_trial, master_seed=21, store=JsonlStore(parallel),
            jobs=2).run(points, trials=6, progress=seen.append)
        assert file_records(parallel) == file_records(serial)
        slots = [(t.point["n"], t.trial_index) for t in seen]
        assert slots == [(n, i) for n in (8, 16) for i in range(6)]
        assert seen == out


class TestForkedWorkers:
    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_workers_inherit_the_stream_self_check(self, monkeypatch):
        # The parent settles the verdict before forking, so no worker
        # re-runs the replication self-checks of its own.
        from repro.engines import streams

        monkeypatch.setattr(streams, "_EXACT", None)
        trials = ParallelTrialRunner(stream_verdict_trial, jobs=2,
                                     mp_context="fork").run([{"n": 8}], trials=4)
        assert [t.success for t in trials] == [True] * 4
        assert streams._EXACT is not None


class TestValidation:
    def test_negative_trials_rejected(self):
        for cls in (TrialRunner, ParallelTrialRunner):
            with pytest.raises(ValueError, match="trials must be >= 0"):
                cls(mapping_trial, master_seed=1).run([{"n": 8}], trials=-2)

    def test_zero_trials_is_an_empty_run(self):
        assert TrialRunner(mapping_trial).run([{"n": 8}], trials=0) == []

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_must_be_positive(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ParallelTrialRunner(mapping_trial, jobs=jobs)

    def test_jobs_none_means_cpu_count(self, monkeypatch):
        monkeypatch.setattr(harness_runner.os, "cpu_count", lambda: 3)
        assert ParallelTrialRunner(mapping_trial).jobs == 3


class TestChunkedScheduling:
    """Chunking amortises IPC; it must never change what gets recorded."""

    def test_auto_chunksize_shape(self):
        auto = harness_runner._chunksize
        assert auto(1, 8) == 1
        assert auto(8, 8) == 1
        assert auto(256, 4) == 4      # ~16 chunks per worker
        assert auto(2000, 2) == 63    # 32 chunks on 2 workers
        assert auto(10_000, 4) == 64  # capped per-message batch
        assert auto(0, 8) == 1        # degenerate input stays valid

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_chunk_rule_keeps_sixteen_chunks_per_worker(self, workers):
        """Below the cap, every worker gets ~16 chunks (or one per group)."""
        auto = harness_runner._chunksize
        for groups in range(1, 16 * 64 * workers + 1):
            size = auto(groups, workers)
            chunks = -(-groups // size)
            assert 1 <= size <= 64
            assert chunks >= min(groups, 8 * workers)
            assert chunks <= 16 * workers

    @pytest.mark.parametrize("chunksize", [None, 1, 3, 64])
    def test_store_records_byte_identical_across_chunk_sizes(
            self, tmp_path, monkeypatch, chunksize):
        """jobs=1 and jobs=N write the same bytes for every chunking.

        This is the docstring's contract made explicit: the pool may
        chunk tasks however it likes, but the JSONL store must receive
        the same records in the same order as a serial run —
        byte-identical up to the wall-clock ``elapsed_s`` field.
        ``None`` keeps the derived chunk size.
        """
        if chunksize is not None:
            monkeypatch.setattr(harness_runner, "_chunksize",
                                lambda groups, workers: chunksize)
        grid = ParameterGrid(n=[48, 64], c=[2.0, 8.0])
        serial_store = JsonlStore(tmp_path / "serial.jsonl")
        ParallelTrialRunner(dra_trial, master_seed=13, store=serial_store,
                            jobs=1).run(grid, trials=3)
        chunked_store = JsonlStore(tmp_path / f"chunked-{chunksize}.jsonl")
        ParallelTrialRunner(dra_trial, master_seed=13, store=chunked_store,
                            jobs=3).run(grid, trials=3)
        assert canonical(chunked_store.load()) == canonical(serial_store.load())

    def test_chunked_resume_completes_partial_store(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(harness_runner, "_chunksize", lambda groups, workers: 4)
        grid = ParameterGrid(n=[8, 16])
        store = JsonlStore(tmp_path / "partial.jsonl")
        TrialRunner(mapping_trial, master_seed=9, store=store).run(
            grid, trials=2)
        full = ParallelTrialRunner(mapping_trial, master_seed=9, store=store,
                                   jobs=2).run(grid, trials=4)
        reference = TrialRunner(mapping_trial, master_seed=9).run(grid, trials=4)
        assert canonical(full) == canonical(reference)


class TestParallelResume:
    def test_resume_skips_stored_trials(self, tmp_path):
        grid = ParameterGrid(n=[8, 16])
        store = JsonlStore(tmp_path / "resume.jsonl")
        runner = ParallelTrialRunner(mapping_trial, master_seed=9, store=store,
                                     jobs=2)
        first = runner.run(grid, trials=4)
        assert len(store) == 8
        again = runner.run(grid, trials=4)
        # No new records, same trials returned in the same order.
        assert len(store) == 8
        assert canonical(again) == canonical(first)

    def test_partial_resume_completes_the_grid(self, tmp_path):
        grid = ParameterGrid(n=[8, 16])
        store = JsonlStore(tmp_path / "partial.jsonl")
        # Seed the store with a serial half-run (half the trials).
        TrialRunner(mapping_trial, master_seed=9, store=store).run(
            grid, trials=2)
        assert len(store) == 4
        full = ParallelTrialRunner(mapping_trial, master_seed=9, store=store,
                                   jobs=2).run(grid, trials=4)
        assert len(store) == 8
        # The completed set matches a from-scratch serial run of the
        # full grid: adding trials never changes earlier trials' seeds.
        reference = TrialRunner(mapping_trial, master_seed=9).run(grid, trials=4)
        assert canonical(full) == canonical(reference)

    def test_progress_callback_fires_per_executed_trial(self, tmp_path):
        grid = ParameterGrid(n=[8])
        seen = []
        ParallelTrialRunner(mapping_trial, master_seed=2, jobs=2).run(
            grid, trials=4, progress=seen.append)
        assert len(seen) == 4
        assert [t.trial_index for t in seen] == [0, 1, 2, 3]


class TestProgressSemantics:
    """progress fires exactly once per returned trial, resumed included."""

    def test_serial_resume_reports_resumed_trials(self, tmp_path):
        store = JsonlStore(tmp_path / "t.jsonl")
        runner = TrialRunner(mapping_trial, master_seed=2, store=store)
        runner.run(ParameterGrid(n=[8]), trials=2)
        seen = []
        out = runner.run(ParameterGrid(n=[8]), trials=4, progress=seen.append)
        assert len(seen) == len(out) == 4
        assert [t.trial_index for t in seen] == [0, 1, 2, 3]

    def test_parallel_resume_reports_every_trial(self, tmp_path):
        store = JsonlStore(tmp_path / "resumed.jsonl")
        grid = ParameterGrid(n=[8, 16])
        TrialRunner(mapping_trial, master_seed=2, store=store).run(
            grid, trials=2)
        seen = []
        out = ParallelTrialRunner(
            mapping_trial, master_seed=2, store=store, jobs=2).run(
            grid, trials=4, progress=seen.append)
        assert len(seen) == len(out) == 8
        assert sorted(t.key() for t in seen) == \
            sorted(t.key() for t in out)

    def test_parallel_resume_reports_in_slot_order(self, tmp_path):
        """Resumed and fresh trials surface in slot order, as in serial."""
        grid = ParameterGrid(n=[8, 16])
        streams = {}
        for jobs in (1, 2):
            store = JsonlStore(tmp_path / f"jobs{jobs}.jsonl")
            TrialRunner(mapping_trial, master_seed=2, store=store).run(
                grid, trials=2)
            seen = []
            out = ParallelTrialRunner(
                mapping_trial, master_seed=2, store=store, jobs=jobs).run(
                grid, trials=4, progress=seen.append)
            streams[jobs] = [t.key() for t in seen]
            assert streams[jobs] == [t.key() for t in out]
        assert streams[2] == streams[1]

    def test_canonical_order_helper_sorts_by_key(self):
        trials = TrialRunner(mapping_trial, master_seed=1).run(
            ParameterGrid(n=[16, 8]), trials=2)
        ordered = canonical_order(trials)
        assert [t.key() for t in ordered] == sorted(t.key() for t in trials)


class TestCanonicalJson:
    def test_elapsed_excluded_everything_else_kept(self):
        trials = TrialRunner(mapping_trial, master_seed=4).run(
            ParameterGrid(n=[8]), trials=1)
        data = trials[0].canonical_json()
        assert "elapsed_s" not in data
        assert set(data) == {"point", "trial_index", "seed", "success", "metrics"}
