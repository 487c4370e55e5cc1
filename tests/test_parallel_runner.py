"""ParallelTrialRunner: bit-for-bit parity with the serial runner.

The parallel runner must be an implementation detail, not a semantic
choice: same seed tree, same trial order, same store records (up to the
wall-clock ``elapsed_s`` field), and the same resume behaviour.
"""

import json

import pytest

import repro
from repro.graphs import gnp_random_graph, paper_probability
from repro.harness import JsonlStore, ParallelTrialRunner, ParameterGrid, TrialRunner
from repro.harness.scheduler import OrderedScheduler


def dra_trial(point, seed):
    """Module-level so pool workers can unpickle it."""
    p = paper_probability(point["n"], 1.0, point["c"])
    graph = gnp_random_graph(point["n"], p, seed=seed)
    return repro.run(graph, "dra", engine="fast", seed=seed)


def mapping_trial(point, seed):
    return {"success": seed % 3 != 0, "score": float(seed % 7)}


def canonical(trials):
    return [json.dumps(t.canonical_json(), sort_keys=True) for t in trials]


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


class TestChunkedScheduling:
    """Chunking amortises IPC; it must never change what gets recorded."""

    def test_auto_chunksize_shape(self):
        auto = OrderedScheduler.auto_chunksize
        assert auto(1, 8) == 1
        assert auto(8, 8) == 1
        assert auto(64, 4) == 4       # ~4 chunks per worker
        assert auto(10_000, 4) == 64  # capped per-message batch
        assert auto(0, 8) == 1        # degenerate input stays valid

    def test_chunksize_must_be_positive(self):
        with pytest.raises(ValueError, match="chunksize"):
            ParallelTrialRunner(mapping_trial, chunksize=0)

    @pytest.mark.parametrize("chunksize", [None, 1, 3, 64])
    def test_store_records_byte_identical_across_chunk_sizes(
            self, tmp_path, chunksize):
        """jobs=1 and jobs=N write the same bytes for every chunking.

        This is the docstring's contract made explicit: the chunked
        path may batch tasks however it likes, but the JSONL store must
        receive the same records in the same order as a serial run —
        byte-identical up to the wall-clock ``elapsed_s`` field.
        """
        grid = ParameterGrid(n=[48, 64], c=[2.0, 8.0])
        serial_store = JsonlStore(tmp_path / "serial.jsonl")
        ParallelTrialRunner(dra_trial, master_seed=13, store=serial_store,
                            jobs=1).run(grid, trials=3)
        chunked_store = JsonlStore(tmp_path / f"chunked-{chunksize}.jsonl")
        ParallelTrialRunner(dra_trial, master_seed=13, store=chunked_store,
                            jobs=3, chunksize=chunksize).run(grid, trials=3)
        assert canonical(chunked_store.load()) == canonical(serial_store.load())

    def test_chunked_resume_completes_partial_store(self, tmp_path):
        grid = ParameterGrid(n=[8, 16])
        store = JsonlStore(tmp_path / "partial.jsonl")
        TrialRunner(mapping_trial, master_seed=9, store=store).run(
            grid, trials=2)
        full = ParallelTrialRunner(mapping_trial, master_seed=9, store=store,
                                   jobs=2, chunksize=4).run(grid, trials=4)
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


class TestCanonicalJson:
    def test_elapsed_excluded_everything_else_kept(self):
        trials = TrialRunner(mapping_trial, master_seed=4).run(
            ParameterGrid(n=[8]), trials=1)
        data = trials[0].canonical_json()
        assert "elapsed_s" not in data
        assert set(data) == {"point", "trial_index", "seed", "success", "metrics"}
