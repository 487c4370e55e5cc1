"""The scheduler layer: ordered vs work-stealing trial dispatch.

Schedulers may only change *when* results surface, never *what* is
computed: any scheduler, any chunking, any job count must yield the
same canonical records, the same returned order (schedule order), and
a store whose canonicalised contents match a serial run.
"""

import json

import pytest

import repro
from repro.graphs import gnp_random_graph, paper_probability
from repro.harness import (
    SCHEDULERS,
    JsonlStore,
    OrderedScheduler,
    ParallelTrialRunner,
    ParameterGrid,
    TrialRunner,
    WorkStealingScheduler,
    canonical_order,
)
from repro.harness.scheduler import resolve_scheduler


def skewed_trial(point, seed):
    """Cost scales steeply with n — the skew work stealing exists for."""
    p = paper_probability(point["n"], 1.0, 8.0)
    graph = gnp_random_graph(point["n"], p, seed=seed)
    return repro.run(graph, "dra", engine="fast", seed=seed)


def mapping_trial(point, seed):
    return {"success": seed % 3 != 0, "score": float(seed % 7)}


def canonical(trials):
    return [json.dumps(t.canonical_json(), sort_keys=True) for t in trials]


class TestResolution:
    def test_names_resolve(self):
        assert isinstance(resolve_scheduler("ordered"), OrderedScheduler)
        assert isinstance(resolve_scheduler("work-stealing"),
                          WorkStealingScheduler)

    def test_instances_and_classes_pass_through(self):
        inst = WorkStealingScheduler()
        assert resolve_scheduler(inst) is inst
        assert isinstance(resolve_scheduler(OrderedScheduler),
                          OrderedScheduler)

    def test_unknown_name_is_loud(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            resolve_scheduler("lifo")
        with pytest.raises(ValueError, match="unknown schedule"):
            ParallelTrialRunner(mapping_trial, schedule="lifo")

    def test_registry_names(self):
        assert set(SCHEDULERS) == {"ordered", "work-stealing"}


class TestChunking:
    def test_work_stealing_prefers_finer_chunks(self):
        # Chunks are the stealing unit: same pending work, more chunks.
        assert WorkStealingScheduler.auto_chunksize(256, 4) \
            < OrderedScheduler.auto_chunksize(256, 4)
        assert WorkStealingScheduler.auto_chunksize(1, 8) == 1


class TestWorkStealingParity:
    """The tentpole contract: stealing changes wall-clock, not records."""

    def test_skewed_grid_canonical_parity(self):
        grid = ParameterGrid(n=[24, 192], c=[8.0])  # skewed columns
        serial = TrialRunner(skewed_trial, master_seed=11).run(grid, trials=4)
        stolen = ParallelTrialRunner(
            skewed_trial, master_seed=11, jobs=4,
            schedule="work-stealing").run(grid, trials=4)
        # Returned order is schedule order for every scheduler, so the
        # lists — not just the sets — must agree canonically.
        assert canonical(stolen) == canonical(serial)

    @pytest.mark.parametrize("chunksize", [None, 1, 3])
    def test_store_is_a_completion_log_with_canonical_contents(
            self, tmp_path, chunksize):
        grid = ParameterGrid(n=[8, 16, 24])
        serial_store = JsonlStore(tmp_path / "serial.jsonl")
        TrialRunner(mapping_trial, master_seed=3, store=serial_store).run(
            grid, trials=5)
        stolen_store = JsonlStore(tmp_path / f"stolen-{chunksize}.jsonl")
        ParallelTrialRunner(
            mapping_trial, master_seed=3, store=stolen_store, jobs=3,
            chunksize=chunksize, schedule="work-stealing").run(grid, trials=5)
        # Write order may differ (completion log) ...
        assert len(stolen_store) == len(serial_store)
        # ... but re-canonicalised records are identical.
        assert canonical(stolen_store.load_canonical()) == \
            canonical(serial_store.load_canonical())

    def test_resume_completes_partial_store(self, tmp_path):
        grid = ParameterGrid(n=[8, 16])
        store = JsonlStore(tmp_path / "partial.jsonl")
        TrialRunner(mapping_trial, master_seed=9, store=store).run(
            grid, trials=2)
        full = ParallelTrialRunner(
            mapping_trial, master_seed=9, store=store, jobs=2,
            schedule="work-stealing").run(grid, trials=4)
        reference = TrialRunner(mapping_trial, master_seed=9).run(
            grid, trials=4)
        assert canonical(full) == canonical(reference)

    def test_ordered_still_byte_identical(self, tmp_path):
        """The refactor must not cost the ordered path its guarantee."""
        grid = ParameterGrid(n=[8, 16])
        serial_store = JsonlStore(tmp_path / "serial.jsonl")
        ordered_store = JsonlStore(tmp_path / "ordered.jsonl")
        TrialRunner(mapping_trial, master_seed=5, store=serial_store).run(
            grid, trials=6)
        ParallelTrialRunner(
            mapping_trial, master_seed=5, store=ordered_store, jobs=3,
            schedule="ordered").run(grid, trials=6)
        assert canonical(serial_store.load()) == canonical(ordered_store.load())


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

    @pytest.mark.parametrize("schedule", sorted(SCHEDULERS))
    def test_parallel_resume_reports_every_trial(self, tmp_path, schedule):
        store = JsonlStore(tmp_path / f"{schedule}.jsonl")
        grid = ParameterGrid(n=[8, 16])
        TrialRunner(mapping_trial, master_seed=2, store=store).run(
            grid, trials=2)
        seen = []
        out = ParallelTrialRunner(
            mapping_trial, master_seed=2, store=store, jobs=2,
            schedule=schedule).run(grid, trials=4, progress=seen.append)
        assert len(seen) == len(out) == 8
        assert sorted(t.key() for t in seen) == \
            sorted(t.key() for t in out)

    def test_canonical_order_helper_sorts_by_key(self):
        trials = TrialRunner(mapping_trial, master_seed=1).run(
            ParameterGrid(n=[16, 8]), trials=2)
        ordered = canonical_order(trials)
        assert [t.key() for t in ordered] == sorted(t.key() for t in trials)
