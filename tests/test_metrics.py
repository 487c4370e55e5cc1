"""Tests for the sweep observability layer (repro.harness.metrics)."""

import json

import pytest

from repro.harness import (
    METRICS_SCHEMA_VERSION,
    JsonlStore,
    MemoryStore,
    MetricsCollector,
    ParallelTrialRunner,
    ShardedStore,
    Trial,
    TrialRunner,
    validate_metrics_payload,
)


def steps_fn(point, seed):
    """Deterministic picklable trial fn: steps from (point, seed)."""
    return {"success": seed % 5 != 0, "steps": float(point["n"] + seed % 97)}


def failing_fn(point, seed):
    return {"success": False, "steps": float(seed % 13)}


def batch_steps_fn(point, seeds):
    return [steps_fn(point, seed) for seed in seeds]


class FakeClock:
    """A manual clock so sampling cadence is deterministic."""

    def __init__(self):
        self.now = 0.0

    def tick(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


class TestCollectorCore:
    def _trial(self, success=True, steps=10.0, elapsed=0.01, n=8):
        return Trial(point={"n": n}, trial_index=0, seed=1, success=success,
                     metrics={"steps": steps}, elapsed_s=elapsed)

    def test_sampling_follows_wall_clock_interval(self):
        clock = FakeClock()
        collector = MetricsCollector(sample_interval_s=1.0, clock=clock)
        collector.begin(total=10, pending=10)
        for _ in range(4):       # 4 events in the first interval: no sample
            clock.tick(0.2)
            collector.record_trial(self._trial())
        assert collector.samples == []
        clock.tick(0.3)          # crosses 1.0 s -> one sample, 5 events
        collector.record_trial(self._trial())
        assert len(collector.samples) == 1
        sample = collector.samples[0]
        assert sample["t_s"] == pytest.approx(1.1)
        assert sample["trials_per_sec"] == pytest.approx(5 / 1.1)
        assert sample["pending"] == 5
        clock.tick(2.0)          # finish() takes a closing sample
        collector.record_trial(self._trial())
        collector.finish()
        assert len(collector.samples) == 2
        assert collector.samples[-1]["pending"] == 4

    def test_rejects_bad_interval_and_double_begin(self):
        with pytest.raises(ValueError):
            MetricsCollector(sample_interval_s=0)
        collector = MetricsCollector()
        collector.begin(total=1, pending=1)
        with pytest.raises(RuntimeError):
            collector.begin(total=1, pending=1)

    def test_latency_percentiles_fresh_only(self):
        clock = FakeClock()
        collector = MetricsCollector(clock=clock)
        collector.begin(total=3, pending=2)
        collector.record_trial(self._trial(elapsed=0.5), resumed=True)
        collector.record_trial(self._trial(elapsed=0.010))
        collector.record_trial(self._trial(elapsed=0.030))
        timing = collector.payload()["timing"]
        # The resumed trial's stored elapsed never enters the pool.
        assert timing["latency_p50_s"] == pytest.approx(0.020)
        assert timing["latency_max_s"] == pytest.approx(0.030)
        assert timing["latency_p99_s"] <= 0.030

    def test_report_is_human_readable(self):
        collector = MetricsCollector(clock=FakeClock())
        collector.begin(total=2, pending=2)
        collector.record_trial(self._trial(), batch_size=4)
        collector.record_trial(self._trial(success=False), batch_size=4)
        text = collector.report({"algorithm": "dra"})
        assert "== sweep metrics (schema v1) ==" in text
        assert "trials      2 (fresh 2, resumed 0, failures 1)" in text
        assert "success     50.0% overall" in text
        assert "mean occupancy 4" in text
        assert "n=8" in text


class TestEdgeCases:
    def test_empty_sweep(self):
        collector = MetricsCollector()
        out = TrialRunner(steps_fn, metrics=collector).run([], trials=3)
        assert out == []
        payload = collector.payload()
        assert payload["kpis"] == {"trials": 0, "fresh": 0, "resumed": 0,
                                   "success_rate": 0.0, "per_point": {}}
        assert payload["timing"]["latency_p99_s"] is None
        assert collector.report()  # renders without data

    def test_all_failures_point(self):
        collector = MetricsCollector()
        TrialRunner(failing_fn, metrics=collector).run([{"n": 8}], trials=6)
        payload = collector.payload()
        point = payload["kpis"]["per_point"]["n=8"]
        assert point["success_rate"] == 0.0
        assert point["successes"] == 0
        # Steps percentiles and latency still describe the failures.
        assert point["steps_p90"] is not None
        assert payload["timing"]["latency_p99_s"] is not None

    def test_resume_only_run(self, tmp_path):
        store = JsonlStore(tmp_path / "sweep.jsonl")
        points = [{"n": 8}, {"n": 12}]
        TrialRunner(steps_fn, master_seed=3, store=store).run(points, trials=4)
        collector = MetricsCollector()
        out = TrialRunner(steps_fn, master_seed=3, store=store,
                          metrics=collector).run(points, trials=4)
        payload = collector.payload()
        assert payload["kpis"]["trials"] == len(out) == 8
        assert payload["kpis"]["fresh"] == 0
        assert payload["kpis"]["resumed"] == 8
        # No fresh trials -> no latency distribution, zero fresh rate.
        assert payload["timing"]["latency_p50_s"] is None
        assert payload["events"]["batch_occupancy_mean"] is None
        # Seed-derived KPIs match a fresh metered run of the same tree
        # (fresh/resumed counts describe the path taken, so they differ).
        fresh = MetricsCollector()
        TrialRunner(steps_fn, master_seed=3, metrics=fresh).run(points,
                                                                trials=4)
        fresh_kpis = fresh.payload()["kpis"]
        assert payload["kpis"]["per_point"] == fresh_kpis["per_point"]
        assert payload["kpis"]["success_rate"] == fresh_kpis["success_rate"]

    def test_schema_round_trip(self):
        collector = MetricsCollector()
        TrialRunner(steps_fn, metrics=collector).run([{"n": 8}], trials=3)
        payload = collector.payload({"algorithm": "x"})
        decoded = json.loads(json.dumps(payload))
        assert validate_metrics_payload(decoded) == payload
        assert decoded["schema_version"] == METRICS_SCHEMA_VERSION

    def test_validation_rejects_bad_payloads(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            validate_metrics_payload([])
        with pytest.raises(ValueError, match="schema tag"):
            validate_metrics_payload({"schema": "something-else"})
        collector = MetricsCollector()
        payload = collector.payload()
        stale = dict(payload, schema_version=METRICS_SCHEMA_VERSION + 1)
        with pytest.raises(ValueError, match="unsupported metrics schema"):
            validate_metrics_payload(stale)
        torn = {k: v for k, v in payload.items() if k != "kpis"}
        with pytest.raises(ValueError, match="missing sections"):
            validate_metrics_payload(torn)


class TestRunnerIntegration:
    POINTS = [{"n": 8}, {"n": 12}]

    def test_serial_and_parallel_kpis_identical(self):
        serial = MetricsCollector()
        TrialRunner(steps_fn, master_seed=11,
                    metrics=serial).run(self.POINTS, trials=6)
        parallel = MetricsCollector()
        ParallelTrialRunner(steps_fn, master_seed=11, jobs=2,
                            metrics=parallel).run(self.POINTS, trials=6)
        assert parallel.payload()["kpis"] == serial.payload()["kpis"]

    def test_parallel_pool_annotation(self):
        collector = MetricsCollector()
        ParallelTrialRunner(steps_fn, master_seed=1, jobs=2,
                            metrics=collector).run(self.POINTS, trials=4)
        run = collector.payload()["run"]
        assert run["scheduler"] == "ordered"  # schema v1 keeps the field
        assert run["workers"] == 2
        assert run["chunksize"] == 1  # 8 groups over 2 workers

    def test_metrics_composes_with_progress(self):
        seen = []
        collector = MetricsCollector()
        TrialRunner(steps_fn, metrics=collector).run(
            self.POINTS, trials=3, progress=seen.append)
        assert len(seen) == 6
        assert collector.payload()["kpis"]["trials"] == 6

    def test_batched_events_record_group_sizes(self):
        collector = MetricsCollector()
        TrialRunner(steps_fn, batch_fn=batch_steps_fn, batch_size=4,
                    metrics=collector).run(self.POINTS, trials=6)
        events = collector.payload()["events"]
        assert events["batch_occupancy_max"] == 4
        # 6 trials per point -> groups of 4 + 2 at each point.
        assert events["batch_occupancy_mean"] == pytest.approx(
            (4 * 4 + 2 * 2) * 2 / 12)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_batched_resume_counts_each_trial_once(self, tmp_path, jobs):
        """Resumed trials report through the metrics event path exactly
        once in the batched paths — the same contract as progress."""
        store = JsonlStore(tmp_path / f"sweep{jobs}.jsonl")
        first = TrialRunner(steps_fn, master_seed=2, store=store,
                            batch_fn=batch_steps_fn, batch_size=3)
        kept = first.run(self.POINTS, trials=5)[::2]
        store.clear()
        for trial in kept:  # a gappy store: resume interleaves batches
            store.append(trial)
        collector = MetricsCollector()
        seen = []
        cls = ParallelTrialRunner if jobs > 1 else TrialRunner
        kwargs = {"jobs": jobs} if jobs > 1 else {}
        out = cls(steps_fn, master_seed=2, store=store,
                  batch_fn=batch_steps_fn, batch_size=3,
                  metrics=collector, **kwargs).run(
            self.POINTS, trials=5, progress=seen.append)
        payload = collector.payload()
        assert payload["kpis"]["trials"] == len(out) == len(seen) == 10
        assert payload["kpis"]["resumed"] == len(kept) == 5
        assert payload["kpis"]["fresh"] == 5
        # And the seed-derived KPIs still match an unresumed serial run.
        fresh = MetricsCollector()
        TrialRunner(steps_fn, master_seed=2, metrics=fresh).run(
            self.POINTS, trials=5)
        fresh_kpis = fresh.payload()["kpis"]
        assert payload["kpis"]["per_point"] == fresh_kpis["per_point"]
        assert payload["kpis"]["success_rate"] == fresh_kpis["success_rate"]


def small_cap(point):
    """Per-point batch cap: 4 at n=8, 2 elsewhere."""
    return 4 if point["n"] == 8 else 2


class TestBatchGrouping:
    """Serial and parallel batched runs cut the same groups."""

    POINTS = [{"n": 8}, {"n": 12}]
    #: (n, trial index) pairs already in the store before the run.
    RESUMED = {(8, 2), (12, 0), (12, 3)}

    def _gappy_store(self, path):
        store = JsonlStore(path)
        for trial in TrialRunner(steps_fn, master_seed=4).run(
                self.POINTS, trials=8):
            if (trial.point["n"], trial.trial_index) in self.RESUMED:
                store.append(trial)
        return store

    def test_serial_and_parallel_batch_occupancy_match(self, tmp_path):
        events = {}
        for jobs in (1, 2):
            cls = ParallelTrialRunner if jobs > 1 else TrialRunner
            kwargs = {"jobs": jobs} if jobs > 1 else {}
            collector = MetricsCollector()
            cls(steps_fn, master_seed=4, batch_fn=batch_steps_fn,
                batch_size=small_cap, metrics=collector,
                store=self._gappy_store(tmp_path / f"s{jobs}.jsonl"),
                **kwargs).run(self.POINTS, trials=8)
            events[jobs] = collector.payload()["events"]
        # n=8 (cap 4) runs 0,1 | 3,4,5,6 | 7: the resumed slot 2 and the
        # cap both cut.  n=12 (cap 2) runs 1,2 | 4,5 | 6,7.
        for jobs in (1, 2):
            assert events[jobs]["resumed"] == 3
            assert events[jobs]["batch_occupancy_max"] == 4
            assert events[jobs]["batch_occupancy_mean"] == pytest.approx(
                (2 * 2 + 4 * 4 + 1 + 6 * 2) / 13)
        for key in ("batch_occupancy_mean", "batch_occupancy_max"):
            assert events[1][key] == events[2][key]


class TestStoreSidecar:
    def _payload(self):
        collector = MetricsCollector()
        TrialRunner(steps_fn, metrics=collector).run([{"n": 8}], trials=2)
        return collector.payload()

    def test_jsonl_sidecar_path_and_round_trip(self, tmp_path):
        store = JsonlStore(tmp_path / "sweep.jsonl")
        assert store.metrics_path() == tmp_path / "sweep.metrics.json"
        payload = self._payload()
        written = store.write_metrics(payload)
        assert written == store.metrics_path() and written.exists()
        assert store.load_metrics() == json.loads(json.dumps(payload))
        # The sidecar never pollutes the trial record stream.
        assert store.load() == []

    def test_sharded_sidecar_is_per_writer(self, tmp_path):
        store = ShardedStore(tmp_path / "shards", shard="0of2")
        assert store.metrics_path() == \
            tmp_path / "shards" / "shard-0of2.metrics.json"
        store.write_metrics(self._payload())
        store.append(Trial(point={"n": 8}, trial_index=0, seed=1,
                           success=True))
        # shard_paths (the record merge) must not pick the sidecar up.
        assert store.shard_paths() == [tmp_path / "shards"
                                      / "shard-0of2.jsonl"]
        assert len(store.load()) == 1

    def test_memory_store_has_no_sidecar(self):
        store = MemoryStore()
        assert store.metrics_path() is None
        assert store.write_metrics(self._payload()) is None
        assert store.load_metrics() is None

    def test_missing_sidecar_loads_none(self, tmp_path):
        assert JsonlStore(tmp_path / "sweep.jsonl").load_metrics() is None
