"""Multi-host sharding: disjoint slices, unchanged seeds, exact merges."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.harness import (
    JsonlStore,
    MemoryStore,
    ParallelTrialRunner,
    ParameterGrid,
    ShardedStore,
    ShardSpec,
    Trial,
    TrialRunner,
    merge_stores,
)


def mapping_trial(point, seed):
    return {"success": True, "score": float(seed % 11)}


def canonical(trials):
    return [json.dumps(t.canonical_json(), sort_keys=True) for t in trials]


class TestShardSpec:
    def test_parse(self):
        assert ShardSpec.parse("0/4") == ShardSpec(0, 4)
        assert ShardSpec.parse(" 3 / 8 ") == ShardSpec(3, 8)

    @pytest.mark.parametrize("text", ["4", "a/b", "1-4", "", "-1/4"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(ValueError, match="shard"):
            ShardSpec.parse(text)

    def test_bounds(self):
        with pytest.raises(ValueError, match="index"):
            ShardSpec(4, 4)
        with pytest.raises(ValueError, match="count"):
            ShardSpec(0, 0)

    def test_coerce_forms(self):
        assert ShardSpec.coerce(None) is None
        assert ShardSpec.coerce("1/3") == ShardSpec(1, 3)
        assert ShardSpec.coerce((1, 3)) == ShardSpec(1, 3)
        spec = ShardSpec(0, 2)
        assert ShardSpec.coerce(spec) is spec
        assert spec.label == "0of2"

    @given(points=st.integers(1, 12), trials=st.integers(1, 6),
           count=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_slices_disjoint_and_exhaustive(self, points, trials, count):
        """The acceptance property: a partition, whatever the grid."""
        grid = [(p, t) for p in range(points) for t in range(trials)]
        owners = {
            pair: [i for i in range(count)
                   if ShardSpec(i, count).owns(*pair, trials)]
            for pair in grid
        }
        assert all(len(who) == 1 for who in owners.values())

    def test_round_robin_interleaves_within_a_point(self):
        # Adjacent trials of one (expensive) point land on different
        # hosts — the skew-balancing property.
        spec0, spec1 = ShardSpec(0, 2), ShardSpec(1, 2)
        owned0 = [t for t in range(6) if spec0.owns(0, t, 6)]
        owned1 = [t for t in range(6) if spec1.owns(0, t, 6)]
        assert owned0 == [0, 2, 4] and owned1 == [1, 3, 5]


class TestShardedRunner:
    def test_seeds_unchanged_from_unsharded_run(self):
        grid = ParameterGrid(x=[1, 2, 3])
        reference = TrialRunner(mapping_trial, master_seed=7).run(
            grid, trials=5)
        sharded: list[Trial] = []
        for index in range(3):
            sharded.extend(TrialRunner(
                mapping_trial, master_seed=7, shard=(index, 3)).run(
                grid, trials=5))
        assert sorted(canonical(sharded)) == sorted(canonical(reference))
        by_key = {t.key(): t.seed for t in sharded}
        assert all(by_key[t.key()] == t.seed for t in reference)

    def test_parallel_sharded_matches(self, tmp_path):
        grid = ParameterGrid(x=[1, 2])
        reference = TrialRunner(mapping_trial, master_seed=4).run(
            grid, trials=6)
        stores = []
        for index in range(2):
            store = ShardedStore(tmp_path / "d", shard=f"{index}of2")
            stores.append(store)
            ParallelTrialRunner(
                mapping_trial, master_seed=4, shard=(index, 2), jobs=2,
                store=store).run(grid, trials=6)
        merged = merge_stores(stores)
        assert canonical(merged) == canonical(reference)

    def test_shard_resumes_only_its_slice(self, tmp_path):
        store = ShardedStore(tmp_path / "d", shard="0of2")
        grid = ParameterGrid(x=[1, 2])
        runner = TrialRunner(mapping_trial, master_seed=2, shard=(0, 2),
                             store=store)
        first = runner.run(grid, trials=4)
        again = runner.run(grid, trials=4)
        assert canonical(again) == canonical(first)
        assert len(store) == len(first)  # nothing re-appended


class TestMergeStores:
    def _filled(self, trials=3):
        stores = [MemoryStore(), MemoryStore()]
        grid = ParameterGrid(x=[1, 2])
        for index, store in enumerate(stores):
            TrialRunner(mapping_trial, master_seed=1, shard=(index, 2),
                        store=store).run(grid, trials=trials)
        return stores, grid

    def test_merge_writes_canonical_jsonl_byte_identical(self, tmp_path):
        stores, grid = self._filled()
        serial_store = JsonlStore(tmp_path / "serial.jsonl")
        TrialRunner(mapping_trial, master_seed=1, store=serial_store).run(
            grid, trials=3)
        dest = JsonlStore(tmp_path / "merged.jsonl")
        merge_stores(stores, dest, expect_trials=3)

        # This grid enumerates in canonical order, so the merged JSONL
        # must equal the serial store byte for byte once the only
        # wall-clock field is stripped.
        def lines(path):
            out = []
            for line in path.read_text().splitlines():
                record = json.loads(line)
                record.pop("elapsed_s", None)
                out.append(json.dumps(record, sort_keys=True))
            return out
        assert lines(dest.path) == lines(serial_store.path)

    def test_require_records_rejects_empty_merge(self, tmp_path):
        dest = JsonlStore(tmp_path / "merged.jsonl")
        with pytest.raises(ValueError, match="no trial records"):
            merge_stores([MemoryStore()], dest, require_records=True)
        assert not dest.path.exists()  # dest untouched on failure
        # The default stays permissive for library callers that handle
        # emptiness themselves.
        assert merge_stores([MemoryStore()]) == []

    def test_duplicate_agreement_is_tolerated(self):
        stores, _ = self._filled()
        doubled = stores + [stores[0]]  # same shard merged twice
        assert canonical(merge_stores(doubled)) == \
            canonical(merge_stores(stores))

    def test_conflicting_duplicate_is_a_hard_error(self):
        a, b = MemoryStore(), MemoryStore()
        t = Trial(point={"x": 1}, trial_index=0, seed=1, success=True)
        a.append(t)
        b.append(Trial(point={"x": 1}, trial_index=0, seed=2, success=False))
        with pytest.raises(ValueError, match="disagreement"):
            merge_stores([a, b])

    def test_missing_shard_is_detected(self):
        stores, _ = self._filled()
        with pytest.raises(ValueError, match="incomplete"):
            merge_stores([stores[1]])  # trial index 0 of x=1 lives in shard 0

    def test_expect_trials_detects_short_points(self):
        stores, _ = self._filled(trials=3)
        with pytest.raises(ValueError, match="expected 4 trials"):
            merge_stores(stores, expect_trials=4)

    def test_expect_points_detects_wholly_missing_point(self):
        # trials=1, N=2: round-robin puts each whole point on one
        # shard, so a missing shard leaves no per-point gap — only
        # the point count can catch it.
        stores = [MemoryStore(), MemoryStore()]
        grid = ParameterGrid(x=[1, 2])
        for index, store in enumerate(stores):
            TrialRunner(mapping_trial, master_seed=1, shard=(index, 2),
                        store=store).run(grid, trials=1)
        merged = merge_stores([stores[0]], expect_trials=1)  # undetected
        assert len(merged) == 1
        with pytest.raises(ValueError, match="expected 2 grid points"):
            merge_stores([stores[0]], expect_trials=1, expect_points=2)
        assert len(merge_stores(stores, expect_trials=1,
                                expect_points=2)) == 2


class TestShardedSweepCli:
    """End-to-end: the CI smoke job's contract as a local test."""

    def test_two_shard_sweep_merge_equals_serial(self, capsys, tmp_path):
        args = ("sweep", "--algorithm", "dra", "--engine", "fast",
                "--sizes", "24,32", "--trials", "3", "--c", "8",
                "--delta", "1.0", "--seed", "5", "--json")
        serial = tmp_path / "serial.jsonl"
        assert main([*args, "--store", str(serial)]) == 0
        shard_dir = tmp_path / "shards"
        for shard in ("0/2", "1/2"):
            assert main([*args, "--shard", shard, "--store-backend",
                         "sharded", "--store", str(shard_dir)]) == 0
        merged = tmp_path / "merged.jsonl"
        assert main(["merge", str(shard_dir), "--out", str(merged),
                     "--trials", "3", "--points", "2"]) == 0
        capsys.readouterr()

        def strip(path):
            out = []
            for line in path.read_text().splitlines():
                record = json.loads(line)
                record.pop("elapsed_s", None)
                out.append(json.dumps(record, sort_keys=True))
            return out

        assert strip(merged) == strip(serial)

    def test_sharded_backend_requires_store_path(self, capsys):
        code = main(["sweep", "--sizes", "24,32", "--store-backend",
                     "sharded"])
        assert code == 2
        assert "needs --store" in capsys.readouterr().err

    def test_bad_shard_is_a_clean_error(self, capsys):
        code = main(["sweep", "--sizes", "24,32", "--shard", "2"])
        assert code == 2
        assert "shard" in capsys.readouterr().err

    def test_nonexistent_merge_source_is_a_clean_error(self, capsys,
                                                       tmp_path):
        # A typo'd source must not pass as an empty store (that would
        # silently drop a shard's records from the merge).
        code = main(["merge", str(tmp_path / "shard_stoer"),
                     "--out", str(tmp_path / "m.jsonl")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err
