"""The store backend layer: JSONL, sharded, memory — one contract."""

import json
import os

import pytest

from repro.harness import (
    STORE_BACKENDS,
    JsonlStore,
    MemoryStore,
    ParameterGrid,
    ShardedStore,
    Trial,
    TrialRunner,
    make_store,
)


def mapping_trial(point, seed):
    return {"success": True, "score": float(seed % 5)}


def make_trial(x=1, index=0, seed=1):
    return Trial(point={"x": x}, trial_index=index, seed=seed, success=True,
                 metrics={"rounds": 10.0 + x})


class TestBackwardCompat:
    def test_subclasses_instantiate_normally(self):
        assert isinstance(MemoryStore(), MemoryStore)

    def test_backend_registry_and_factory(self, tmp_path):
        assert {"jsonl", "sharded", "memory"} <= set(STORE_BACKENDS)
        assert isinstance(make_store("jsonl", tmp_path / "a.jsonl"), JsonlStore)
        assert isinstance(make_store("sharded", tmp_path / "d"), ShardedStore)
        with pytest.raises(ValueError, match="unknown store backend"):
            make_store("sqlite", tmp_path / "x")


class TestJsonlLen:
    """__len__ counts complete lines without decoding any JSON."""

    def test_len_matches_load(self, tmp_path):
        store = JsonlStore(tmp_path / "t.jsonl")
        assert len(store) == 0
        for i in range(5):
            store.append(make_trial(index=i))
        assert len(store) == len(store.load()) == 5

    def test_len_excludes_torn_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        store = JsonlStore(path)
        store.append(make_trial())
        with path.open("a") as fh:
            fh.write('{"point": {"x": 2}, "trial_in')  # crash mid-append
        assert len(store) == len(store.load()) == 1

    def test_len_does_not_json_decode(self, tmp_path, monkeypatch):
        store = JsonlStore(tmp_path / "t.jsonl")
        for i in range(3):
            store.append(make_trial(index=i))

        def boom(*a, **k):  # pragma: no cover - should never run
            raise AssertionError("__len__ must not decode JSON")

        monkeypatch.setattr(json, "loads", boom)
        assert len(store) == 3


class TestShardedStore:
    def test_lock_free_writers_merge_deterministically(self, tmp_path):
        a = ShardedStore(tmp_path / "d", shard="0of2")
        b = ShardedStore(tmp_path / "d", shard="1of2")
        # Interleave appends in "temporal" order that differs from
        # canonical order.
        b.append(make_trial(x=2, index=1, seed=4))
        a.append(make_trial(x=1, index=0, seed=1))
        b.append(make_trial(x=1, index=1, seed=2))
        a.append(make_trial(x=2, index=0, seed=3))
        merged = a.load()
        assert merged == b.load()  # any handle sees the whole directory
        assert [(t.point["x"], t.trial_index) for t in merged] == \
            [(1, 0), (1, 1), (2, 0), (2, 1)]  # canonical, not write, order
        assert len(a) == 4

    def test_per_shard_torn_tail_is_tolerated(self, tmp_path):
        a = ShardedStore(tmp_path / "d", shard="a")
        b = ShardedStore(tmp_path / "d", shard="b")
        a.append(make_trial(x=1))
        b.append(make_trial(x=2))
        with a.path.open("a") as fh:
            fh.write('{"torn')  # host A crashed mid-append
        assert [t.point["x"] for t in a.load()] == [1, 2]
        assert len(a) == 2  # complete lines only

    def test_duplicate_identities_deduplicate(self, tmp_path):
        a = ShardedStore(tmp_path / "d", shard="a")
        b = ShardedStore(tmp_path / "d", shard="b")
        trial = make_trial()
        a.append(trial)
        b.append(trial)  # overlapping slice run twice
        assert len(a.load()) == 1
        assert len(a) == 2  # raw line count is the honest write tally

    def test_clear_removes_all_shards(self, tmp_path):
        a = ShardedStore(tmp_path / "d", shard="a")
        ShardedStore(tmp_path / "d", shard="b").append(make_trial())
        a.append(make_trial(x=2))
        a.clear()
        assert a.load() == []
        assert not (tmp_path / "d").exists()
        a.clear()  # idempotent

    def test_default_shard_label_is_process_unique(self, tmp_path):
        store = ShardedStore(tmp_path / "d")
        store.append(make_trial())
        assert store.path.name.startswith("shard-")


FILE_BACKENDS = {
    "jsonl": lambda root: JsonlStore(root / "deep" / "er" / "t.jsonl"),
    "sharded": lambda root: ShardedStore(root / "deep" / "er", shard="0of1"),
}


@pytest.mark.parametrize("backend", sorted(FILE_BACKENDS))
class TestOneWriteAppend:
    """``append`` on the file-backed stores: one encoded write per record."""

    TRIALS = [
        make_trial(),
        Trial(point={"name": "caf\u00e9", "n": 8}, trial_index=3, seed=2**31 - 2,
              success=False, metrics={"rounds": 0.1, "bits": 1e300},
              elapsed_s=1.5),
    ]

    def test_lines_are_the_sorted_json_records(self, tmp_path, backend):
        store = FILE_BACKENDS[backend](tmp_path)
        for trial in self.TRIALS:
            store.append(trial)
        assert store.path.read_bytes() == b"".join(
            (json.dumps(t.to_json(), sort_keys=True) + "\n").encode("utf-8")
            for t in self.TRIALS)

    def test_missing_parent_is_created(self, tmp_path, backend):
        store = FILE_BACKENDS[backend](tmp_path)
        assert not store.path.parent.exists()
        store.append(self.TRIALS[0])
        assert [t.to_json() for t in store.load()] == [self.TRIALS[0].to_json()]

    def test_torn_tail_is_skipped_on_load(self, tmp_path, backend):
        store = FILE_BACKENDS[backend](tmp_path)
        for trial in self.TRIALS:
            store.append(trial)
        with store.path.open("a") as fh:
            fh.write('{"point": {"x": 2}, "trial_in')  # crash mid-append
        assert len(store) == 2
        assert [t.to_json() for t in store.load_canonical()] == [
            t.to_json() for t in sorted(self.TRIALS, key=Trial.key)]

    @pytest.mark.parametrize("kept", [0, 1, 2])
    def test_resumed_append_cuts_a_torn_tail(self, tmp_path, backend, kept):
        store = FILE_BACKENDS[backend](tmp_path)
        for trial in self.TRIALS[:kept]:
            store.append(trial)
        store.path.parent.mkdir(parents=True, exist_ok=True)
        with store.path.open("a") as fh:
            fh.write('{"point": {"x": 2}, "trial_in')  # crash mid-append
        resumed = FILE_BACKENDS[backend](tmp_path)  # the rerun's store
        resumed.append(make_trial(index=9))
        written = self.TRIALS[:kept] + [make_trial(index=9)]
        assert store.path.read_bytes() == b"".join(
            (json.dumps(t.to_json(), sort_keys=True) + "\n").encode("utf-8")
            for t in written)
        assert len(resumed.load()) == len(written)

    def test_one_write_per_record(self, tmp_path, backend, monkeypatch):
        store = FILE_BACKENDS[backend](tmp_path)
        store.append(self.TRIALS[0])  # parent now exists
        calls = []
        real_write = os.write

        def counting(fd, data):
            calls.append(bytes(data))
            return real_write(fd, data)

        with monkeypatch.context() as m:
            m.setattr(os, "write", counting)
            store.append(self.TRIALS[1])
        assert calls == [(json.dumps(self.TRIALS[1].to_json(), sort_keys=True)
                          + "\n").encode("utf-8")]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors through /proc (Linux)")
    def test_no_descriptor_outlives_an_append(self, tmp_path, backend):
        store = FILE_BACKENDS[backend](tmp_path)
        store.append(self.TRIALS[0])
        before = len(os.listdir("/proc/self/fd"))
        for index in range(100):
            store.append(make_trial(index=index + 1))
        assert len(os.listdir("/proc/self/fd")) == before
        assert len(store) == 101


class TestResumeAcrossBackends:
    """Every backend powers resume: partial run + rerun == full run."""

    @pytest.mark.parametrize("backend", ["jsonl", "sharded", "memory"])
    def test_partial_then_complete_matches_reference(self, tmp_path, backend):
        store = make_store(backend, tmp_path / backend)
        grid = ParameterGrid(x=[1, 2])
        calls = []

        def fn(point, seed):
            calls.append(1)
            return mapping_trial(point, seed)

        runner = TrialRunner(fn, master_seed=3, store=store)
        runner.run(grid, trials=2)
        assert len(calls) == 4
        full = runner.run(grid, trials=4)
        assert len(calls) == 8  # only the 4 new trials executed
        reference = TrialRunner(mapping_trial, master_seed=3).run(
            grid, trials=4)
        assert [t.canonical_json() for t in full] == \
            [t.canonical_json() for t in reference]

    def test_load_canonical_sorts_by_key(self, tmp_path):
        store = JsonlStore(tmp_path / "t.jsonl")
        store.append(make_trial(x=2, index=0))
        store.append(make_trial(x=1, index=1))
        store.append(make_trial(x=1, index=0))
        assert [(t.point["x"], t.trial_index)
                for t in store.load_canonical()] == [(1, 0), (1, 1), (2, 0)]
