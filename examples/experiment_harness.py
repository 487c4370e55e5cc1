#!/usr/bin/env python
"""Driving your own experiments with the harness subpackage.

The benchmark suite validates the paper; the harness is how you ask
*your own* questions.  This example reruns a miniature version of
experiment E6 — how does success probability respond to the density
constant c? — through the public API: a parameter grid, a seeded trial
runner with a resumable JSONL store, and aggregation into a table.
Algorithm dispatch goes through :func:`repro.run`, so switching
algorithm or engine is a string change.

It then walks the orchestration layer:

1. the same sweep on a :class:`ParallelTrialRunner` — shared seed
   derivation, so the parallel run reproduces the serial trials bit
   for bit while using every core;
2. a skewed grid — idle workers pull the next small chunk instead of
   waiting behind the expensive column, and the parent still writes
   the store in serial order;
3. a two-shard split with :class:`ShardedStore` backends — two
   "hosts" each run a disjoint slice off the same master seed tree,
   and :func:`merge_stores` fuses them back into the serial records.

Run:  python examples/experiment_harness.py
"""

import tempfile
from pathlib import Path

import repro
from repro.graphs import gnp_random_graph, paper_probability
from repro.harness import (
    JsonlStore,
    ParallelTrialRunner,
    ParameterGrid,
    ShardedStore,
    TrialRunner,
    canonical_order,
    group_by,
    merge_stores,
    success_rate,
    summarize,
)
from repro.reporting import render_table


def trial(point: dict, seed: int):
    """One Monte Carlo trial: sample a graph, run DRA, return the result.

    Module-level (hence picklable) so the parallel runner's worker
    processes can execute it too.
    """
    p = paper_probability(point["n"], delta=1.0, c=point["c"])
    graph = gnp_random_graph(point["n"], p, seed=seed)
    return repro.run(graph, "dra", engine="fast", seed=seed)


def main() -> None:
    grid = ParameterGrid(n=[128], c=[1.5, 2.0, 3.0, 4.0, 6.0])
    workdir = Path(tempfile.mkdtemp())
    store_path = workdir / "e6_mini.jsonl"
    runner = TrialRunner(trial, master_seed=42, store=JsonlStore(store_path))

    print(f"running {len(grid)} grid points x 10 trials "
          f"(store: {store_path}) ...")
    trials = runner.run(grid, trials=10)

    rows = []
    for c, bucket in group_by(trials, "c").items():
        stats = summarize(bucket, "rounds")
        rows.append([
            c,
            f"{success_rate(bucket):.0%}",
            round(stats.get("mean", float("nan")), 1),
            round(stats.get("std", float("nan")), 1),
        ])
    print(render_table(
        ["c", "success", "mean rounds", "std"],
        rows, title="mini-E6: DRA success vs density constant (n=128, "
                     "p = c ln n / n, 10 trials)"))
    print()
    print("Rerunning the same sweep is free — every trial is already in")
    print("the store, so the runner loads instead of recomputing:")
    again = runner.run(grid, trials=10)
    assert [t.seed for t in again] == [t.seed for t in trials]
    print(f"  {len(again)} trials loaded from {store_path.name}, 0 executed.")

    print()
    print("The same sweep on 4 worker processes (fresh store) derives the")
    print("same seed tree, so every trial reproduces bit for bit:")
    parallel = ParallelTrialRunner(trial, master_seed=42, jobs=4)
    ptrials = parallel.run(grid, trials=10)
    assert [t.canonical_json() for t in ptrials] == \
        [t.canonical_json() for t in trials]
    print(f"  {len(ptrials)} parallel trials == serial trials "
          f"(seeds, success, metrics).")

    print()
    print("On a skewed grid (n=32 points beside n=256 points), idle")
    print("workers keep pulling small chunks instead of waiting behind")
    print("the expensive column, while the parent writes records in")
    print("submission order — so the store file matches a serial run's")
    print("line for line (the wall-clock elapsed_s aside):")
    skewed = ParameterGrid(n=[32, 256], c=[4.0, 6.0])
    serial_sk = TrialRunner(trial, master_seed=7).run(skewed, trials=6)
    skewed_store = JsonlStore(workdir / "skewed.jsonl")
    ParallelTrialRunner(trial, master_seed=7, jobs=4,
                        store=skewed_store).run(skewed, trials=6)
    written = skewed_store.load()  # file order
    assert [t.canonical_json() for t in written] == \
        [t.canonical_json() for t in serial_sk]
    print(f"  {len(written)} parallel store records == serial trials, "
          f"in order.")

    print()
    print("Sharding splits one sweep across hosts: each shard runs a")
    print("disjoint slice of the (point, trial) grid off the *same*")
    print("master seed tree, appending to its own lock-free shard file:")
    shard_dir = workdir / "e6_shards"
    for index in range(2):  # two "hosts"
        ParallelTrialRunner(
            trial, master_seed=7, jobs=2, shard=(index, 2),
            store=ShardedStore(shard_dir, shard=f"{index}of2"),
        ).run(skewed, trials=6)
    merged = merge_stores([ShardedStore(shard_dir)])
    assert [t.canonical_json() for t in merged] == \
        [t.canonical_json() for t in canonical_order(serial_sk)]
    print(f"  2 shards x 2 workers -> merge == serial sweep "
          f"({len(merged)} records).")


if __name__ == "__main__":
    main()
