"""The benchmark's workloads and the sweep grids they generate.

A workload fixes everything a ``repro sweep`` invocation needs except
its master seed: algorithm, engine, graph parameters, trials per sweep,
worker count, and whether a JSONL store and metrics collector ride
along.  :func:`make_grid` turns the benchmark's ``--seed`` into the
grid the program receives; nothing else about the inputs varies.  Why
each workload exists is recorded in ``BENCHMARK.json`` and
``perfbench/README.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["Workload", "Grid", "WORKLOADS", "make_grid", "warmup_grid",
           "nproc"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed ``repro sweep`` configuration."""

    name: str
    algorithm: str
    engine: str
    n: int
    c: float
    delta: float
    #: Trials in one sweep; a run repeats that sweep until time is up.
    trials: int
    #: Trials in the untimed warm-up sweep that finishes lazy set-up.
    warmup_trials: int
    #: Worker processes (``--jobs``), capped at :func:`nproc` at run time.
    jobs: int = 1
    #: ``fast-batch`` with the per-point caps ``--engine auto`` picks.
    batched: bool = False
    #: A JSONL ``--store`` plus ``--metrics`` sidecar.
    store: bool = False


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="dra-fast-n1024",
        algorithm="dra", engine="fast", n=1024, c=8.0, delta=1.0,
        trials=144, warmup_trials=2),
    Workload(
        name="dhc2-batch-n512",
        algorithm="dhc2", engine="fast-batch", n=512, c=6.0, delta=0.75,
        trials=50, warmup_trials=4, batched=True),
    Workload(
        name="dra-congest-n48",
        algorithm="dra", engine="congest", n=48, c=8.0, delta=1.0,
        trials=200, warmup_trials=2),
    Workload(
        name="cre-jobs2-n64",
        algorithm="cre", engine="fast", n=64, c=8.0, delta=1.0,
        trials=2000, warmup_trials=16, jobs=2, store=True),
)}


@dataclass(frozen=True)
class Grid:
    """What the program receives: one point ``{"n": n}``, the trial
    count and the master seed its harness derives trial seeds from."""

    n: int
    trials: int
    master_seed: int

    def points(self) -> list[dict]:
        return [{"n": self.n}]


def make_grid(workload: Workload, seed: int) -> Grid:
    """The measured sweep's grid for benchmark seed ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return Grid(workload.n, workload.trials, seed)


def warmup_grid(workload: Workload, seed: int) -> Grid:
    """A small untimed sweep whose seed tree is disjoint from the measured one."""
    return Grid(workload.n, workload.warmup_trials, seed + 2**40)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1
