"""Experiment harness: grids, trials, worker pools, sharding, persistence.

The benchmark files under ``benchmarks/`` each hand-roll the same three
things: a parameter grid, a loop of seeded Monte Carlo trials, and
aggregation into the series the paper-shape assertions check.  This
subpackage is that machinery as a library, used by the larger sweeps
and available to downstream users building their own experiments:

* :class:`~repro.harness.grid.ParameterGrid` — named cartesian products
  with per-point overrides;
* :class:`~repro.harness.runner.TrialRunner` — runs a trial function
  over grid x seeds with deterministic seed derivation, collecting
  :class:`~repro.harness.runner.Trial` records;
* :class:`~repro.harness.runner.ParallelTrialRunner` — the same
  contract fanned out over worker processes: workers pull small
  chunks as they free up, and the parent writes results in
  submission order, so store records are byte-identical to a serial
  run;
* :mod:`repro.harness.store` — pluggable persistence backends with
  resume: :class:`~repro.harness.store.JsonlStore` (one file),
  :class:`~repro.harness.store.ShardedStore` (one lock-free shard file
  per writer/host), :class:`~repro.harness.store.MemoryStore` (tests);
* :mod:`repro.harness.sharding` — deterministic multi-host partition
  of the (point, trial) grid (``--shard I/N``) plus
  :func:`~repro.harness.sharding.merge_stores` to fuse shard stores
  back into one canonical record stream;
* :mod:`repro.harness.aggregate` — success rates, means, quantiles,
  group-by over trial records;
* :mod:`repro.harness.metrics` — sweep observability: a
  :class:`~repro.harness.metrics.MetricsCollector` of sampled
  time-series (trials/sec, queue depth, occupancy), per-trial event
  metrics (latency, steps, resume hits), and post-run aggregated KPIs
  (latency percentiles, per-point success rates, throughput), fed by
  the runners' ``metrics=`` hook and persisted as a versioned
  ``*.metrics.json`` store sidecar (see ``docs/OBSERVABILITY.md``).

Every layer preserves the seed tree: seeds derive from (master seed,
point index, trial index) whatever the job count, backend, or shard
split, so the *canonical records* of a sweep are invariant across all
of them (see :meth:`~repro.harness.runner.Trial.canonical_json`).
"""

from repro.harness.aggregate import group_by, quantile, success_rate, summarize
from repro.harness.grid import ParameterGrid
from repro.harness.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsCollector,
    validate_metrics_payload,
)
from repro.harness.runner import ParallelTrialRunner, Trial, TrialRunner
from repro.harness.sharding import ShardSpec, merge_stores
from repro.harness.store import (
    STORE_BACKENDS,
    JsonlStore,
    MemoryStore,
    ShardedStore,
    TrialStore,
    canonical_order,
    make_store,
)

__all__ = [
    "ParameterGrid",
    "Trial",
    "TrialRunner",
    "ParallelTrialRunner",
    "ShardSpec",
    "merge_stores",
    "TrialStore",
    "JsonlStore",
    "ShardedStore",
    "MemoryStore",
    "STORE_BACKENDS",
    "canonical_order",
    "make_store",
    "success_rate",
    "summarize",
    "quantile",
    "group_by",
    "MetricsCollector",
    "METRICS_SCHEMA_VERSION",
    "validate_metrics_payload",
]
