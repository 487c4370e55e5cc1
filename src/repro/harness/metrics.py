"""Sweep observability: sampled / event / aggregated harness metrics.

A million-trial sweep answers distributional questions — the paper's
claims are percentiles over many random trials, not single numbers —
yet a raw trial store is just a wall of JSONL.  This module turns the
runner's per-trial stream into the three-way metrics taxonomy used by
discrete-event simulators (AsyncFlow's FastSim):

**Sampled metrics** — a time-series view of the sweep's health,
captured on a fixed wall-clock interval: completion rate over the
window (``trials_per_sec``), pending-trial queue depth (``pending``),
configured worker occupancy (``workers``), and the group size of the
engine pass that produced the most recent trial
(``batch_occupancy``).  Sampling is *opportunistic*: the collector
owns no thread; a snapshot is taken at the next trial event once the
interval has elapsed, so an idle sweep emits no samples and the
collector adds no concurrency of its own.

**Event metrics** — recorded once per trial through the runner's
``metrics=`` hook, which fires exactly when the ``progress`` callback
does (once per returned trial, resumed or fresh alike): trial latency
(``elapsed_s``), the ``steps`` metric, success, the batch group size
the trial ran in, and whether the trial was a resume hit.

**Aggregated metrics** — computed once at :meth:`MetricsCollector.
payload` from the event stream: mean/p50/p90/p99/max latency,
per-point success rates and steps percentiles, and total throughput.
These are the KPIs the end-of-sweep report prints and
``benchmarks/check_bench.py`` compares across runs.

Determinism split: everything under the payload's ``kpis`` key derives
only from the seed tree (counts, success rates, steps percentiles), so
serial and parallel runs of the same sweep produce *identical* KPI
sections; everything wall-clock lives under ``timing`` and ``sampled``
and varies with the host.  ``tests/test_metrics.py`` pins the split.

The sidecar artifact (``<store>.metrics.json``, written by
:meth:`repro.harness.store.TrialStore.write_metrics`) carries a
versioned schema — :data:`METRICS_SCHEMA_VERSION`, validated by
:func:`validate_metrics_payload` — so downstream tooling can evolve
with it.  See ``docs/OBSERVABILITY.md`` for every metric's rationale
and a walkthrough of adding a new one.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping

from repro.harness.aggregate import quantile

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "METRICS_SCHEMA_NAME",
    "MetricsCollector",
    "validate_metrics_payload",
]

#: Version of the sidecar JSON schema.  Bump on any breaking change to
#: the payload layout and record the migration in docs/OBSERVABILITY.md.
METRICS_SCHEMA_VERSION = 1

#: The payload's self-identifying tag (the ``schema`` key).
METRICS_SCHEMA_NAME = "repro.harness.metrics"

#: Latency/steps percentiles the aggregated section reports.
_PERCENTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"))


def point_label(point: Mapping[str, Any]) -> str:
    """Deterministic string key for a grid point (``"n=64"``)."""
    return ",".join(f"{k}={v}" for k, v in sorted(point.items()))


class MetricsCollector:
    """Collects sampled, event, and aggregated metrics for one sweep.

    Hand an instance to :class:`~repro.harness.runner.TrialRunner` /
    :class:`~repro.harness.runner.ParallelTrialRunner` as ``metrics=``;
    the runner drives :meth:`begin`, :meth:`record_trial`, and
    :meth:`finish` itself (one :meth:`record_trial` per returned trial,
    exactly mirroring the ``progress`` contract).  After the run, call
    :meth:`payload` for the machine-readable JSON dict and
    :meth:`report` for the human-readable KPI summary.

    Parameters
    ----------
    sample_interval_s:
        Minimum wall-clock spacing between sampled snapshots (default
        1 s).  Samples are taken opportunistically at trial events —
        no background thread — so an interval shorter than the
        per-trial latency degrades to one sample per trial.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(self, *, sample_interval_s: float = 1.0,
                 clock: Callable[[], float] = time.perf_counter):
        if sample_interval_s <= 0:
            raise ValueError(
                f"sample_interval_s must be > 0, got {sample_interval_s}")
        self.sample_interval_s = float(sample_interval_s)
        self._clock = clock
        self._started = False
        self._finished = False
        self._t0 = 0.0
        self._t_end: float | None = None
        # Run shape (begin / annotate_pool).
        self._total = 0
        self._pending = 0
        self._workers = 1
        self._run_info: dict[str, Any] = {}
        # Sampled series.
        self.samples: list[dict[str, Any]] = []
        self._last_sample_t = 0.0
        self._events_at_last_sample = 0
        self._last_batch = 0
        # Event accumulators.
        self._events = 0
        self._fresh = 0
        self._resumed = 0
        self._successes = 0
        self._latencies: list[float] = []  # fresh trials only
        self._batch_sizes: list[int] = []  # fresh trials only
        self._per_point: dict[str, dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Runner-facing hooks
    # ------------------------------------------------------------------

    def begin(self, *, total: int, pending: int, workers: int = 1) -> None:
        """Mark run start: ``total`` scheduled trials, ``pending`` fresh.

        Called by the runner once its plan is known (resumed trials =
        ``total - pending``).  Starting twice is an error — one
        collector observes one run, so serial/parallel comparisons
        never mix streams.
        """
        if self._started:
            raise RuntimeError("MetricsCollector.begin() called twice; "
                               "use one collector per run")
        self._started = True
        self._total = int(total)
        self._pending = int(pending)
        self._workers = int(workers)
        self._t0 = self._last_sample_t = self._clock()

    def annotate_pool(self, *, workers: int, chunksize: int) -> None:
        """Record the parallel pool shape (called by the parallel runner).

        ``scheduler`` stays in the payload as ``"ordered"``, the one
        way the pool's results are consumed, so sidecars keep schema
        version 1.
        """
        self._workers = int(workers)
        self._run_info.update({"scheduler": "ordered",
                               "workers": int(workers),
                               "chunksize": int(chunksize)})

    def record_trial(self, trial, *, resumed: bool = False,
                     batch_size: int = 1) -> None:
        """One event metric: a trial surfaced (fresh or resume hit).

        Fires on the same contract as the runner's ``progress``
        callback — exactly once per returned trial.  Latency and batch
        occupancy only accumulate for fresh trials (a resume hit costs
        no engine pass; its stored ``elapsed_s`` describes a previous
        run's wall clock).
        """
        if not self._started:  # standalone use (no runner): self-start
            self.begin(total=0, pending=0)
        self._events += 1
        if resumed:
            self._resumed += 1
        else:
            self._fresh += 1
            self._pending = max(0, self._pending - 1)
            self._latencies.append(float(trial.elapsed_s))
            self._batch_sizes.append(int(batch_size))
            self._last_batch = int(batch_size)
        if trial.success:
            self._successes += 1
        label = point_label(trial.point)
        slot = self._per_point.setdefault(
            label, {"trials": 0, "successes": 0, "steps": []})
        slot["trials"] += 1
        slot["successes"] += int(trial.success)
        steps = trial.metrics.get("steps")
        if steps is not None:
            slot["steps"].append(float(steps))
        # Async-engine trials (the runner folds detail["async"] into
        # metrics under an "async_" prefix): distribution of the
        # virtual-time round stretch, plus event-count totals.
        stretch = trial.metrics.get("async_stretch")
        if stretch is not None:
            slot.setdefault("async_stretch", []).append(float(stretch))
        for key in ("async_delivered", "async_dropped", "async_reordered",
                    "async_limited"):
            value = trial.metrics.get(key)
            if value is not None:
                slot[key] = slot.get(key, 0.0) + float(value)
        self._maybe_sample()

    def finish(self) -> None:
        """Mark run end (idempotent); takes a closing sample."""
        if self._finished:
            return
        self._finished = True
        self._t_end = self._clock()
        if self._started and self._events > self._events_at_last_sample:
            self._sample(self._t_end)

    # ------------------------------------------------------------------
    # Sampled series
    # ------------------------------------------------------------------

    def _maybe_sample(self) -> None:
        now = self._clock()
        if now - self._last_sample_t >= self.sample_interval_s:
            self._sample(now)

    def _sample(self, now: float) -> None:
        window = max(now - self._last_sample_t, 1e-12)
        done = self._events - self._events_at_last_sample
        self.samples.append({
            "t_s": round(now - self._t0, 6),
            "trials_per_sec": round(done / window, 6),
            "pending": self._pending,
            "workers": self._workers,
            "batch_occupancy": self._last_batch,
        })
        self._last_sample_t = now
        self._events_at_last_sample = self._events

    # ------------------------------------------------------------------
    # Aggregated output
    # ------------------------------------------------------------------

    def payload(self, context: Mapping[str, Any] | None = None
                ) -> dict[str, Any]:
        """The versioned machine-readable metrics payload.

        ``context`` is caller-supplied run identification (algorithm,
        engine, grid, ...) stored verbatim under ``context``.  Safe to
        call repeatedly; implies :meth:`finish`.
        """
        self.finish()
        wall = max((self._t_end or self._clock()) - self._t0, 1e-12)
        timing: dict[str, Any] = {
            "wall_s": round(wall, 6),
            "trials_per_sec": round(self._events / wall, 6),
            "fresh_per_sec": round(self._fresh / wall, 6),
            "latency_mean_s": None,
            "latency_p50_s": None,
            "latency_p90_s": None,
            "latency_p99_s": None,
            "latency_max_s": None,
        }
        if self._latencies:
            timing["latency_mean_s"] = round(
                sum(self._latencies) / len(self._latencies), 9)
            for q, name in _PERCENTILES:
                timing[f"latency_{name}_s"] = round(
                    quantile(self._latencies, q), 9)
            timing["latency_max_s"] = round(max(self._latencies), 9)
        per_point: dict[str, dict[str, Any]] = {}
        for label, slot in self._per_point.items():
            entry: dict[str, Any] = {
                "trials": slot["trials"],
                "successes": slot["successes"],
                "success_rate": round(slot["successes"] / slot["trials"], 9),
            }
            for q, name in _PERCENTILES:
                entry[f"steps_{name}"] = (
                    round(quantile(slot["steps"], q), 6)
                    if slot["steps"] else None)
            # Async-engine extras, present only when the point actually
            # ran in the core's async mode (sync sweeps are unchanged).
            if slot.get("async_stretch"):
                for q, name in _PERCENTILES:
                    entry[f"async_stretch_{name}"] = round(
                        quantile(slot["async_stretch"], q), 6)
            for key in ("async_delivered", "async_dropped",
                        "async_reordered"):
                if key in slot:
                    entry[key] = slot[key]
            if "async_limited" in slot:
                entry["async_termination_rate"] = round(
                    1.0 - slot["async_limited"] / slot["trials"], 9)
            per_point[label] = entry
        events: dict[str, Any] = {
            "trials": self._events,
            "fresh": self._fresh,
            "resumed": self._resumed,
            "failures": self._events - self._successes,
            "batch_occupancy_mean": (
                round(sum(self._batch_sizes) / len(self._batch_sizes), 6)
                if self._batch_sizes else None),
            "batch_occupancy_max": (max(self._batch_sizes)
                                    if self._batch_sizes else None),
        }
        kpis: dict[str, Any] = {
            "trials": self._events,
            "fresh": self._fresh,
            "resumed": self._resumed,
            "success_rate": (round(self._successes / self._events, 9)
                             if self._events else 0.0),
            "per_point": per_point,
        }
        return {
            "schema": METRICS_SCHEMA_NAME,
            "schema_version": METRICS_SCHEMA_VERSION,
            "context": dict(context or {}),
            "run": {"workers": self._workers, **self._run_info},
            "sampled": {
                "interval_s": self.sample_interval_s,
                "samples": list(self.samples),
            },
            "events": events,
            "kpis": kpis,
            "timing": timing,
        }

    def report(self, context: Mapping[str, Any] | None = None) -> str:
        """The human-readable end-of-sweep KPI summary (multi-line)."""
        p = self.payload(context)
        ev, tm, kp = p["events"], p["timing"], p["kpis"]

        def ms(value):
            return "-" if value is None else f"{value * 1e3:.2f}"

        lines = [
            f"== sweep metrics (schema v{p['schema_version']}) ==",
            f"trials      {ev['trials']} "
            f"(fresh {ev['fresh']}, resumed {ev['resumed']}, "
            f"failures {ev['failures']})",
            f"wall clock  {tm['wall_s']:.3f} s",
            f"throughput  {tm['trials_per_sec']:.2f} trials/sec "
            f"({tm['fresh_per_sec']:.2f} fresh)",
            f"latency ms  mean {ms(tm['latency_mean_s'])}  "
            f"p50 {ms(tm['latency_p50_s'])}  p90 {ms(tm['latency_p90_s'])}  "
            f"p99 {ms(tm['latency_p99_s'])}  max {ms(tm['latency_max_s'])}",
            f"success     {kp['success_rate']:.1%} overall",
        ]
        for label, entry in kp["per_point"].items():
            steps = ("" if entry["steps_p50"] is None else
                     f"  steps p50/p90/p99 {entry['steps_p50']:g}/"
                     f"{entry['steps_p90']:g}/{entry['steps_p99']:g}")
            lines.append(f"  {label:<12} {entry['success_rate']:.1%} "
                         f"of {entry['trials']}{steps}")
        if ev["batch_occupancy_max"] is not None and ev["batch_occupancy_max"] > 1:
            lines.append(f"batching    mean occupancy "
                         f"{ev['batch_occupancy_mean']:g}, "
                         f"max {ev['batch_occupancy_max']}")
        run = p["run"]
        if "chunksize" in run:
            lines.append(f"pool        {run['workers']} workers, "
                         f"chunksize {run['chunksize']}")
        lines.append(f"samples     {len(p['sampled']['samples'])} "
                     f"(interval {p['sampled']['interval_s']:g} s)")
        return "\n".join(lines)


def validate_metrics_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Check a metrics payload's schema tag/version and sections.

    Returns the payload as a plain dict on success; raises
    :class:`ValueError` with a precise message otherwise.  This is the
    read-side half of the versioned-schema contract: bump
    :data:`METRICS_SCHEMA_VERSION` on layout changes and extend this
    validator with the migration rules.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"metrics payload must be a mapping, "
                         f"got {type(payload).__name__}")
    if payload.get("schema") != METRICS_SCHEMA_NAME:
        raise ValueError(f"not a metrics payload: schema tag "
                         f"{payload.get('schema')!r} != "
                         f"{METRICS_SCHEMA_NAME!r}")
    version = payload.get("schema_version")
    if version != METRICS_SCHEMA_VERSION:
        raise ValueError(f"unsupported metrics schema version {version!r} "
                         f"(this build reads v{METRICS_SCHEMA_VERSION})")
    missing = [key for key in ("sampled", "events", "kpis", "timing")
               if key not in payload]
    if missing:
        raise ValueError(f"metrics payload missing sections: {missing}")
    return dict(payload)
