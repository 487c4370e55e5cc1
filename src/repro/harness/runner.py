"""Trial execution with deterministic seed derivation.

A *trial* is one invocation of a user function on one grid point with
one seed.  The runner derives seeds with ``numpy``'s ``SeedSequence``
from (master seed, point index, trial index), so

* reruns reproduce bit-for-bit,
* adding trials never changes earlier trials' seeds, and
* no two trials share a stream even across grid points.

The trial function receives ``(point, seed)`` and returns either a
:class:`~repro.engines.results.RunResult` or any mapping with at least
a boolean ``success`` — both are normalised into :class:`Trial`.

Orchestration layers (all optional, all preserving the seed tree):

* **store backends** (:mod:`repro.harness.store`) persist completed
  trials and power resume;
* **worker processes** (:class:`ParallelTrialRunner`) run the pending
  trials on a pool and write them in submission order, so the store
  is byte-identical to a serial run's;
* **sharding** (:mod:`repro.harness.sharding`) restricts a runner to a
  deterministic slice of the (point, trial) grid so N hosts can split
  one sweep.

Every run goes through one pipeline: :meth:`TrialRunner._groups` cuts
the pending schedule into :data:`Group` units (one trial each unless
batching is on) and :func:`run_group` runs one — ``fn(point, seed)``,
or ``batch_fn(point, seeds)`` for a whole same-point group — in-process
when serial, as the pool's task when parallel.  Only the *point and
seed list* cross the process boundary: the CLI's batch function
regenerates the graphs inside the worker (via a lazy
:class:`repro.graphs.GnpBatch` for the G(n, p) model), so parallel runs
never pickle materialised graphs, and a resumed sweep regroups
remaining seeds freely without changing any record.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.engines.results import RunResult
from repro.engines.streams import _exact, spawn_states

__all__ = ["Trial", "TrialRunner", "ParallelTrialRunner"]

#: Trial seeds are SeedSequence words reduced modulo ``2**31 - 1``.
_SEED_MODULUS = np.uint64(2**31 - 1)


@dataclass
class Trial:
    """One completed trial.

    ``metrics`` holds whatever numeric fields the trial function
    produced (rounds, messages, steps, ...); ``point`` the grid
    parameters; ``seed`` the derived seed actually used.
    """

    point: dict[str, Any]
    trial_index: int
    seed: int
    success: bool
    metrics: dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def to_json(self) -> dict[str, Any]:
        """A flat JSON-safe dict (used by the store backends)."""
        return {
            "point": self.point,
            "trial_index": self.trial_index,
            "seed": self.seed,
            "success": self.success,
            "metrics": self.metrics,
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Trial":
        return cls(
            point=dict(data["point"]),
            trial_index=int(data["trial_index"]),
            seed=int(data["seed"]),
            success=bool(data["success"]),
            metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
            elapsed_s=float(data.get("elapsed_s", 0.0)),
        )

    def key(self) -> tuple:
        """Identity of this trial for resume de-duplication.

        Also the sort key of the deterministic *canonical order*
        (:func:`repro.harness.store.canonical_order`) that shard
        merges are normalised into.
        """
        return (tuple(sorted(self.point.items())), self.trial_index)

    def canonical_json(self) -> dict[str, Any]:
        """:meth:`to_json` minus wall-clock fields.

        Two runs of the same sweep — serial or parallel, any chunk
        size, any store backend, any shard split, fresh or resumed —
        produce identical canonical records; only ``elapsed_s``
        varies with the machine's load.
        """
        data = self.to_json()
        data.pop("elapsed_s", None)
        return data


def trial_key(point: Mapping[str, Any], trial_index: int) -> tuple:
    """:meth:`Trial.key` for a not-yet-run (point, trial index) pair."""
    return (tuple(sorted(point.items())), trial_index)


#: One unit of work: ``(first slot, point, trial indices, seeds)``.
#: Its trials fill the schedule slots from ``first slot`` on.
Group = tuple[int, dict, tuple[int, ...], tuple[int, ...]]


class TrialRunner:
    """Runs a trial function over grid points x trial indices.

    Parameters
    ----------
    fn:
        ``fn(point, seed) -> RunResult | Mapping``.
    master_seed:
        Root of the seed tree.
    store:
        Optional :class:`~repro.harness.store.TrialStore` backend;
        completed trials are appended as they finish, and trials
        already present in the store are skipped (resume).
    shard:
        Optional :class:`~repro.harness.sharding.ShardSpec` (or
        ``"I/N"`` string / ``(index, count)`` pair) restricting this
        runner to its deterministic slice of the (point, trial) grid.
        Seeds for the pairs it runs are identical to an unsharded run.
    batch_fn:
        Optional batched trial function ``batch_fn(point, seeds) ->
        [raw, ...]`` (one raw result per seed, same normalisation as
        ``fn``'s return).  When set together with ``batch_size > 1``,
        consecutive pending trials that share a grid point are handed
        over as one call to the fast-batch engines.  Seeds, trial
        order, and store records are identical to the unbatched run
        (``elapsed_s`` aside, which the canonical records exclude).
    batch_size:
        Largest group handed to ``batch_fn`` (default 1 = unbatched),
        or a callable ``batch_size(point) -> int`` sizing each grid
        point's groups individually — the auto-batching sweep path
        passes :func:`repro.engines.fast_batch.auto_batch_size` here
        so batch caps track each point's expected edge count.
    metrics:
        Optional :class:`~repro.harness.metrics.MetricsCollector`.
        Composes with ``progress``: the collector's event hook fires
        on exactly the same once-per-returned-trial contract (fresh
        and resumed alike, every code path — serial, batched,
        parallel), tagged with resume status and the batch group size
        the trial ran in.  The runner also drives ``begin``/``finish``
        so sampled time-series and aggregated KPIs cover the whole
        run; reading the results (:meth:`~repro.harness.metrics.
        MetricsCollector.payload` / ``report``) is the caller's job.
    """

    def __init__(self, fn: Callable[[dict, int], Any], *,
                 master_seed: int = 0, store=None, shard=None,
                 batch_fn: Callable[[dict, list[int]], Any] | None = None,
                 batch_size: int | Callable[[dict], int] = 1,
                 metrics=None):
        from repro.harness.sharding import ShardSpec

        self.fn = fn
        self.master_seed = master_seed
        self.store = store
        self.metrics = metrics
        self.shard = ShardSpec.coerce(shard)
        if callable(batch_size):
            self.batch_size: int | Callable[[dict], int] = batch_size
        else:
            if int(batch_size) < 1:
                raise ValueError(f"batch_size must be >= 1, got {batch_size}")
            self.batch_size = int(batch_size)
        self.batch_fn = batch_fn

    def _batching(self) -> bool:
        """Whether the batched code path is active."""
        return self.batch_fn is not None and (
            callable(self.batch_size) or self.batch_size > 1)

    def _batch_cap(self, point: dict) -> int:
        """This point's group-size cap (callable caps floored at 1)."""
        if callable(self.batch_size):
            return max(1, int(self.batch_size(dict(point))))
        return self.batch_size

    def derive_seed(self, point_index: int, trial_index: int) -> int:
        """The deterministic seed for (grid point #, trial #)."""
        seq = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(point_index, trial_index),
        )
        return int(seq.generate_state(1, dtype=np.uint64)[0] % _SEED_MODULUS)

    def _point_seeds(self, point_index: int,
                     trial_indices: list[int]) -> list[int]:
        """:meth:`derive_seed` for each of one grid point's trial indices.

        One vector pass of SeedSequence's pool hash
        (:func:`~repro.engines.streams.spawn_states`) derives them all
        when the master seed is a non-negative int and every trial
        index fits one uint32 word.  That pass is trusted only if its
        first and last seeds equal :meth:`derive_seed`'s; otherwise
        (or with two seeds or fewer) every seed comes from
        :meth:`derive_seed` itself.
        """
        master = self.master_seed
        if (len(trial_indices) > 2 and type(master) is int and master >= 0
                and max(trial_indices) < 2**32):
            words = spawn_states(master, trial_indices,
                                 prefix=(point_index,), words=1)
            seeds = (words[:, 0] % _SEED_MODULUS).tolist()
            if (seeds[0] == self.derive_seed(point_index, trial_indices[0])
                    and seeds[-1] == self.derive_seed(point_index,
                                                      trial_indices[-1])):
                return seeds
        return [self.derive_seed(point_index, t) for t in trial_indices]

    def _plan(self, points, trials: int) -> list[tuple[int, int, dict, Trial | None]]:
        """This runner's schedule: (point #, trial #, point, resumed trial).

        Grid enumeration order, filtered to this runner's shard slice;
        the fourth element is the already-stored trial for resumed
        pairs, ``None`` for pending ones.  A negative ``trials`` is a
        :class:`ValueError`.
        """
        if trials < 0:
            raise ValueError(f"trials must be >= 0, got {trials}")
        done: dict[tuple, Trial] = {}
        if self.store is not None:
            for trial in self.store.load():
                done[trial.key()] = trial
        plan = []
        for point_index, point in enumerate(points):
            for trial_index in range(trials):
                if self.shard is not None and not self.shard.owns(
                        point_index, trial_index, trials):
                    continue
                plan.append((point_index, trial_index, point,
                             done.get(trial_key(point, trial_index))))
        return plan

    def _report(self, trial: Trial,
                progress: Callable[[Trial], None] | None, *,
                resumed: bool = False, batch_size: int = 1) -> None:
        """The single reporting path every runner code path funnels into.

        Fires the metrics event hook and then ``progress``, exactly
        once per returned trial — fresh, resumed, batched, or
        parallel.  Keeping this in one place is what guarantees the
        two observers always agree on the event stream (resumed
        trials in batched paths included).
        """
        if self.metrics is not None:
            self.metrics.record_trial(trial, resumed=resumed,
                                      batch_size=batch_size)
        if progress is not None:
            progress(trial)

    def _metrics_begin(self, plan, *, workers: int = 1) -> None:
        """Open the collector on this run's plan (no-op without one)."""
        if self.metrics is not None:
            pending = sum(1 for *_, existing in plan if existing is None)
            self.metrics.begin(total=len(plan), pending=pending,
                               workers=workers)

    def _metrics_finish(self) -> None:
        if self.metrics is not None:
            self.metrics.finish()

    def _groups(self, plan) -> Iterator[Group]:
        """Cut ``plan``'s pending slots into :data:`Group` units of work.

        Groups have size 1 unless batching is on; then a group ends
        when the grid point changes, at a resumed slot, or when it
        reaches the point's :meth:`_batch_cap`.  Every group covers
        consecutive slots, so a trial's slot is its group's first slot
        plus its offset.  The cut happens here, in the parent process,
        so workers only ever see finished groups, and every pending
        seed of a grid point is derived up front (:meth:`_point_seeds`).
        """
        batching = self._batching()
        pending: dict[int, list[int]] = {}
        for point_index, trial_index, _pt, existing in plan:
            if existing is None:
                pending.setdefault(point_index, []).append(trial_index)
        point_seeds = {point_index: iter(self._point_seeds(point_index, ts))
                       for point_index, ts in pending.items()}
        first, point, cap = 0, None, 1
        indices: list[int] = []
        seeds: list[int] = []
        for slot, (point_index, trial_index, pt, existing) in enumerate(plan):
            if indices and (existing is not None or pt != point
                            or len(indices) >= cap):
                yield first, point, tuple(indices), tuple(seeds)
                indices, seeds = [], []
            if existing is not None:
                continue
            if not indices:
                first, point = slot, pt
                cap = self._batch_cap(pt) if batching else 1
            indices.append(trial_index)
            seeds.append(next(point_seeds[point_index]))
        if indices:
            yield first, point, tuple(indices), tuple(seeds)

    def _emit(self, results: list, slot: int, trial: Trial,
              progress: Callable[[Trial], None] | None,
              batch_size: int) -> None:
        """Place one fresh trial in its slot, store it, and report it."""
        results[slot] = trial
        if self.store is not None:
            self.store.append(trial)
        self._report(trial, progress, batch_size=batch_size)

    def _report_resumed(self, results: list, start: int, stop: int,
                        progress: Callable[[Trial], None] | None) -> None:
        """Report the resumed trials among ``results[start:stop]``."""
        for trial in results[start:stop]:
            if trial is not None:
                self._report(trial, progress, resumed=True)

    def _consume(self, results: list, landed,
                 progress: Callable[[Trial], None] | None) -> None:
        """Store and report each landed ``(first, ran)`` group.

        ``landed`` yields groups in slot order, so reporting the resumed
        trials that sit before each group keeps one event stream for
        the serial and the parallel runner: every slot, in slot order.
        """
        done = 0
        for first, ran in landed:
            self._report_resumed(results, done, first, progress)
            for offset, trial in enumerate(ran):
                self._emit(results, first + offset, trial, progress, len(ran))
            done = first + len(ran)
        self._report_resumed(results, done, len(results), progress)

    def run(self, points, *, trials: int = 1,
            progress: Callable[[Trial], None] | None = None) -> list[Trial]:
        """Execute every owned (point, trial) pair; returns them in order.

        With a store attached, previously recorded trials are loaded
        instead of re-run (their stored metrics are trusted — reruns
        are bit-identical by construction, so this is safe).
        ``progress`` fires exactly once per returned trial, resumed or
        freshly executed alike, in schedule order; the ``metrics``
        event hook fires on the same contract.
        """
        _keep_trial_arrays_on_heap()
        plan = self._plan([dict(p) for p in points], trials)
        self._metrics_begin(plan)
        batch_fn = self.batch_fn if self._batching() else None
        results: list = [existing for *_, existing in plan]
        self._consume(results, ((group[0], run_group(self.fn, batch_fn, group))
                                for group in self._groups(plan)), progress)
        self._metrics_finish()
        return results


class ParallelTrialRunner(TrialRunner):
    """A :class:`TrialRunner` that fans trials out over worker processes.

    Seed derivation, trial ordering, store records, and resume
    behaviour are all identical to the serial runner: seeds come from
    the same ``SeedSequence`` tree keyed by (grid point #, trial #),
    the returned list is in schedule (grid) order, and results are
    consumed in submission order (``Pool.imap``), so a JSONL store
    receives the same records in the same order as a serial run —
    byte-identical up to the wall-clock ``elapsed_s`` field (see
    :meth:`Trial.canonical_json`).

    No worker idles behind a slow trial: each pulls its next chunk of
    groups as soon as it is free, and :func:`_chunksize` cuts about 16
    chunks per worker, so a straggler chunk costs at most ~1/16 of a
    worker's share.  Only the parent's *writes* keep submission order.
    What that gives up is write timing: a record that finishes behind
    a slow head chunk waits in the parent until that chunk lands.  A
    crash loses at most those records, and resuming from the store
    recomputes them bit-identically.

    The trial function and ``batch_fn`` must be picklable (a
    module-level function or class instance), as must their return
    values — true for :class:`~repro.engines.results.RunResult` and
    plain mappings.

    Parameters
    ----------
    jobs:
        Worker process count (at least 1); ``None`` (default) means the
        machine's CPU count.  ``jobs=1`` degrades to the serial code
        path (no pool spawned).
    mp_context:
        ``multiprocessing`` start method.  Defaults to ``"fork"`` on
        Linux (cheap, inherits imports) and the platform default
        elsewhere — macOS lists ``fork`` but defaults to ``spawn``
        because forking a threaded/Accelerate-initialised process is
        unsafe there.
    """

    def __init__(self, fn: Callable[[dict, int], Any], *,
                 master_seed: int = 0, store=None, shard=None,
                 jobs: int | None = None, mp_context: str | None = None,
                 batch_fn: Callable[[dict, list[int]], Any] | None = None,
                 batch_size: int | Callable[[dict], int] = 1,
                 metrics=None):
        super().__init__(fn, master_seed=master_seed, store=store,
                         shard=shard, batch_fn=batch_fn,
                         batch_size=batch_size, metrics=metrics)
        if jobs is not None and int(jobs) < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs) if jobs is not None else (os.cpu_count() or 1)
        if mp_context is None and sys.platform.startswith("linux") \
                and "fork" in multiprocessing.get_all_start_methods():
            mp_context = "fork"
        self.mp_context = mp_context

    def run(self, points, *, trials: int = 1,
            progress: Callable[[Trial], None] | None = None) -> list[Trial]:
        if self.jobs <= 1:
            return super().run(points, trials=trials, progress=progress)
        plan = self._plan([dict(p) for p in points], trials)
        pending = sum(1 for *_, existing in plan if existing is None)
        if pending <= 1:  # nothing worth a pool; serial path resumes
            return super().run(points, trials=trials, progress=progress)

        self._metrics_begin(plan, workers=min(self.jobs, pending))
        results: list = [existing for *_, existing in plan]
        groups = list(self._groups(plan))
        workers = min(self.jobs, len(groups))
        chunksize = _chunksize(len(groups), workers)
        if self.metrics is not None:
            self.metrics.annotate_pool(workers=workers, chunksize=chunksize)
        batch_fn = self.batch_fn if self._batching() else None
        # Forked workers inherit the streams' replication verdict
        # instead of re-running its self-checks in every worker.
        _exact()
        ctx = multiprocessing.get_context(self.mp_context)
        with ctx.Pool(workers, initializer=_pool_initializer,
                      initargs=(self.fn, batch_fn)) as pool:
            self._consume(results, pool.imap(_pool_group, groups,
                                             chunksize=chunksize), progress)
        self._metrics_finish()
        return results


def _chunksize(groups: int, workers: int) -> int:
    """Groups per worker IPC message: ~16 chunks per worker, at most 64.

    Sixteen chunks per worker bound a straggler chunk's cost at ~1/16
    of a worker's share; the cap of 64 groups per message bounds the
    per-chunk latency of slow trial functions.
    """
    return max(1, min(64, -(-groups // (16 * workers))))


#: The per-worker ``(fn, batch_fn)``, installed once by the pool
#: initializer so each task message carries only its group.
_worker_fns: tuple = (None, None)


def _pool_initializer(fn: Callable[[dict, int], Any],
                      batch_fn: Callable[[dict, list[int]], Any] | None
                      ) -> None:
    global _worker_fns
    _keep_trial_arrays_on_heap()
    _worker_fns = (fn, batch_fn)


#: glibc ``mallopt`` parameters (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Freed heap memory is kept up to this much before glibc trims it.
_TRIM_THRESHOLD = 128 << 20
#: glibc's largest mmap threshold on 64-bit hosts: a bigger array is
#: still mapped on its own and unmapped when freed.
_MMAP_THRESHOLD = 32 << 20
#: Whether this process has run :func:`_keep_trial_arrays_on_heap`.
_heap_tuned = False


def _keep_trial_arrays_on_heap() -> bool:
    """Keep freed trial arrays on glibc's heap for the next trial.

    By default glibc maps each large array (its dynamic threshold
    starts at 128 KiB) and unmaps it when freed, and trims the heap
    above 128 KiB of free space, so every trial faults its transient
    arrays in afresh: 757 minor page faults per trial on a dense DHC2
    n = 512 sweep.  Fixed thresholds keep those arrays on the heap
    and reuse them.  Runs once per process; returns whether both
    thresholds were set, and does nothing where glibc's ``mallopt``
    is absent (macOS, musl, Windows).
    """
    global _heap_tuned
    if _heap_tuned:
        return False
    _heap_tuned = True
    import ctypes

    try:
        libc = ctypes.CDLL(None)
        libc.gnu_get_libc_version  # glibc only
        mallopt = libc.mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


def _pool_group(group: Group) -> tuple[int, list[Trial]]:
    """The pool's task: :func:`run_group` keyed by the group's first slot."""
    return group[0], run_group(*_worker_fns, group)


def run_group(fn: Callable[[dict, int], Any],
              batch_fn: Callable[[dict, list[int]], Any] | None,
              group: Group) -> list[Trial]:
    """Run one :data:`Group` and normalise its results into trials.

    With ``batch_fn`` the whole group goes to it in one call (groups of
    one included) and each trial's ``elapsed_s`` is the call time
    divided by the group size; without it the group holds one trial,
    run by ``fn``, whose ``elapsed_s`` is the call time.  The serial
    runner calls this in-process; the worker pool runs it as its task.
    """
    _first, point, trial_indices, seeds = group
    start = time.perf_counter()
    if batch_fn is None:
        raws = [fn(dict(point), seeds[0])]
    else:
        raws = batch_fn(dict(point), list(seeds))
    per = (time.perf_counter() - start) / len(seeds)
    if len(raws) != len(seeds):
        raise ValueError(
            f"batch_fn returned {len(raws)} results for {len(seeds)} seeds")
    return [_normalize(raw, dict(point), trial_index, seed, per)
            for trial_index, seed, raw in zip(trial_indices, seeds, raws)]


def _normalize(raw: Any, point: dict, trial_index: int, seed: int,
               elapsed: float) -> Trial:
    if isinstance(raw, RunResult):
        metrics = {
            "rounds": float(raw.rounds),
            "messages": float(raw.messages),
            "bits": float(raw.bits),
            "steps": float(raw.steps),
        }
        # Async-engine runs carry event-level counters (virtual time,
        # delivered/dropped/reordered, stretch) in detail["async"];
        # fold the numeric ones in under an "async_" prefix so stores
        # and the metrics sidecar see them like any other metric.
        for key, value in (raw.detail.get("async") or {}).items():
            if isinstance(value, (int, float)):
                metrics[f"async_{key}"] = float(value)
        return Trial(point=point, trial_index=trial_index, seed=seed,
                     success=raw.success, metrics=metrics, elapsed_s=elapsed)
    if isinstance(raw, Mapping):
        if "success" not in raw:
            raise ValueError("trial mapping must contain a 'success' key")
        metrics = {k: float(v) for k, v in raw.items()
                   if k != "success" and isinstance(v, (int, float))}
        return Trial(point=point, trial_index=trial_index, seed=seed,
                     success=bool(raw["success"]), metrics=metrics,
                     elapsed_s=elapsed)
    raise TypeError(
        f"trial function must return RunResult or a mapping, got {type(raw)}")
