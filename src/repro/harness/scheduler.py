"""Pluggable trial scheduling for the parallel runner.

A *scheduler* decides how the runner's pending trial groups flow
through a worker pool and in what order their results surface.  The
runner (:class:`~repro.harness.runner.ParallelTrialRunner`) owns seed
derivation, resume, store writes, result assembly, and the cut into
groups (:data:`~repro.harness.runner.Group`, one trial each unless
batching is on); the scheduler owns only the pool loop, so schedulers
can never change *what* is computed — only when each result arrives.
Every worker task is :func:`~repro.harness.runner.run_group`, the same
function the serial runner calls in-process.

Two schedulers ship.  They share :meth:`TrialScheduler.execute` and
differ only in two class attributes:

``ordered`` (:class:`OrderedScheduler`)
    Results surface in submission order (``imap``) — the store
    receives the same records in the same order as a serial run, so a
    :class:`~repro.harness.store.JsonlStore` file is byte-identical to
    the serial one (up to ``elapsed_s``).  Head-of-line blocking: a
    slow chunk at the front delays everything behind it.

``work-stealing`` (:class:`WorkStealingScheduler`)
    Results surface in completion order (``imap_unordered``) — idle
    workers pull the next chunk as soon as they finish, so skewed
    grids (n=256 points next to n=8192 points) no longer serialise
    behind head-of-line chunks.  The store then acts as a
    *write-ahead completion log*: records land in completion order
    and are re-canonicalised into deterministic order at load or
    aggregate time (:func:`repro.harness.store.canonical_order`).
    The runner's returned list is always in schedule order either
    way, and the *set* of canonical records is identical to an
    ordered run's.

Both pack groups into chunks per worker IPC message.  Work stealing
targets more, smaller chunks (~16 per worker vs ~4) because chunks
are also the stealing granularity: one mega-chunk of slow trials on
one worker is exactly the skew the scheduler exists to avoid.

A new scheduler subclasses :class:`TrialScheduler`, sets ``name``,
``ordered`` and ``chunks_per_worker``, and registers in
:data:`SCHEDULERS`; the CLI's ``--schedule`` choices and
:func:`resolve_scheduler` stay in sync automatically.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.harness.runner import Group, Trial, run_group

__all__ = [
    "TrialScheduler",
    "OrderedScheduler",
    "WorkStealingScheduler",
    "SCHEDULERS",
    "resolve_scheduler",
]


class TrialScheduler:
    """How pending trial groups are dispatched over a worker pool.

    :meth:`execute` runs every group exactly once and calls
    ``emit(slot, trial)`` as each result becomes available.  ``emit``
    is invoked in the parent process (it appends to the store and fires
    the progress callback), so a scheduler's emission order *is* its
    store-write order.  A scheduler is two class attributes:
    ``ordered`` (consume completions in submission order or as they
    land) and ``chunks_per_worker`` (the chunk count
    :meth:`auto_chunksize` aims for).
    """

    #: Registry/CLI name; subclasses override.
    name = "abstract"
    #: ``imap`` (submission order) when true, else ``imap_unordered``.
    ordered = True
    #: Chunks per worker that :meth:`auto_chunksize` targets.
    chunks_per_worker = 4

    def execute(self, ctx, fn: Callable[[dict, int], Any],
                groups: list[Group], *, workers: int, chunksize: int,
                emit: Callable[[int, Trial], None],
                batch_fn: Callable[[dict, list[int]], Any] | None = None,
                metrics=None) -> None:
        """Run ``groups`` on a ``ctx.Pool(workers)``, emitting results.

        ``metrics`` is the runner's optional
        :class:`~repro.harness.metrics.MetricsCollector`: schedulers
        annotate it with the realised pool shape (scheduler name,
        worker count, chunk size) before the loop starts.  Per-trial
        event metrics flow through ``emit`` — since the scheduler's
        emission order *is* the observation order, the collector's
        sampled queue-depth series reflects submission-order drain
        under ``ordered`` and true completion-order drain under
        ``work-stealing``.
        """
        if metrics is not None:
            metrics.annotate_pool(scheduler=self.name, workers=workers,
                                  chunksize=chunksize)
        with ctx.Pool(processes=workers, initializer=_pool_initializer,
                      initargs=(fn, batch_fn)) as pool:
            imap = pool.imap if self.ordered else pool.imap_unordered
            for first, trials in imap(_pool_group, groups,
                                      chunksize=chunksize):
                for offset, trial in enumerate(trials):
                    emit(first + offset, trial)

    @classmethod
    def auto_chunksize(cls, pending: int, workers: int) -> int:
        """Chunk size balancing IPC amortisation against load balance.

        Aim for ``chunks_per_worker`` chunks per worker (at the default
        4, a straggler chunk costs at most ~1/4 of a worker's share),
        capped at 64 groups per message to bound per-chunk latency for
        slow trial functions.
        """
        return max(1, min(64, -(-pending // (cls.chunks_per_worker
                                             * workers))))


class OrderedScheduler(TrialScheduler):
    """Submission-order completion — the byte-identical store path.

    ``imap`` keeps emissions in submission order — the same order the
    serial runner writes — however groups are cut into chunks.
    """

    name = "ordered"


class WorkStealingScheduler(TrialScheduler):
    """Completion-order results: idle workers steal the next chunk.

    ``imap_unordered`` hands each finished chunk back immediately, so
    no worker idles behind a straggler at the head of the line.  The
    cost is a nondeterministic store-write order; determinism is
    restored at read time via canonical ordering (the runner's return
    value is already in schedule order).  Chunks are finer (~16 per
    worker) because they are the stealing unit.
    """

    name = "work-stealing"
    ordered = False
    chunks_per_worker = 16


#: ``--schedule`` name -> scheduler class.
SCHEDULERS: dict[str, type[TrialScheduler]] = {
    OrderedScheduler.name: OrderedScheduler,
    WorkStealingScheduler.name: WorkStealingScheduler,
}


def resolve_scheduler(schedule) -> TrialScheduler:
    """A scheduler instance from a name, class, or instance."""
    if isinstance(schedule, TrialScheduler):
        return schedule
    if isinstance(schedule, type) and issubclass(schedule, TrialScheduler):
        return schedule()
    try:
        return SCHEDULERS[schedule]()
    except KeyError:
        raise ValueError(
            f"unknown schedule {schedule!r}; choose from "
            f"{sorted(SCHEDULERS)}") from None


#: The per-worker ``(fn, batch_fn)``, installed once by the pool
#: initializer so each task message carries only its group.
_worker_fns: tuple = (None, None)


def _pool_initializer(fn: Callable[[dict, int], Any],
                      batch_fn: Callable[[dict, list[int]], Any] | None
                      ) -> None:
    global _worker_fns
    _worker_fns = (fn, batch_fn)


def _pool_group(group: Group) -> tuple[int, list[Trial]]:
    """The pool's task: :func:`run_group` keyed by the group's first slot."""
    return group[0], run_group(*_worker_fns, group)
