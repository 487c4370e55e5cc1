"""One ``repro sweep`` over the benchmark's grid, outcomes captured.

:func:`run_sweep` assembles the runner exactly as ``repro sweep``
does (``repro.cli``'s trial callables, batch caps, store and metrics
collector, serial or ``--jobs`` runner) for a single grid point, which
the CLI itself refuses (it wants two sizes for its power-law fit), and
times it.  The trial callables are wrapped so every returned cycle is
kept for the correctness gate, which re-verifies it outside the timed
region, and so every unit of work is timed between host samples (see
:mod:`perfbench.calibrate`).
"""

from __future__ import annotations

import functools
import os
import struct
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from perfbench.calibrate import Calibrator, HostClock
from perfbench.ledger import Tracer, patch, unpatch
from perfbench.workloads import Grid, Workload, nproc

__all__ = ["Capture", "CapturedTrial", "SweepRun", "run_sweep"]


class Capture:
    """Each trial's ``(success, cycle)`` and the timing of the unit of
    work (one trial, or one batch call) that produced it, keyed by the
    trial's derived seed, plus the host samples taken between units.

    In the benchmark process all of it stays in memory.  A ``--jobs``
    worker cannot hand it back through the harness (it ships only the
    normalised record), so it appends binary records to files of its
    own that :meth:`collect` reads back.
    """

    # seed, success, cycle length (-1: none), unit size, unit start, stop
    _HEAD = struct.Struct("<qbiidd")
    _SAMPLE = struct.Struct("<dd")  # kernel pass begin, end

    def __init__(self, directory: Path, clock: HostClock):
        self.directory = Path(directory)
        self.owner = os.getpid()
        self.clock = clock
        self.outcomes: dict[int, tuple[bool, list[int] | None]] = {}
        #: seed -> (pid, unit start, unit stop, trials in the unit)
        self.units: dict[int, tuple[int, float, float, int]] = {}
        #: pid -> host samples, in time order
        self.samples: dict[int, list[tuple[float, float]]] = {}
        self._fds: dict[str, int] = {}
        self._fds_pid = 0

    def _append(self, stem: str, data: bytes) -> None:
        """Append to this worker's ``stem`` file (kept open until exit)."""
        pid = os.getpid()
        if self._fds_pid != pid:
            self._fds, self._fds_pid = {}, pid
        fd = self._fds.get(stem)
        if fd is None:
            path = self.directory / f"{stem}-{pid}.bin"
            fd = self._fds[stem] = os.open(
                path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        os.write(fd, data)

    def tick(self) -> None:
        """Take a host sample if one is due (see :class:`HostClock`)."""
        sample = self.clock.tick()
        if sample is not None and os.getpid() != self.owner:
            self._append("samples", self._SAMPLE.pack(*sample))

    def put(self, seeds: list[int], results: list, start: float,
            stop: float) -> None:
        """Record one unit: its trials' outcomes and when it ran."""
        pid = os.getpid()
        if pid == self.owner:
            for seed, result in zip(seeds, results):
                self.outcomes[seed] = (bool(result.success), result.cycle)
                self.units[seed] = (pid, start, stop, len(seeds))
            return
        chunks = []
        for seed, result in zip(seeds, results):
            cycle = result.cycle
            chunks.append(self._HEAD.pack(
                seed, bool(result.success), -1 if cycle is None else len(cycle),
                len(seeds), start, stop))
            if cycle is not None:
                chunks.append(array("i", cycle).tobytes())
        self._append("outcomes", b"".join(chunks))

    def collect(self) -> None:
        """Fold the workers' files in (and remove them)."""
        self.samples[self.owner] = list(self.clock.samples)
        size = self._HEAD.size
        for path in sorted(self.directory.glob("outcomes-*.bin")):
            pid = int(path.stem.split("-")[1])
            data = path.read_bytes()
            at = 0
            while at < len(data):
                seed, success, length, group, start, stop = \
                    self._HEAD.unpack_from(data, at)
                at += size
                cycle = None
                if length >= 0:
                    cycle = array("i", data[at:at + 4 * length]).tolist()
                    at += 4 * length
                self.outcomes[seed] = (bool(success), cycle)
                self.units[seed] = (pid, start, stop, group)
            path.unlink()
        for path in sorted(self.directory.glob("samples-*.bin")):
            pid = int(path.stem.split("-")[1])
            self.samples[pid] = sorted(
                self._SAMPLE.iter_unpack(path.read_bytes()))
            path.unlink()


#: Calls inside a unit of work before which a due host sample is taken,
#: so that a long unit (a batch pass) is rescaled piece by piece.  Only
#: untraced sweeps take them, so spans never include a sample.  A
#: target the program no longer has is skipped.
SAMPLE_POINTS = (
    ("repro.graphs.gnp", "gnp_random_graph"),
    ("repro.graphs.batch_gnp", "batch_gnp"),
    ("repro.engines.arraywalk", "build_array_tree"),
    ("repro.engines.batchwalk", "build_batch_tree"),
    ("repro.engines.fast_dhc2", "_phase2"),
    ("repro.verify.hamiltonicity", "verify_cycle"),
)
SAMPLE_METHODS = (
    ("repro.graphs.adjacency", "Graph", "from_sorted_pairs"),
    ("repro.graphs.batch_gnp", "GnpBatch", "stacked"),
    ("repro.engines.arraywalk", "ArrayWalk", "run"),
    ("repro.engines.batchwalk", "BatchWalk", "run"),
    ("repro.engines.batchwalk", "BatchWalk", "cycle"),
    ("repro.congest.network", "Network", "run"),
)

#: The capture whose clock the sample points tick (None: no sweep).
_ACTIVE: list[Capture | None] = [None]


def _sampled(fn):
    @functools.wraps(fn)
    def sampled(*args, **kwargs):
        capture = _ACTIVE[0]
        if capture is not None:
            capture.tick()
        return fn(*args, **kwargs)
    return sampled


class CapturedTrial:
    """A ``repro.cli`` sweep callable that records what it returns.

    Wraps ``_SweepTrial`` (``(point, seed)``) and ``_SweepTrialBatch``
    (``(point, seeds)``) alike; picklable when its parts are.  The
    inner call is the unit of work it times; host samples are taken
    outside it.
    """

    def __init__(self, inner, capture: Capture, tracer: Tracer | None = None):
        self.inner = inner
        self.capture = capture
        self.tracer = tracer

    def __call__(self, point: dict, seed):
        capture = self.capture
        capture.tick()
        start = time.perf_counter()
        raw = self.inner(point, seed)
        stop = time.perf_counter()
        if isinstance(raw, list):
            capture.put(list(seed), raw, start, stop)
        else:
            capture.put([seed], [raw], start, stop)
        capture.tick()
        if self.tracer is not None:
            self.tracer.flush()
        return raw


@dataclass
class SweepRun:
    """One timed sweep: its records, wall time and side effects.

    ``units`` and ``samples`` are :class:`Capture`'s: when each trial's
    unit of work ran, in which process, and the host samples taken
    there.  ``wall_s`` includes the time spent sampling.
    """

    trials: list
    wall_s: float
    workers: int
    store_bytes: int
    outcomes: dict[int, tuple[bool, list[int] | None]]
    units: dict[int, tuple[int, float, float, int]]
    samples: dict[int, list[tuple[float, float]]]


def run_sweep(workload: Workload, grid: Grid, workdir: Path, *,
              tracer: Tracer | None = None,
              calibrator: Calibrator | None = None) -> SweepRun:
    """Run ``grid`` through the ``repro sweep`` runner stack once."""
    from repro import cli
    from repro.harness import (
        JsonlStore,
        MetricsCollector,
        ParallelTrialRunner,
        TrialRunner,
    )

    w = workload
    if w.jobs > nproc():
        raise ValueError(f"refusing --jobs {w.jobs} above nproc={nproc()}")
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    capture = Capture(workdir, HostClock(calibrator))
    trial_fn = CapturedTrial(
        cli._SweepTrial(w.algorithm, w.engine, w.delta, w.c, "gnp"),
        capture, tracer)
    kwargs: dict = {"master_seed": grid.master_seed}
    if w.batched:
        kwargs["batch_fn"] = CapturedTrial(
            cli._SweepTrialBatch(w.algorithm, w.engine, w.delta, w.c, "gnp"),
            capture, tracer)
        kwargs["batch_size"] = cli._AutoBatchSize(w.delta, w.c)
    store = collector = None
    if w.store:
        store = JsonlStore(workdir / "sweep.jsonl")
        store.clear()  # a fresh sweep, never a resume
        collector = MetricsCollector()
        if tracer is not None:
            tracer.wrap_instance(store, ("append",), "harness.store_append")
            tracer.wrap_instance(store, ("write_metrics",), "harness.metrics")
            tracer.wrap_instance(collector, (
                "begin", "annotate_pool", "record_trial", "finish",
                "payload", "report"), "harness.metrics")
        kwargs.update(store=store, metrics=collector)
    if w.jobs > 1:
        runner = ParallelTrialRunner(trial_fn, jobs=w.jobs, **kwargs)
    else:
        runner = TrialRunner(trial_fn, **kwargs)

    undo = []
    if tracer is None:
        _ACTIVE[0] = capture
        undo = patch([(module, attr, _sampled)
                      for module, attr in SAMPLE_POINTS],
                     [(module, cls, attr, _sampled)
                      for module, cls, attr in SAMPLE_METHODS], strict=False)
    start = time.perf_counter()
    try:
        trials = runner.run(grid.points(), trials=grid.trials)
    finally:
        unpatch(undo)
        _ACTIVE[0] = None
    if collector is not None:
        # What `repro sweep --metrics --store` does after the run.
        context = {"algorithm": w.algorithm, "engine": w.engine,
                   "sizes": [w.n], "trials": grid.trials,
                   "master_seed": grid.master_seed, "jobs": w.jobs,
                   "schedule": "ordered" if w.jobs > 1 else "serial"}
        payload = collector.payload(context)
        collector.report(context)
        store.write_metrics(payload)
    wall = time.perf_counter() - start

    store_bytes = store.path.stat().st_size if store is not None else 0
    capture.collect()
    return SweepRun(trials=trials, wall_s=wall, workers=w.jobs,
                    store_bytes=store_bytes, outcomes=capture.outcomes,
                    units=capture.units, samples=capture.samples)
