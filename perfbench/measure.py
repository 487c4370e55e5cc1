"""One benchmark run: warm up, time repeated sweeps, gate, summarise.

A run repeats one workload's sweep (same grid, fresh store) until
``seconds`` are spent and reports medians over the repetitions.  Each
unit of work (a trial or a batch call) is rescaled to the reference
host speed sampled by :mod:`perfbench.calibrate` just before and after
it, because the shared host's speed changes faster and further than
any bound worth gating on.
Every repetition must reproduce the first one's canonical records and
cycles; the first one's cycles are re-verified against regenerated
graphs.  With ``trace`` the run alternates untraced and
traced repetitions and reports the per-layer ledger instead of the
end-to-end metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.calibrate import REFERENCE_S, Calibrator, unit_seconds
from perfbench.ledger import LAYER_METRICS, Tracer, layer_metrics
from perfbench.sweep import SweepRun, run_sweep
from perfbench.workloads import Workload, make_grid, warmup_grid

__all__ = ["END_TO_END", "Outcome", "measure", "tail_percentile"]

#: End-to-end metric name -> unit.  BENCHMARK.json's ``end_to_end`` list.
END_TO_END: dict[str, str] = {
    "trials_per_sec": "1/s",
    "trial_p50_s": "s",
    "trial_tail_s": "s",
    "success_rate": "fraction",
    "error_free_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Samples that must lie beyond the ``trial_tail_s`` percentile.
TAIL_BEYOND = 10

#: Upper bound on repetitions of a fast sweep.
MAX_REPS = 200

PROBE = Path(__file__).resolve().parent / "probe_setup.py"
PROBE_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """What one run prints: the result line plus a human report."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    report: list[str] = field(default_factory=list)

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


@dataclass
class Rep:
    """The timings kept from one repetition once it has been checked.

    ``wall_s`` and ``busy_s`` (the summed unit times) are as measured,
    without the time spent sampling the host; ``wall_ref_s`` and
    ``latency_ref`` (per trial, in record order) are at the reference
    host speed.  ``scale`` is the repetition's unit scales averaged
    over its busy time.
    """

    wall_s: float
    wall_ref_s: float
    latency_ref: list[float]
    busy_s: float
    workers: int
    scale: float


def calibrate(run: SweepRun) -> Rep:
    """Rescale ``run`` unit by unit to the reference host speed.

    A trial's latency is its unit's reference time ÷ the trials in the
    unit (the harness's convention for batches).  The sweep wall, less
    the sampling time on its critical path, is scaled by the ratio of
    reference to measured time summed over the units.
    """
    busy = weighted = 0.0
    latency = []
    seen = set()
    for trial in run.trials:
        pid, start, stop, size = run.units[trial.seed]
        measured, reference = unit_seconds(run.samples[pid], start, stop)
        latency.append(reference / size)
        if (pid, start) not in seen:
            seen.add((pid, start))
            busy += measured
            weighted += reference
    kernel = sum(end - begin for samples in run.samples.values()
                 for begin, end in samples)
    wall = run.wall_s - kernel / run.workers
    scale = weighted / busy
    return Rep(wall, wall * scale, latency, busy, run.workers, scale)


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """``(percentile, value, beyond)``: the highest percentile with at
    least ten samples beyond it, i.e. the eleventh-largest value (the
    maximum, with none beyond, when there are too few samples)."""
    ordered = sorted(values, reverse=True)
    if len(ordered) <= TAIL_BEYOND:
        return 100.0, ordered[0], 0
    return (100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered),
            ordered[TAIL_BEYOND], TAIL_BEYOND)


def _canonical(run: SweepRun) -> list[str]:
    return [json.dumps(t.canonical_json(), sort_keys=True) for t in run.trials]


def verify_reference(workload: Workload, run: SweepRun
                     ) -> tuple[set[int], list[str]]:
    """Trials of ``run`` whose outcome fails independent verification.

    A success must come with the cycle the engine returned, and that
    cycle must pass ``verify_cycle`` against the graph regenerated from
    the trial's seed.
    """
    from repro.graphs import paper_probability
    from repro.graphs.gnp import gnp_random_graph
    from repro.verify import CycleViolation, verify_cycle

    p = paper_probability(workload.n, workload.delta, workload.c)
    bad: set[int] = set()
    notes: list[str] = []
    for index, trial in enumerate(run.trials):
        outcome = run.outcomes.get(trial.seed)
        if outcome is None or outcome[0] != trial.success:
            bad.add(index)
            notes.append(f"trial {index}: outcome not captured or disagrees")
            continue
        if not trial.success:
            continue
        graph = gnp_random_graph(trial.point["n"], p, seed=trial.seed)
        try:
            verify_cycle(graph, outcome[1] or [])
        except CycleViolation as exc:
            bad.add(index)
            notes.append(f"trial {index}: claimed cycle fails: {exc}")
    return bad, notes


def compare(reference: SweepRun, expected: list[str], run: SweepRun,
            label: str) -> tuple[set[int], list[str]]:
    """Trials where ``run`` does not reproduce ``reference``."""
    got = _canonical(run)
    if len(got) != len(expected):
        return (set(range(len(expected))),
                [f"{label}: {len(got)} records, expected {len(expected)}"])
    bad = set()
    for index, (a, b) in enumerate(zip(expected, got)):
        seed = reference.trials[index].seed
        if a != b or run.outcomes.get(seed) != reference.outcomes.get(seed):
            bad.add(index)
    return bad, [f"{label}: trial {i} differs" for i in sorted(bad)]


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's (workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds(workload: Workload, probes: int, root: Path,
                  calibrator: Calibrator) -> list[float]:
    """Wall time of ``probes`` fresh interpreters reaching ready-to-run,
    each rescaled by host samples taken just before and after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    cmd = [sys.executable, str(PROBE), workload.algorithm, workload.engine,
           "batched" if workload.batched else "single"]
    times = []
    host = [calibrator.seconds()]
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env,
                                stdout=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout=...) polls in steps of up
        # to 50 ms, which would quantise the measurement.
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        host.append(calibrator.seconds())
        times.append(wall * REFERENCE_S / ((host[-2] + host[-1]) / 2.0))
    return times


def _harness_shares(reps: list[Rep]) -> dict[str, float]:
    """Harness overhead and worker busy share, medians over ``reps``."""
    overhead, busy = [], []
    for rep in reps:
        overhead.append(rep.scale * max(0.0,
                                        rep.wall_s - rep.busy_s / rep.workers))
        busy.append(rep.busy_s / (rep.workers * rep.wall_s))
    return {"overhead_s": statistics.median(overhead),
            "worker_busy_fraction": statistics.median(busy)}


def _wall(reps: list[Rep]) -> float:
    """Median sweep wall time at the reference host speed."""
    return statistics.median(rep.wall_ref_s for rep in reps)


def _mean_spans(samples: list[tuple[dict, dict, float]]
                ) -> tuple[dict, dict]:
    """Span totals (rescaled) and counts per sweep, averaged over sweeps."""
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    for sample_spans, sample_counts, scale in samples:
        for name, (calls, total, own) in sample_spans.items():
            slot = spans.setdefault(name, [0, 0.0, 0.0])
            slot[0] += calls
            slot[1] += total * scale
            slot[2] += own * scale
        for key, value in sample_counts.items():
            counts[key] = counts.get(key, 0) + value
    k = len(samples)
    return ({name: [v / k for v in values] for name, values in spans.items()},
            {key: value / k for key, value in counts.items()})


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path, *, root: Path, probes: int = 5) -> Outcome:
    """One run of ``workload``; see the module docstring."""
    grid = make_grid(workload, seed)
    calibrator = Calibrator()
    run_sweep(workload, warmup_grid(workload, seed), workdir,
              calibrator=calibrator)  # untimed

    reference: SweepRun | None = None
    expected: list[str] = []
    plain: list[Rep] = []
    traced: list[Rep] = []
    traces: list[tuple[dict, dict, float]] = []
    bad: set[int] = set()
    notes: list[str] = []

    def keep(run: SweepRun, reps: list[Rep], label: str) -> float:
        nonlocal reference, expected
        if reference is None:
            reference, expected = run, _canonical(run)
        else:  # check now, keep only timings: memory stays flat
            wrong, why = compare(reference, expected, run, label)
            bad.update(wrong)
            notes.extend(why)
        rep = calibrate(run)
        reps.append(rep)
        return rep.scale

    tracer = Tracer(workdir) if trace else None
    started = time.perf_counter()
    while len(plain) < MAX_REPS:
        gc.collect()  # the last sweep's garbage must not add to peak RSS
        lap = time.perf_counter()
        keep(run_sweep(workload, grid, workdir, calibrator=calibrator), plain,
             f"repetition {len(plain)}")
        if tracer is not None:
            gc.collect()
            tracer.install()
            try:
                run = run_sweep(workload, grid, workdir, tracer=tracer,
                                calibrator=calibrator)
            finally:
                tracer.uninstall()
            spans, counts = tracer.collect()
            scale = keep(run, traced, f"traced repetition {len(traced)}")
            traces.append((spans, counts, scale))
        lap = time.perf_counter() - lap
        if time.perf_counter() - started + lap > seconds:
            break
    peak_rss = _peak_rss_mb()

    wrong, why = verify_reference(workload, reference)
    bad.update(wrong)
    notes[:0] = why
    attempted = grid.trials
    successes = sum(t.success for t in reference.trials)
    digest = hashlib.sha256("\n".join(expected).encode()).hexdigest()
    report = [
        f"workload {workload.name}: seed {seed}, {len(plain)} untraced"
        + (f" + {len(traced)} traced" if traced else "")
        + f" sweeps of {attempted} trials at n={workload.n}",
        f"records sha256 {digest[:16]}, {successes}/{attempted} verified "
        f"successes, {len(bad)} errors",
        "sweep walls (s, as measured, sampling excluded): "
        + " ".join(f"{r.wall_s:.3f}" for r in plain)
        + ("  traced: " + " ".join(f"{r.wall_s:.3f}" for r in traced)
           if traced else ""),
        "host scales (reference / measured): "
        + " ".join(f"{r.scale:.3f}" for r in plain + traced),
        *notes[:10],
    ]

    if tracer is None:
        latency = [statistics.median(rep.latency_ref[i] for rep in plain)
                   for i in range(attempted)]
        pct, tail, beyond = tail_percentile(latency)
        setup = setup_seconds(workload, probes, root, calibrator)
        values = {
            "trials_per_sec": attempted / _wall(plain),
            "trial_p50_s": statistics.median(latency),
            "trial_tail_s": tail,
            "success_rate": successes / attempted,
            "error_free_rate": 1.0 - len(bad) / attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END
        report.append(f"trial_tail_s is p{pct:.4g} of {len(latency)} trials "
                      f"({beyond} beyond it); setup_s is the median of "
                      f"{len(setup)} fresh interpreters")
    else:
        spans, counts = _mean_spans(traces)
        overhead = _wall(traced) / _wall(plain) - 1.0
        values, labels = layer_metrics(
            spans, counts, reference.trials, harness=_harness_shares(plain),
            store_bytes=reference.store_bytes, overhead_fraction=overhead)
        units = LAYER_METRICS
        report.extend(f"  {name:30s} {values[name]:14.6g} {unit:10s} "
                      f"{labels[name]}" for name, unit in units.items())
    return Outcome(correct=not bad, attempted=attempted, failed=len(bad),
                   metrics={name: (values[name], unit)
                            for name, unit in units.items()},
                   report=report)
