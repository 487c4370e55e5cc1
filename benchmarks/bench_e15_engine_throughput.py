"""E15 — engine throughput: fast-py vs fast (array kernel) vs congest.

Measures trials/sec for the step-level engines and the message-level
simulator across the sweep sizes, and writes the series to
``benchmarks/BENCH_engine_throughput.json`` so future PRs have a
performance trajectory to compare against.

``fast-py`` is no longer a registered engine (retired after its
deprecation release); its walkers live in ``tests/oracles.py`` as the
parity suite's oracles, and this benchmark times them by importing
that module (run it from the repository root, as for
``benchmarks.conftest``) so the trajectory series keeps its
historical key.

Checks (shape, not absolute numbers):

* the array kernel beats the pure-Python walker at every size;
* at n=1024 the rotation-walk engine (DRA) clears the >= 5x bar the
  array-native refactor was accepted on.

Environment knobs (the CI perf-smoke step runs ``E15_SIZES=256``):

* ``E15_SIZES`` — comma-separated node counts (default 256,1024,4096);
* ``E15_CONGEST_MAX`` — largest n the congest engine is timed at
  (default 256: it is ~3 orders of magnitude off the kernel's pace);
* ``E15_DHC2_MAX`` — largest n DHC2 is timed at (default 1024: the
  pure-Python oracle needs tens of seconds per trial above that);
* ``E15_OUT`` — also write the run's payload to this path (used by the
  CI smoke step to feed the advisory ``check_bench`` comparison; the
  committed baseline is still only rewritten on a full sweep).

Points skipped by those caps are reported in the table (no silent
truncation) and recorded as ``null`` in the JSON.

A ``metrics_lane`` section measures the observability layer itself
(:class:`repro.harness.metrics.MetricsCollector`): the same short
harness sweep timed with and without a collector attached, in many
adjacent pairs (``overhead_fraction`` is the median per-pair
metered/bare ratio minus one), a per-event microcost, and one longer
metered sweep's aggregated KPI tails (``latency_p50/p90/p99_s`` — the
percentile fields ``check_bench`` compares as cost-like markers).  The
full-sweep gate asserts the collector costs < 2% of sweep wall-clock —
observability that distorts the sweep it observes would be worse than
none.

With ``E15_SIZES`` overridden (a smoke run) the speedup assertions are
skipped and the JSON is *not* rewritten: short timing windows on
shared runners are too noisy to gate on, and a reduced-size payload
must not clobber the committed full-sweep trajectory.
"""

import json
import math
import os
import time
from pathlib import Path

import repro
from repro.graphs import gnp_random_graph

from benchmarks.conftest import show
from tests.oracles import _dhc2_fast_py, _dra_fast_py

#: The unregistered pure-Python oracles, timed under their old label.
_ORACLES = {"dra": _dra_fast_py, "dhc2": _dhc2_fast_py}

FULL_SWEEP = "E15_SIZES" not in os.environ
SIZES = [int(s) for s in os.environ.get("E15_SIZES", "256,1024,4096").split(",")]
CONGEST_MAX = int(os.environ.get("E15_CONGEST_MAX", "256"))
DHC2_MAX = int(os.environ.get("E15_DHC2_MAX", "1024"))
C = 8.0
OUT_PATH = Path(__file__).resolve().parent / "BENCH_engine_throughput.json"


def _graph(algorithm: str, n: int, seed: int):
    if algorithm == "dra":
        p = min(1.0, C * math.log(n) / n)
    else:  # dhc2: per-colour-class density at k ~ sqrt(n)
        s = max(3, n // max(1, round(n ** 0.5)))
        p = min(1.0, C * math.log(s) / s)
    return gnp_random_graph(n, p, seed=seed)


def _trials_for(engine: str, n: int) -> int:
    if engine == "congest":
        return 1
    if engine == "fast-py" and n >= 4096:
        return 1  # ~10 s/trial; one is enough for a rate
    return 3


def _dispatch(algorithm: str, engine: str, g, seed: int, **kwargs):
    if engine == "fast-py":
        return _ORACLES[algorithm](g, seed=seed, **kwargs)
    return repro.run(g, algorithm, engine=engine, seed=seed, **kwargs)


def _throughput(algorithm: str, engine: str, n: int) -> float:
    trials = _trials_for(engine, n)
    kwargs = {"delta": 0.5} if algorithm == "dhc2" else {}
    graphs = [_graph(algorithm, n, seed=s) for s in range(trials)]
    # Warm up lazy imports / numpy dispatch so the first timed point
    # does not carry one-time costs.
    _dispatch(algorithm, engine, _graph(algorithm, 64, seed=99), 99, **kwargs)
    start = time.perf_counter()
    for seed, g in enumerate(graphs):
        _dispatch(algorithm, engine, g, seed, **kwargs)
    return trials / (time.perf_counter() - start)


def _metrics_sweep_fn(point: dict, seed: int):
    """One harness trial for the metrics-overhead lane (dra on fast)."""
    n = point["n"]
    g = gnp_random_graph(n, min(1.0, C * math.log(n) / n), seed=seed)
    return repro.run(g, "dra", engine="fast", seed=seed)


def _metrics_overhead(pairs: int, kpi_trials_per_point: int) -> dict:
    """Collector cost: the same sweep with and without a MetricsCollector.

    Runs an identical short serial harness sweep (two points, five
    trials each, the same seed tree both ways) as ``pairs`` adjacent
    bare/metered pairs, swapping which side runs first from one pair
    to the next, and takes the *median of the per-pair* metered/bare
    ratios.  Each ratio compares two sweeps of about 20 ms run back to
    back, so a load spike on the shared host moves one pair's ratio,
    and the median over many pairs discards it.  ``overhead_fraction``
    is that median minus one, floored at 0 (the collector cannot speed
    a sweep up; a negative measurement is timing noise).  The
    latency tails in ``kpis`` come from one longer metered sweep of
    ``kpi_trials_per_point`` trials per point, so they rest on enough
    trials to mean something.  A per-event microcost
    (``record_trial`` on a canned trial) is recorded alongside as the
    noise-free lower bound.
    """
    import statistics

    from repro.harness import MetricsCollector, Trial, TrialRunner

    points = [{"n": 96}, {"n": 128}]

    def sweep(trials: int, collector=None) -> float:
        start = time.perf_counter()
        TrialRunner(_metrics_sweep_fn, master_seed=7, metrics=collector).run(
            points, trials=trials)
        return time.perf_counter() - start

    sweep(2)  # warm
    bare_walls, metered_walls, ratios = [], [], []
    for pair in range(pairs):
        if pair % 2:
            metered = sweep(5, MetricsCollector())
            bare = sweep(5)
        else:
            bare = sweep(5)
            metered = sweep(5, MetricsCollector())
        bare_walls.append(bare)
        metered_walls.append(metered)
        ratios.append(metered / bare)
    collector = MetricsCollector()
    sweep(kpi_trials_per_point, collector)
    timing = collector.payload()["timing"]
    kpis = {key: timing[key] for key in (
        "latency_p50_s", "latency_p90_s", "latency_p99_s", "trials_per_sec")}
    # Per-event microcost: the collector's hot path on a canned trial.
    probe = MetricsCollector()
    canned = Trial(point={"n": 128}, trial_index=0, seed=1, success=True,
                   metrics={"steps": 100.0}, elapsed_s=0.01)
    events = 10_000
    start = time.perf_counter()
    for _ in range(events):
        probe.record_trial(canned)
    per_event = (time.perf_counter() - start) / events
    return {
        "trials": len(points) * kpi_trials_per_point,
        "pairs": pairs,
        "bare_seconds": round(statistics.median(bare_walls), 5),
        "metered_seconds": round(statistics.median(metered_walls), 5),
        "overhead_fraction": round(
            max(0.0, statistics.median(ratios) - 1.0), 5),
        "record_event_seconds": round(per_event, 9),
        "kpis": kpis,
    }


def test_e15_engine_throughput(benchmark):
    series: dict[str, dict[str, dict[str, float | None]]] = {}
    rows = []
    for algorithm in ("dra", "dhc2"):
        series[algorithm] = {}
        for engine in ("fast", "fast-py", "congest"):
            series[algorithm][engine] = {}
            for n in SIZES:
                skipped = ((engine == "congest" and n > CONGEST_MAX)
                           or (algorithm == "dhc2" and n > DHC2_MAX))
                tps = None if skipped else _throughput(algorithm, engine, n)
                series[algorithm][engine][str(n)] = tps
                rows.append((algorithm, engine, n,
                             "skipped (cap)" if skipped else round(tps, 3)))
    show("E15: engine throughput (trials/sec)",
         ["algorithm", "engine", "n", "trials/sec"], rows)

    # Metrics lane: the observability layer's own cost.  120 timed
    # pairs and a 200-trial KPI sweep (2 points x 100) in the full
    # run, reduced under smoke.
    metrics_lane = (_metrics_overhead(120, 100) if FULL_SWEEP
                    else _metrics_overhead(20, 15))
    show("E15: metrics collector overhead (dra, fast, serial harness)",
         ["pairs", "bare s", "metered s", "overhead", "per event s"],
         [(metrics_lane["pairs"], metrics_lane["bare_seconds"],
           metrics_lane["metered_seconds"],
           f"{metrics_lane['overhead_fraction']:.2%}",
           metrics_lane["record_event_seconds"])])

    speedups = {}
    for algorithm, by_engine in series.items():
        speedups[algorithm] = {}
        for n in SIZES:
            fast = by_engine["fast"][str(n)]
            slow = by_engine["fast-py"][str(n)]
            if fast is None or slow is None:
                continue
            speedups[algorithm][str(n)] = round(fast / slow, 2)
    print(f"fast vs fast-py speedups: {speedups}")
    if FULL_SWEEP:
        # Timing gates only on the full local sweep — smoke runs on
        # shared CI runners are completion checks, not perf gates.
        for algorithm, by_n in speedups.items():
            for n, ratio in by_n.items():
                # The kernel must never lose to the walker it replaced.
                assert ratio > 1.0, (algorithm, n, ratio)
        # The acceptance bar of the array-native refactor: the
        # rotation-walk engine at the headline sweep size.
        assert speedups["dra"]["1024"] >= 5.0, speedups
        # The observability layer must be effectively free: under 2%
        # of sweep wall-clock with the collector attached.
        assert metrics_lane["overhead_fraction"] < 0.02, metrics_lane

    payload = {
        "experiment": "e15_engine_throughput",
        "sizes": SIZES,
        "c": C,
        "congest_max": CONGEST_MAX,
        "dhc2_max": DHC2_MAX,
        "trials_per_sec": series,
        "speedup_fast_vs_fast_py": speedups,
        "metrics_lane": {
            f"trials_{metrics_lane['trials']}":
                {k: v for k, v in metrics_lane.items() if k != "trials"},
        },
        "metrics_note": (
            "metrics_lane times an identical short serial harness "
            "sweep (dra/fast, 2 points x 5 trials, same seed tree) "
            "bare and with a MetricsCollector attached, in adjacent "
            "pairs whose order alternates; overhead_fraction = the "
            "median per-pair metered/bare ratio - 1, floored at 0. "
            "bare_seconds and metered_seconds are each side's median "
            "pair sweep. record_event_seconds is the per-trial hot-"
            "path microcost. kpis snapshots the aggregated latency "
            "tails of one longer metered sweep — the percentile "
            "fields check_bench compares as cost-like markers. The "
            "section is keyed by that sweep's trial count so a "
            "reduced smoke lane never compares against the full "
            "baseline's distributions. The full-sweep gate asserts "
            "overhead_fraction < 0.02."),
    }
    if FULL_SWEEP:
        OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {OUT_PATH}")
    else:
        print(f"sizes overridden; skipped speedup gates and kept {OUT_PATH}")
    # A smoke run can still export its (reduced) payload for the CI's
    # advisory check_bench comparison against the committed baseline.
    fresh_out = os.environ.get("E15_OUT")
    if fresh_out:
        Path(fresh_out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {fresh_out}")

    benchmark.extra_info["series"] = series
    benchmark.extra_info["speedups"] = speedups
    benchmark.pedantic(_throughput, args=("dra", "fast", min(SIZES)),
                       rounds=1, iterations=1)
