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
* ``E15_BATCH_SIZES`` — trial counts per ``fast-batch`` engine pass
  (default 1,32,256), timed for DRA at every size in ``E15_SIZES``;
* ``E15_OUT`` — also write the run's payload to this path (used by the
  CI smoke step to feed the advisory ``check_bench`` comparison; the
  committed baseline is still only rewritten on a full sweep).

The batched lane is timed twice: once with the kernel dispatch forced
off (the ``batch_trials_per_sec`` column — honest even when this
process runs under ``REPRO_JIT=1``), and once through the fused
compiled kernels (``batch_jit_trials_per_sec``).  Without a kernel,
DRA's ``fast-batch`` runs each trial on per-trial ``fast``, so the
first column tracks the paired ``fast`` reference.  On hosts without
numba the jitted column records ``null`` rather than timing the
uncompiled ``*_impl`` loops as if they were compiled — the committed
curve never claims a speedup the host could not measure.

A ``setup_profile`` section measures the generation+stacking share of
one uncompiled ``fast-batch`` call (``setup_fraction``), for per-trial
``gnp_random_graph`` + serial stacking and for the pooled
:func:`repro.graphs.batch_gnp` path that emits the stacked CSR and
twin table directly.  The per-trial route consumes neither stacked
form, so the stacking counts as setup but the call does not reuse it.
Profiled at the mid-grid point (n=1024, batch=64); the pooled global
sort goes memory-bound at the largest stacked point and the
comparison inverts there (see the inline comment at the call site).

A ``metrics_lane`` section measures the observability layer itself
(:class:`repro.harness.metrics.MetricsCollector`): the same harness
sweep timed with and without a collector attached (median of
alternating repeats; ``overhead_fraction`` is the relative wall-clock
cost), a per-event microcost, and the metered run's aggregated KPI
tails (``latency_p50/p90/p99_s`` — the percentile fields
``check_bench`` compares as cost-like markers).  The full-sweep gate
asserts the collector costs < 2% of sweep wall-clock — observability
that distorts the sweep it observes would be worse than none.

Points skipped by those caps are reported in the table (no silent
truncation) and recorded as ``null`` in the JSON.

With ``E15_SIZES`` overridden (a smoke run) the speedup assertions are
skipped and the JSON is *not* rewritten: short timing windows on
shared runners are too noisy to gate on, and a reduced-size payload
must not clobber the committed full-sweep trajectory.
"""

import json
import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import repro
from repro.engines import _jit
from repro.engines.registry import REGISTRY
from repro.graphs import gnp_random_graph

from benchmarks.conftest import show
from tests.oracles import _dhc2_fast_py, _dra_fast_py

#: The unregistered pure-Python oracles, timed under their old label.
_ORACLES = {"dra": _dra_fast_py, "dhc2": _dhc2_fast_py}

FULL_SWEEP = "E15_SIZES" not in os.environ
SIZES = [int(s) for s in os.environ.get("E15_SIZES", "256,1024,4096").split(",")]
CONGEST_MAX = int(os.environ.get("E15_CONGEST_MAX", "256"))
DHC2_MAX = int(os.environ.get("E15_DHC2_MAX", "1024"))
BATCH_SIZES = [int(b) for b in
               os.environ.get("E15_BATCH_SIZES", "1,32,256").split(",")]
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


@contextmanager
def _noop():
    yield


@contextmanager
def _numpy_kernels():
    """Force the uncompiled batch path for one timed lane.

    DRA's ``fast-batch`` then runs each trial on per-trial ``fast``.
    """
    saved = (_jit.walk_kernel, _jit.tree_kernel)
    _jit.walk_kernel = _jit.tree_kernel = None
    try:
        yield
    finally:
        _jit.walk_kernel, _jit.tree_kernel = saved


def _batch_throughput(n: int, batch: int, *, jit: bool = False) -> float:
    """Trials/sec of one ``fast-batch`` engine pass over ``batch`` graphs.

    Graph sampling stays outside the timed window (as in
    :func:`_throughput`); small (n, batch) points repeat the pass to
    widen the timing window.  ``jit=False`` pins the uncompiled route
    (per-trial ``fast``) regardless of ``REPRO_JIT``; ``jit=True``
    times whatever
    :mod:`repro.engines._jit` compiled (callers must check
    ``_jit.ENABLED`` first — the warm-up pass also absorbs numba's
    first-call compilation).
    """
    spec = REGISTRY.resolve("dra", "fast-batch")
    rounds = 3 if n * batch <= 64 * 1024 else 1
    with (_noop() if jit else _numpy_kernels()):
        spec.call_batch([_graph("dra", 64, seed=99)], seeds=[99])  # warm up
        elapsed = 0.0
        for r in range(rounds):
            graphs = [_graph("dra", n, seed=1000 + r * batch + i)
                      for i in range(batch)]
            seeds = [r * batch + i for i in range(batch)]
            start = time.perf_counter()
            spec.call_batch(graphs, seeds=seeds)
            elapsed += time.perf_counter() - start
    return rounds * batch / elapsed


def _setup_profile(n: int, batch: int) -> dict:
    """Generation+stacking share of one uncompiled batch call, both ways.

    ``setup`` is everything before the kernel proper can start: graph
    sampling plus the stacked CSR + twin-table build.  The per-trial
    column measures ``gnp_random_graph`` per seed plus the serial
    ``stack_graph_csrs``/``stacked_edge_twins`` pair; the batched
    column measures ``batch_gnp`` + ``GnpBatch.stacked()`` (one pooled
    build, cached for the subsequent engine pass).  Totals are honest
    end-to-end windows for each path, so the two ``setup_fraction``
    values are directly comparable.
    """
    from repro.engines.batchwalk import stack_graph_csrs, stacked_edge_twins
    from repro.graphs import batch_gnp

    p = min(1.0, C * math.log(n) / n)
    seeds = list(range(batch))
    spec = REGISTRY.resolve("dra", "fast-batch")
    profile: dict = {"point": f"n={n},batch={batch}"}
    with _numpy_kernels():
        spec.call_batch([_graph("dra", 64, seed=99)], seeds=[99])  # warm up
        batch_gnp(64, 0.2, [99]).stacked()  # absorb the one-time self-check
        start = time.perf_counter()
        graphs = [gnp_random_graph(n, p, seed=s) for s in seeds]
        gen_seconds = time.perf_counter() - start
        start = time.perf_counter()
        indptr, indices = stack_graph_csrs(graphs)
        stacked_edge_twins(indptr, indices, batch, n)
        stack_seconds = time.perf_counter() - start
        start = time.perf_counter()
        spec.call_batch(graphs, seeds=seeds)  # per-trial fast
        run_seconds = time.perf_counter() - start
        setup = gen_seconds + stack_seconds
        total = gen_seconds + run_seconds
        profile["per_trial"] = {
            "setup_seconds": round(setup, 5),
            "total_seconds": round(total, 5),
            "setup_fraction": round(setup / total, 4),
        }
        start = time.perf_counter()
        gbatch = batch_gnp(n, p, seeds)
        gbatch.stacked()
        setup = time.perf_counter() - start
        start = time.perf_counter()
        spec.call_batch(gbatch, seeds=seeds)  # materialises each Graph
        run_seconds = time.perf_counter() - start
        total = setup + run_seconds
        profile["batched_gen"] = {
            "setup_seconds": round(setup, 5),
            "total_seconds": round(total, 5),
            "setup_fraction": round(setup / total, 4),
        }
    return profile


def _metrics_sweep_fn(point: dict, seed: int):
    """One harness trial for the metrics-overhead lane (dra on fast)."""
    n = point["n"]
    g = gnp_random_graph(n, min(1.0, C * math.log(n) / n), seed=seed)
    return repro.run(g, "dra", engine="fast", seed=seed)


def _metrics_overhead(trials_per_point: int) -> dict:
    """Collector cost: the same sweep with and without a MetricsCollector.

    Runs an identical serial harness sweep (two points, the same seed
    tree both ways) in alternating bare/metered repeats and compares
    the *medians* of each side's wall clocks — alternation plus the
    median keeps one load spike on the shared host from landing
    entirely on one side of the ratio.  ``overhead_fraction`` is the
    metered/bare ratio minus one, floored at 0 (the collector cannot
    speed a sweep up; a negative measurement is timing noise).  A
    per-event microcost (``record_trial`` on a canned trial) is
    recorded alongside as the noise-free lower bound.
    """
    import statistics

    from repro.harness import MetricsCollector, Trial, TrialRunner

    points = [{"n": 96}, {"n": 128}]
    repeats = 5
    bare_walls, metered_walls = [], []
    kpis: dict = {}
    TrialRunner(_metrics_sweep_fn, master_seed=7).run(points, trials=2)  # warm
    for _ in range(repeats):
        start = time.perf_counter()
        TrialRunner(_metrics_sweep_fn, master_seed=7).run(
            points, trials=trials_per_point)
        bare_walls.append(time.perf_counter() - start)
        collector = MetricsCollector()
        start = time.perf_counter()
        TrialRunner(_metrics_sweep_fn, master_seed=7,
                    metrics=collector).run(points, trials=trials_per_point)
        metered_walls.append(time.perf_counter() - start)
        payload = collector.payload()
        kpis = {
            "latency_p50_s": payload["timing"]["latency_p50_s"],
            "latency_p90_s": payload["timing"]["latency_p90_s"],
            "latency_p99_s": payload["timing"]["latency_p99_s"],
            "trials_per_sec": payload["timing"]["trials_per_sec"],
        }
    bare = statistics.median(bare_walls)
    metered = statistics.median(metered_walls)
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
        "trials": len(points) * trials_per_point,
        "bare_seconds": round(bare, 5),
        "metered_seconds": round(metered, 5),
        "overhead_fraction": round(max(0.0, metered / bare - 1.0), 5),
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

    # Batched lane: DRA through one fast-batch kernel pass per group.
    # Minutes of sustained full-CPU sweep throttle this host measurably
    # between the engine series above and these rows, so each size's
    # speedup divides by a *paired* fast reference measured adjacent to
    # its batch rows — both sides of the ratio see the same CPU state.
    # The absolute engine series above is unchanged; the paired
    # denominators are recorded alongside the ratios.
    batch_series: dict[str, dict[str, float]] = {}
    batch_fast_ref: dict[str, float] = {}
    batch_rows = []
    for n in SIZES:
        batch_series[str(n)] = {}
        batch_fast_ref[str(n)] = serial = _throughput("dra", "fast", n)
        for batch in BATCH_SIZES:
            tps = _batch_throughput(n, batch)
            batch_series[str(n)][str(batch)] = tps
            batch_rows.append((n, batch, round(tps, 3),
                               round(tps / serial, 2)))
    show("E15: batched throughput (dra, fast-batch)",
         ["n", "batch", "trials/sec", "vs fast"], batch_rows)
    batch_speedups = {
        n: {b: round(tps / batch_fast_ref[n], 2)
            for b, tps in by_batch.items()}
        for n, by_batch in batch_series.items()
    }
    print(f"fast-batch vs fast speedups: {batch_speedups}")

    # Jitted lane: the same passes through the fused compiled kernels.
    # Without numba every point records null — the committed curve
    # never claims a compiled speedup the host could not measure.
    jit_series: dict[str, dict[str, float | None]] = {}
    jit_rows = []
    for n in SIZES:
        jit_series[str(n)] = {}
        for batch in BATCH_SIZES:
            tps = (_batch_throughput(n, batch, jit=True)
                   if _jit.ENABLED else None)
            jit_series[str(n)][str(batch)] = tps
            jit_rows.append((n, batch,
                             "skipped (no numba)" if tps is None
                             else round(tps, 3),
                             "-" if tps is None
                             else round(tps / batch_series[str(n)][str(batch)],
                                        2)))
    show("E15: jitted batched throughput (dra, fast-batch, REPRO_JIT)",
         ["n", "batch", "trials/sec", "vs numpy batch"], jit_rows)
    jit_speedups = {
        n: {b: (None if tps is None
                else round(tps / batch_series[n][b], 2))
            for b, tps in by_batch.items()}
        for n, by_batch in jit_series.items()
    }
    print(f"jit vs numpy fast-batch speedups: {jit_speedups}")

    # Setup lane: how much of an uncompiled batch call is generation +
    # stacking, per-trial vs pooled batched generation.  Profiled at
    # the mid-grid point (n=1024, batch=64 — the point the pooled-
    # generation claim was established at): batch_gnp's win is dispatch
    # amortisation of one global sort, and at the largest stacked point
    # (n=4096, batch=256, a ~70M-entry pooled lexsort) that sort goes
    # memory-bound on modest hosts and the profile inverts (observed
    # setup 214.7 s pooled vs 32.4 s per-trial).  The auto-batch edge
    # budget caps real sweeps well below that regime.
    setup_n = 1024 if 1024 in SIZES else SIZES[len(SIZES) // 2]
    setup_batch = min(64, max(BATCH_SIZES))
    setup_profile = _setup_profile(setup_n, setup_batch)
    show(f"E15: setup share (dra, fast-batch uncompiled, n={setup_n}, "
         f"batch={setup_batch})",
         ["generation", "setup s", "total s", "setup fraction"],
         [(mode,
           setup_profile[mode]["setup_seconds"],
           setup_profile[mode]["total_seconds"],
           setup_profile[mode]["setup_fraction"])
          for mode in ("per_trial", "batched_gen")])

    # Metrics lane: the observability layer's own cost.  A 200-trial
    # sweep in the full run (2 points x 100), reduced under smoke.
    metrics_lane = _metrics_overhead(100 if FULL_SWEEP else 15)
    show("E15: metrics collector overhead (dra, fast, serial harness)",
         ["trials", "bare s", "metered s", "overhead", "per event s"],
         [(metrics_lane["trials"], metrics_lane["bare_seconds"],
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
        if _jit.ENABLED:
            # The fused kernel must not lose to the per-trial route it
            # replaces at the headline point (n=max, batch >= 32).
            best_jit = max(v for b, v in jit_speedups[str(max(SIZES))]
                           .items() if v is not None and int(b) >= 32)
            assert best_jit >= 1.0, jit_speedups
        # Batched generation must measurably cut the setup share of
        # the uncompiled batch call — the whole point of batch_gnp.
        assert (setup_profile["batched_gen"]["setup_fraction"]
                < setup_profile["per_trial"]["setup_fraction"]), setup_profile
        # The observability layer must be effectively free: under 2%
        # of sweep wall-clock with the collector attached.
        assert metrics_lane["overhead_fraction"] < 0.02, metrics_lane

    payload = {
        "experiment": "e15_engine_throughput",
        "sizes": SIZES,
        "c": C,
        "congest_max": CONGEST_MAX,
        "dhc2_max": DHC2_MAX,
        "batch_sizes": BATCH_SIZES,
        "trials_per_sec": series,
        "speedup_fast_vs_fast_py": speedups,
        "batch_trials_per_sec": batch_series,
        "batch_fast_ref_trials_per_sec": batch_fast_ref,
        "speedup_fast_batch_vs_fast": batch_speedups,
        "jit_enabled": _jit.ENABLED,
        "batch_jit_trials_per_sec": jit_series,
        "speedup_jit_vs_numpy_batch": jit_speedups,
        "metrics_lane": {
            f"trials_{metrics_lane['trials']}":
                {k: v for k, v in metrics_lane.items() if k != "trials"},
        },
        "metrics_note": (
            "metrics_lane times an identical serial harness sweep "
            "(dra/fast, 2 points, same seed tree) bare and with a "
            "MetricsCollector attached, alternating repeats, medians "
            "on both sides; overhead_fraction = metered/bare - 1 "
            "floored at 0. record_event_seconds is the per-trial hot-"
            "path microcost. kpis snapshots the metered run's "
            "aggregated latency tails — the percentile fields "
            "check_bench compares as cost-like markers. The section "
            "is keyed by the lane's trial count so a reduced smoke "
            "lane never compares "
            "against the full baseline's distributions. The full-"
            "sweep gate asserts overhead_fraction < 0.02."),
        "setup_profile": setup_profile,
        "setup_note": (
            "setup_profile measures the generation+stacking share of "
            "one uncompiled fast-batch call at the headline point, "
            "which for DRA runs each trial on per-trial fast. "
            "per_trial = gnp_random_graph per seed + serial "
            "stack_graph_csrs/stacked_edge_twins; batched_gen = "
            "batch_gnp + GnpBatch.stacked() (one pooled keyed-unique "
            "sample, one global lexsort, twins read off the sort "
            "permutation). The per-trial route reads neither stacked "
            "form, and on a GnpBatch it materialises each Graph inside "
            "the call. The full-sweep gate asserts batched_gen's "
            "setup_fraction is strictly below per_trial's."),
        "jit_note": (
            "batch_jit_* columns time the fused numba kernels "
            "(REPRO_JIT=1); null means this host has no numba and the "
            "compiled path was not measured — the numpy columns above "
            "are the fallback every host gets. The CI jit lane runs "
            "the smoke grid compiled and feeds check_bench."),
        "batch_note": (
            "batch_trials_per_sec times DRA fast-batch with the kernel "
            "dispatch forced off. Without a compiled kernel DRA "
            "fast-batch runs each trial on per-trial fast (the numpy "
            "batch-major walk was deleted: it cost ~11.4 us per "
            "lane-step against ArrayWalk's ~4.0 and lost to fast at "
            "every measured point), so speedup_fast_batch_vs_fast "
            "sits near 1.0. Speedups divide by the paired "
            "batch_fast_ref_trials_per_sec reference measured "
            "adjacent to the batch rows: minutes of sustained sweep "
            "throttle a shared host measurably, so same-CPU-state pairing "
            "is what keeps the ratio honest. The reference times "
            "other graphs (seeds 0-2) than the batch rows, so ratios "
            "off 1.0 here reflect graph-to-graph step counts, not the "
            "route. No gate applies to this column; the batch kernel "
            "proper is the jitted column, gated against it."),
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
