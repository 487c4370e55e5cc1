"""Command-line front end: ``repro`` (historical alias ``repro-hc``).

Subcommands
-----------
``run``
    One algorithm on one random graph, dispatched through the engine
    registry, e.g.::

        repro run --algorithm dhc2 --nodes 256 --delta 0.5 --c 6 --seed 1
        repro run --algorithm dhc2 --engine congest --nodes 256
        repro run --algorithm dhc2 --nodes 256 --k-machines 8
        repro run --algorithm levy --nodes 256 --delta 0.25 --json

``sweep``
    Scaling study: run an algorithm over a node-count grid (optionally
    across worker processes, whose records reach the store in the same
    order as a serial run's, with a pluggable store backend, and
    optionally as one shard of a multi-host sweep)::

        repro sweep --algorithm dhc1 --sizes 64,128,256,512 --trials 3
        repro sweep --algorithm dhc2 --sizes 256,512,1024 --jobs 4 \\
            --store sweep.jsonl
        repro sweep --sizes 256,8192 --jobs 8 --store-backend sharded \\
            --store sweep_store/
        repro sweep --sizes 64,128 --shard 0/2 --store-backend sharded \\
            --store sweep_store/          # host 0 of 2; same seed tree

``merge``
    Fuse shard trial stores (from ``--shard``/``--store-backend
    sharded`` sweeps, or any JSONL stores) into one canonical JSONL
    with dedup, conflict, and completeness checks::

        repro merge sweep_store/ --out merged.jsonl --trials 3

``engines``
    List every registered ``(algorithm, engine)`` pair with its
    capabilities.

``graph``
    Generate a graph and report its structure (degrees, connectivity,
    diameter, the paper's thresholds)::

        repro graph --nodes 512 --delta 0.5 --c 4

``bounds``
    Print the paper's predicted bounds for given parameters (round
    budgets, failure probabilities).

Invoked with legacy flags only (no subcommand), ``run`` is assumed.

All algorithm execution goes through :func:`repro.run` /
:data:`repro.engines.registry.REGISTRY`; this module contains no
per-algorithm dispatch of its own.  ``--engine auto`` (the default)
picks the fastest engine that supports the request — e.g. plain runs
use the step-level fast engine where one is registered, while
``--audit-memory`` steers the run onto the message-level congest
simulator, the only engine that can audit per-node state.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from repro.analysis.bounds import (
    diameter_budget,
    dra_step_budget,
    fit_power_law,
    predicted_dhc1_rounds,
    predicted_dhc2_rounds,
    predicted_upcast_rounds,
)
from repro.analysis.concentration import merge_step_failure, partition_size_failure
from repro.engines.fast_batch import auto_batch_size
from repro.engines.registry import REGISTRY
from repro.graphs import (
    GnpBatch,
    degree_statistics,
    diameter,
    diameter_lower_bound,
    gnm_random_graph,
    gnp_random_graph,
    hamiltonicity_threshold,
    is_connected,
    paper_probability,
    random_regular_graph,
)
from repro.harness import (
    STORE_BACKENDS,
    JsonlStore,
    MetricsCollector,
    ParallelTrialRunner,
    ShardedStore,
    ShardSpec,
    TrialRunner,
    make_store,
    merge_stores,
)
from repro.reporting import render_table

__all__ = ["main", "build_parser"]

def _engine_choices() -> list[str]:
    return ["auto", *REGISTRY.engine_names()]


def _parse_network_arg(text: str, *, engine: str) -> str:
    """Validate ``--network JSON|@file`` into the canonical JSON string.

    The value is parsed into a
    :class:`~repro.congest.model.NetworkModel` here — bad documents
    fail before any graph is sampled — and handed to runners as the
    canonical string form (byte-stable and hashable, so sweep points
    carrying it stay store-canonicalisable).  With ``--engine async``
    a document without an explicit ``mode`` defaults to async
    (:func:`~repro.congest.model.async_network_model`).
    """
    from repro.congest.model import NetworkModel, async_network_model

    if text.startswith("@"):
        from pathlib import Path

        try:
            text = Path(text[1:]).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read --network file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--network is not valid JSON: {exc}") from None
    build = async_network_model if engine == "async" else NetworkModel.from_json
    return build(data).canonical()  # ValueError -> exit 2 in main


def _int_at_least(minimum: int, what: str):
    """An argparse type: an integer of at least ``minimum``.

    A bad value exits 2 with argparse's message naming the flag
    (``argument --trials: expected a positive integer, got -1``).
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected {what}, got {value}")
        return value
    return parse


#: ``--seed``'s type: ``SeedSequence`` takes only non-negative integers.
_seed = _int_at_least(0, "a non-negative integer")
#: Trial, job and grid-point counts.
_count = _int_at_least(1, "a positive integer")


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", "-n", type=int, default=256)
    parser.add_argument("--delta", type=float, default=0.5,
                        help="edge probability exponent: p = c ln n / n**delta")
    parser.add_argument("--c", type=float, default=6.0,
                        help="density constant c in p = c ln n / n**delta")
    parser.add_argument("--model", default="gnp",
                        choices=["gnp", "gnm", "regular"],
                        help="random-graph model (gnm/regular match the "
                             "expected edge count of the gnp setting)")
    parser.add_argument("--seed", type=_seed, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hc",
        description="Distributed Hamiltonian cycles in random graphs "
                    "(ICDCS 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one algorithm on one graph")
    _add_graph_arguments(run_p)
    run_p.add_argument("--algorithm", default="dhc2",
                       choices=REGISTRY.algorithms())
    run_p.add_argument("--engine", default="auto", choices=_engine_choices(),
                       help="execution engine (auto = fastest that supports "
                            "the requested options)")
    run_p.add_argument("--k", type=int, default=None,
                       help="partition count override (DHC1/DHC2)")
    run_p.add_argument("--k-machines", type=int, default=None,
                       help="machine count: with --engine kmachine the "
                            "native machine-level engine runs directly; "
                            "otherwise the congest run is re-costed via "
                            "the Conversion Theorem (fully-distributed "
                            "algorithms only)")
    run_p.add_argument("--link-words", type=int, default=None,
                       help="k-machine per-link bandwidth W in words per "
                            "round (native engine and conversion)")
    run_p.add_argument("--audit-memory", action="store_true",
                       help="record per-node peak state (fully-distributed check)")
    run_p.add_argument("--network", default=None, metavar="JSON|@FILE",
                       help="network substrate as a NetworkModel JSON "
                            "document (or @file.json): mode sync|async, "
                            "bandwidth_words, fault_plan, latency, churn, "
                            "seed — e.g. '{\"fault_plan\":{\"drop_"
                            "probability\":0.05}}'; with --engine async an "
                            "omitted mode defaults to async")
    run_p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    sweep_p = sub.add_parser("sweep", help="scaling study over n")
    _add_graph_arguments(sweep_p)
    sweep_p.add_argument("--algorithm", default="dhc2",
                         choices=REGISTRY.algorithms())
    sweep_p.add_argument("--engine", default="auto", choices=_engine_choices(),
                         help="execution engine (auto = fastest available)")
    sweep_p.add_argument("--sizes", default="64,128,256",
                         help="comma-separated node counts")
    sweep_p.add_argument("--trials", type=_count, default=3)
    sweep_p.add_argument("--k-machines", type=int, default=None,
                         help="machine count for --engine kmachine sweeps")
    sweep_p.add_argument("--link-words", type=int, default=None,
                         help="per-link word budget for --engine kmachine "
                              "sweeps")
    sweep_p.add_argument("--jobs", type=_count, default=1,
                         help="worker processes (1 = serial; seeds, "
                              "records and their store order are "
                              "identical either way; batches are split "
                              "across the workers)")
    sweep_p.add_argument("--store", default=None, metavar="PATH",
                         help="trial store for resume: completed trials "
                              "are skipped on rerun (a JSONL file, or a "
                              "directory with --store-backend sharded)")
    sweep_p.add_argument("--store-backend", default="jsonl",
                         choices=sorted(STORE_BACKENDS),
                         help="store backend for --store: jsonl = one "
                              "file; sharded = one lock-free shard file "
                              "per writer under a directory (use with "
                              "--shard); memory = discard (testing)")
    sweep_p.add_argument("--metrics", nargs="?", const="", default=None,
                         metavar="PATH",
                         help="collect sweep observability metrics "
                              "(sampled time-series, per-trial events, "
                              "aggregated KPIs — see docs/OBSERVABILITY"
                              ".md): prints a KPI report to stderr and "
                              "writes the versioned JSON payload to PATH "
                              "(default: a <store>.metrics.json sidecar "
                              "when --store is set, report-only "
                              "otherwise)")
    sweep_p.add_argument("--metrics-interval", type=float, default=1.0,
                         metavar="SECONDS",
                         help="wall-clock spacing of sampled metrics "
                              "snapshots (with --metrics; default 1.0)")
    sweep_p.add_argument("--network", default=None, metavar="JSON|@FILE",
                         help="network substrate for every trial (same "
                              "NetworkModel JSON form as `run --network`); "
                              "recorded in each grid point, so stores and "
                              "resume keys distinguish substrates")
    sweep_p.add_argument("--shard", default=None, metavar="I/N",
                         help="run only this host's deterministic slice "
                              "of the (point, trial) grid (0-based, e.g. "
                              "0/4); seeds are unchanged, so N shards "
                              "against the same master seed cover the "
                              "sweep exactly once — fuse with `repro "
                              "merge`")
    sweep_p.add_argument("--json", action="store_true")

    merge_p = sub.add_parser(
        "merge", help="fuse shard trial stores into one canonical JSONL")
    merge_p.add_argument("sources", nargs="+", metavar="STORE",
                         help="shard stores: sharded-store directories "
                              "and/or JSONL files")
    merge_p.add_argument("--out", required=True, metavar="PATH",
                         help="output JSONL store (rewritten in canonical "
                              "order)")
    merge_p.add_argument("--trials", type=_count, default=None,
                         help="assert every grid point holds exactly this "
                              "many trials")
    merge_p.add_argument("--points", type=_count, default=None,
                         help="assert exactly this many distinct grid "
                              "points appear (with --trials: full joint-"
                              "exhaustiveness check — catches a shard "
                              "store whose points are entirely missing)")
    merge_p.add_argument("--json", action="store_true")

    engines_p = sub.add_parser(
        "engines", help="list registered (algorithm, engine) pairs")
    engines_p.add_argument("--json", action="store_true")

    graph_p = sub.add_parser("graph", help="generate a graph and analyse it")
    _add_graph_arguments(graph_p)
    graph_p.add_argument("--exact-diameter", action="store_true",
                         help="exact diameter (O(n m); default is a bound)")
    graph_p.add_argument("--json", action="store_true")

    bounds_p = sub.add_parser("bounds", help="print the paper's predictions")
    _add_graph_arguments(bounds_p)
    bounds_p.add_argument("--json", action="store_true")

    return parser


def _sample_graph(model: str, n: int, delta: float, c: float, seed: int):
    """One random graph in the paper's parameterisation; returns (graph, p)."""
    p = paper_probability(n, delta, c)
    if model == "gnp":
        return gnp_random_graph(n, p, seed=seed), p
    expected_m = round(p * n * (n - 1) / 2)
    if model == "gnm":
        return gnm_random_graph(n, expected_m, seed=seed), p
    degree = max(3, round(p * (n - 1)))
    if (n * degree) % 2:
        degree += 1
    if degree > n // 2:
        raise ValueError(
            f"a {degree}-regular graph on {n} nodes is denser than the "
            f"pairing model's practical range (degree <= n/2); lower --c "
            f"or raise --delta / --nodes")
    return random_regular_graph(n, degree, seed=seed), p


def _make_graph(args):
    return _sample_graph(args.model, args.nodes, args.delta, args.c, args.seed)


def _cmd_run(args) -> int:
    algorithm, engine = args.algorithm, args.engine
    graph, p = _make_graph(args)

    # Hard requirements (explicitly requested -> must be supported);
    # delta is soft: it parameterises the graph for every algorithm but
    # only some runners consume it, so it is filtered per spec.
    required: dict = {}
    if args.audit_memory:
        required["audit_memory"] = True
    if args.k is not None:
        required["k"] = args.k
    if args.network is not None:
        if args.k_machines is not None and engine != "kmachine":
            print("--network describes the congest/async substrate; the "
                  "k-machine conversion re-costs a synchronous fault-free "
                  "run and does not compose with it", file=sys.stderr)
            return 2
        required["network"] = _parse_network_arg(args.network, engine=engine)

    kmachine_summary = None
    if engine == "kmachine":
        # Native machine-level execution: k-machine knobs are ordinary
        # engine kwargs, validated like any other capability.
        if args.k_machines is not None:
            required["k_machines"] = args.k_machines
        if args.link_words is not None:
            required["link_words"] = args.link_words
        spec = REGISTRY.resolve(algorithm, engine, require=required)
        kwargs = dict(required)
        kwargs.update(spec.filter_kwargs({"delta": args.delta}))
        result = spec.call(graph, seed=args.seed + 1, **kwargs)
        kmachine_summary = result.detail.get("kmachine")
    elif args.k_machines is not None:
        from repro.kmachine import run_converted_hc

        congest_spec = REGISTRY.engines_for(algorithm).get("congest")
        if congest_spec is None or not congest_spec.kmachine_convertible:
            print("--k-machines applies to the fully-distributed CONGEST "
                  f"algorithms ({', '.join(REGISTRY.convertible_algorithms())})",
                  file=sys.stderr)
            return 2
        if engine not in ("auto", "congest"):
            print("--k-machines simulates the congest engine; drop "
                  f"--engine {engine}", file=sys.stderr)
            return 2
        required.pop("audit_memory", None)
        # Same capability validation the non-converted path gets from
        # resolve(): a clean error, not a traceback from deep inside.
        REGISTRY.resolve(algorithm, "congest", require=required)
        kwargs = dict(required)
        kwargs.update(congest_spec.filter_kwargs({"delta": args.delta}))
        if args.link_words is not None:
            kwargs["link_words"] = args.link_words
        result, km = run_converted_hc(
            graph, algorithm=algorithm, k_machines=args.k_machines,
            seed=args.seed + 1, **kwargs)
        kmachine_summary = km.summary()
    else:
        spec = REGISTRY.resolve(algorithm, engine, require=required)
        kwargs = dict(required)
        kwargs.update(spec.filter_kwargs({"delta": args.delta}))
        result = spec.call(graph, seed=args.seed + 1, **kwargs)

    if args.json:
        payload = {
            "algorithm": result.algorithm,
            "n": args.nodes,
            "p": p,
            "m": graph.m,
            "success": result.success,
            "rounds": result.rounds,
            "messages": result.messages,
            "bits": result.bits,
            "steps": result.steps,
            "engine": result.engine,
            "detail": {k: v for k, v in result.detail.items() if k != "state_words"},
        }
        if kmachine_summary is not None:
            payload["kmachine"] = kmachine_summary
        print(json.dumps(payload, indent=2))
    else:
        print(f"graph: {args.model}(n={args.nodes}, p={p:.4f})  m={graph.m}")
        print(result)
        if result.success:
            head = " -> ".join(map(str, result.cycle[:8]))
            print(f"cycle: {head} -> ... (length {len(result.cycle)})")
        if kmachine_summary is not None:
            rows = [[k, v] for k, v in kmachine_summary.items()]
            print(render_table(["k-machine metric", "value"], rows))
    return 0 if result.success else 1


class _SweepTrial:
    """One sweep trial as a picklable callable (``--jobs`` workers).

    Holds only plain parameters; the registry lookup happens inside the
    call, in whichever process runs it.
    """

    def __init__(self, algorithm: str, engine: str, delta: float, c: float,
                 model: str, extra: dict | None = None):
        self.algorithm = algorithm
        self.engine = engine
        self.delta = delta
        self.c = c
        self.model = model
        # Soft options (e.g. k_machines / link_words): filtered per
        # spec, so a mixed-engine sweep never trips on them.
        self.extra = dict(extra or {})

    def _spec(self, point: dict):
        """The resolved engine spec and its call kwargs at ``point``."""
        spec = REGISTRY.resolve(self.algorithm, self.engine)
        kwargs = spec.filter_kwargs({"delta": self.delta, **self.extra})
        if "network" in point:
            # Canonical NetworkModel JSON riding in the grid point
            # (--network sweeps); the engine was pinned to one that
            # declares the kwarg, so spec.call validates it normally.
            kwargs["network"] = point["network"]
        return spec, kwargs

    def __call__(self, point: dict, seed: int):
        graph, _p = _sample_graph(
            self.model, point["n"], self.delta, self.c, seed)
        spec, kwargs = self._spec(point)
        return spec.call(graph, seed=seed, **kwargs)


class _AutoBatchSize:
    """Picklable per-point batch caps for batched sweeps.

    Sizes each grid point's groups from its expected edge density
    (:func:`~repro.engines.fast_batch.auto_batch_size`), so one sweep
    mixes small-n points batched in the hundreds with large-n points
    batched to fit memory.
    """

    def __init__(self, delta: float, c: float):
        self.delta = delta
        self.c = c

    def __call__(self, point: dict) -> int:
        n = int(point["n"])
        return auto_batch_size(n, paper_probability(n, self.delta, self.c))


class _SweepTrialBatch(_SweepTrial):
    """A batch of sweep trials as one picklable engine pass.

    Same parameters and engine kwargs as :class:`_SweepTrial`, but
    called with ``(point, seeds)``: samples one graph per seed and
    hands the whole group to ``spec.call_batch`` — one engine call for
    the group, with per-seed results identical to per-trial calls.
    """

    def __call__(self, point: dict, seeds: list[int]):
        n = int(point["n"])
        if self.model == "gnp":
            # Each trial's graph is sampled as the engine reaches it,
            # seed-for-seed identical to per-trial sampling.  Built
            # without ``batch_gnp``, so a traced sweep counts each
            # trial's edges once, at its ``gnp_random_graph`` call.
            graphs = GnpBatch(n, paper_probability(n, self.delta, self.c),
                              seeds)
        else:
            graphs = [_sample_graph(self.model, n, self.delta, self.c,
                                    seed)[0] for seed in seeds]
        spec, kwargs = self._spec(point)
        return spec.call_batch(graphs, seeds=list(seeds), **kwargs)


def _cmd_sweep(args) -> int:
    algorithm, engine = args.algorithm, args.engine
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    if len(sizes) < 2:
        print("sweep needs at least two sizes", file=sys.stderr)
        return 2
    if len(set(sizes)) != len(sizes):
        print("sweep sizes must be distinct", file=sys.stderr)
        return 2
    # Fail an invalid (algorithm, engine) pair here, before any graph
    # is sampled or worker pool spawned; trials re-resolve per call
    # (deterministically — same algorithm, engine, and empty require).
    network = None
    if args.network is not None:
        network = _parse_network_arg(args.network, engine=engine)
        # Pin the engine now: trials re-resolve by name, and "auto"
        # must not land on an engine that cannot honour the model.
        spec = REGISTRY.resolve(algorithm, engine, require=("network",))
        engine = spec.engine
    else:
        spec = REGISTRY.resolve(algorithm, engine)
    resolved_engine = spec.engine

    shard = ShardSpec.parse(args.shard) if args.shard else None

    store = None
    if args.store:
        store_kwargs = {}
        if args.store_backend == "sharded" and shard is not None:
            # A stable writer label so a rerun of the same shard
            # resumes into its own file instead of opening a new one.
            store_kwargs["shard"] = shard.label
        store = make_store(args.store_backend, args.store, **store_kwargs)
    elif args.store_backend != "jsonl":
        print(f"--store-backend {args.store_backend} needs --store PATH",
              file=sys.stderr)
        return 2

    extra = {key: value for key, value in
             (("k_machines", args.k_machines), ("link_words", args.link_words))
             if value is not None}
    trial_fn = _SweepTrial(algorithm, engine, args.delta, args.c, args.model,
                           extra)
    collector = None
    if args.metrics is not None:
        if args.metrics_interval <= 0:
            print("--metrics-interval must be > 0", file=sys.stderr)
            return 2
        collector = MetricsCollector(sample_interval_s=args.metrics_interval)
    runner_cls = ParallelTrialRunner if args.jobs > 1 else TrialRunner
    runner_kwargs = {"master_seed": args.seed, "store": store, "shard": shard,
                     "metrics": collector}
    if spec.batched:
        runner_kwargs["batch_fn"] = _SweepTrialBatch(
            algorithm, engine, args.delta, args.c, args.model, extra)
        runner_kwargs["batch_size"] = _AutoBatchSize(args.delta, args.c)
    if args.jobs > 1:
        runner_kwargs["jobs"] = args.jobs
    runner = runner_cls(trial_fn, **runner_kwargs)
    points: list[dict] = [{"n": n} for n in sizes]
    if network is not None:
        # The canonical string rides in the grid point: trial keys,
        # store records, and resume matching all distinguish substrates
        # without any side channel.
        for point in points:
            point["network"] = network
    trials = runner.run(points, trials=args.trials)

    if collector is not None:
        # KPI report on stderr (the table/JSON below own stdout), the
        # machine-readable payload to an explicit PATH or the store's
        # sidecar (--metrics with no PATH and no --store: report only).
        context = {"algorithm": algorithm, "engine": resolved_engine,
                   "sizes": sizes, "trials": args.trials,
                   "master_seed": args.seed, "jobs": args.jobs,
                   "schedule": "ordered" if args.jobs > 1 else "serial"}
        if shard is not None:
            context["shard"] = str(shard)
        payload = collector.payload(context)
        print(collector.report(context), file=sys.stderr)
        metrics_out = None
        if args.metrics:
            from pathlib import Path

            metrics_out = Path(args.metrics)
            metrics_out.parent.mkdir(parents=True, exist_ok=True)
            metrics_out.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        elif store is not None:
            metrics_out = store.write_metrics(payload)
        if metrics_out is not None:
            print(f"metrics -> {metrics_out}", file=sys.stderr)

    rows = []
    ns, mean_rounds = [], []
    for n in sizes:
        bucket = [t for t in trials if t.point["n"] == n]
        if shard is not None and not bucket:
            continue  # this host owns no trial of that point
        wins = sum(t.success for t in bucket)
        rounds = [t.metrics["rounds"] for t in bucket
                  if t.success and "rounds" in t.metrics]
        p = paper_probability(n, args.delta, args.c)
        mean = sum(rounds) / len(rounds) if rounds else None
        owned = len(bucket) if shard is not None else args.trials
        # No successful trial, no mean: JSON null, n/a in the table.
        rows.append([n, f"{p:.4f}", wins, owned,
                     None if mean is None else round(mean, 1)])
        if rounds and mean > 0:
            # Sequential engines report rounds=0 (nothing distributed
            # to account for); a power-law fit is meaningless there.
            ns.append(float(n))
            mean_rounds.append(mean)

    exponent = None
    if len(ns) >= 2:
        _a, exponent = fit_power_law(ns, mean_rounds)
    if args.json:
        payload = {
            "algorithm": algorithm,
            "engine": resolved_engine,
            "jobs": args.jobs,
            "rows": rows,
            "fitted_exponent": exponent,
        }
        if shard is not None:
            payload["shard"] = str(shard)
            payload["trials_run"] = len(trials)
        print(json.dumps(payload, indent=2))
    else:
        title = (f"{algorithm} sweep (engine={resolved_engine}, "
                 f"delta={args.delta}, c={args.c}")
        title += f", shard {shard})" if shard is not None else ")"
        print(render_table(["n", "p", "successes", "trials", "mean rounds"],
                           [[*row[:-1], "n/a" if row[-1] is None else row[-1]]
                            for row in rows], title=title))
        if exponent is not None:
            print(f"fitted rounds ~ n^{exponent:.3f}")
        if shard is not None:
            print(f"shard {shard}: ran {len(trials)} of "
                  f"{len(sizes) * args.trials} trials; fuse the shard "
                  f"stores with `repro merge`")
    return 0


def _open_source_store(path_text: str):
    """A merge source: a sharded-store directory or one JSONL file."""
    from pathlib import Path

    path = Path(path_text)
    if path.is_dir():
        store = ShardedStore(path)
        if not store.shard_paths():
            # An empty directory must not masquerade as an empty store —
            # that would silently drop a shard's records from the merge.
            raise ValueError(
                f"merge source {path_text!r} contains no shard files "
                f"(shard-*.jsonl); did the sweep run with "
                f"--store-backend sharded --store {path_text}?")
        return store
    if not path.exists():
        # Same reasoning for a typo'd path.
        raise ValueError(f"merge source {path_text!r} does not exist")
    return JsonlStore(path)


def _cmd_merge(args) -> int:
    sources = [_open_source_store(p) for p in args.sources]
    dest = JsonlStore(args.out)
    trials = merge_stores(sources, dest, expect_trials=args.trials,
                          expect_points=args.points, require_records=True)
    points = {tuple(sorted(t.point.items())) for t in trials}
    if args.json:
        print(json.dumps({
            "out": args.out,
            "sources": list(args.sources),
            "records": len(trials),
            "points": len(points),
        }, indent=2))
    else:
        print(f"merged {len(sources)} store(s) -> {args.out}: "
              f"{len(trials)} canonical records over {len(points)} "
              f"grid point(s)")
    return 0


def _cmd_engines(args) -> int:
    specs = sorted(REGISTRY, key=lambda s: (s.algorithm, -s.priority))
    if args.json:
        print(json.dumps([{
            "algorithm": s.algorithm,
            "engine": s.engine,
            "supported_kwargs": sorted(s.supported_kwargs),
            "kmachine_convertible": s.kmachine_convertible,
            "audits_memory": s.audits_memory,
            "batched": s.batched,
            "async_capable": s.async_capable,
            "parity": sorted(s.parity),
            "summary": s.summary,
        } for s in specs], indent=2))
    else:
        rows = [[s.algorithm, s.engine,
                 "yes" if s.kmachine_convertible else "-",
                 "yes" if s.audits_memory else "-",
                 "yes" if s.batched else "-",
                 "yes" if s.async_capable else "-",
                 ",".join(sorted(s.supported_kwargs)) or "-",
                 s.summary]
                for s in specs]
        print(render_table(
            ["algorithm", "engine", "k-machine", "audit", "batched", "async",
             "kwargs", "summary"],
            rows, title="registered (algorithm, engine) pairs"))
    return 0


def _cmd_graph(args) -> int:
    graph, p = _make_graph(args)
    stats = degree_statistics(graph)
    connected = is_connected(graph)
    diam: float | str
    if not connected:
        diam = "inf"
    elif args.exact_diameter:
        diam = diameter(graph)
    else:
        diam = diameter_lower_bound(graph, seed=args.seed)
    info = {
        "model": args.model,
        "n": graph.n,
        "m": graph.m,
        "p": p,
        "hamiltonicity_threshold": hamiltonicity_threshold(graph.n),
        "above_threshold": p >= hamiltonicity_threshold(graph.n),
        "connected": connected,
        "diameter" + ("" if args.exact_diameter else "_lower_bound"): diam,
        "degree": stats,
    }
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        rows = [[k, v] for k, v in info.items() if k != "degree"]
        rows.extend([f"degree_{k}", v] for k, v in stats.items())
        print(render_table(["property", "value"], rows))
    return 0


def _cmd_bounds(args) -> int:
    n, delta = args.nodes, args.delta
    k = max(1, round(n ** (1.0 - delta)))
    part = max(3, round(n / k))
    info = {
        "p": paper_probability(n, delta, args.c),
        "partitions (n^(1-delta))": k,
        "expected partition size": part,
        "dra_step_budget (Thm 2)": dra_step_budget(part),
        "diameter_budget per subgraph": diameter_budget(part),
        "predicted_dhc1_rounds (Thm 1)": round(predicted_dhc1_rounds(n), 1),
        "predicted_dhc2_rounds (Thm 10)": round(predicted_dhc2_rounds(n, delta), 1),
        "predicted_upcast_rounds (Thm 19)": round(
            predicted_upcast_rounds(n, paper_probability(n, delta, args.c)), 1),
        "partition_size_failure (Lem 4/7)": partition_size_failure(n, k),
        "merge_step_failure (Lem 8)": merge_step_failure(
            n, delta, paper_probability(n, delta, args.c)) if 0 < delta <= 1 else 1.0,
        "ln(n)": round(math.log(n), 3),
    }
    if args.json:
        print(json.dumps(info, indent=2))
    else:
        print(render_table(["bound", "value"], [[k_, v] for k_, v in info.items()],
                           title=f"paper predictions at n={n}, delta={delta}, "
                                 f"c={args.c}"))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "merge": _cmd_merge,
    "engines": _cmd_engines,
    "graph": _cmd_graph,
    "bounds": _cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy invocation: bare flags imply `run`.
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        argv = ["run", *argv]
    args = build_parser().parse_args(argv)
    if args.command is None:
        build_parser().print_help()
        return 2
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except BrokenPipeError:
        # The reader left early (``repro graph --json | head``): point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
