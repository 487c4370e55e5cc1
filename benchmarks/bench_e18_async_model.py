"""E18 — synchronous algorithms on the asynchronous lossy substrate.

The paper's model is synchronous and fault-free; ``engine="async"``
asks how far its algorithms survive outside it.  This benchmark runs
all four congest front ends (DRA, DHC1, DHC2, Turau) on the
message-passing core's async mode under uniform(0.5, 1.5) per-edge
latency and measures, per message-drop rate and under one mid-run
churn crash:

* **success_rate** — verified Hamiltonian cycles only (the safety
  contract: reordering and loss may kill runs but never fake one);
* **termination_rate** — fraction of runs ending in quiescence or
  global halt rather than on the watchdog budget (``limited``);
* **stretch_vs_sync** — async virtual completion time over the same
  seed's synchronous round count: the price of the asynchronous
  schedule in round units;
* delivered / dropped / undeliverable / reordered message counts
  (deterministic given the seed tree, so they drift-gate behaviour
  changes).  ``dropped`` counts the fault adversary's losses only;
  ``undeliverable`` counts messages discarded at halted or
  not-yet-joined recipients.

A zero-drop unit-latency spot check re-asserts the parity pin from
``tests/test_async_engine.py`` inside the bench's own grid.

Environment knobs (the CI async-smoke step runs ``E18_DROPS=0,0.01
E18_CHURN=0``):

* ``E18_DROPS`` — comma-separated drop rates (default 0,0.01,0.05);
* ``E18_CHURN`` — ``0`` skips the churn-crash condition (default on);
* ``E18_OUT`` — also dump the payload to this path for
  ``benchmarks/check_bench.py``'s advisory comparison.

Trial counts never change with the knobs, so every leaf a smoke run
*does* produce is exactly comparable to the committed
``BENCH_async_model.json`` (unmatched paths are skipped).
"""

import json
import os
import statistics
from pathlib import Path

import repro
from repro.congest import FaultPlan, LatencySpec, NetworkModel
from repro.graphs import gnp_random_graph, paper_probability
from repro.verify import is_hamiltonian_cycle

from benchmarks.conftest import show

FULL_SWEEP = "E18_DROPS" not in os.environ and "E18_CHURN" not in os.environ
N = 40
C = 6.0
TRIALS = 6
DROPS = [float(d) for d in os.environ.get("E18_DROPS", "0,0.01,0.05").split(",")]
WITH_CHURN = os.environ.get("E18_CHURN", "1") != "0"
CHURN_AT = 10.0
LATENCY = LatencySpec(kind="uniform", low=0.5, high=1.5)
ALGOS = [("dra", {}), ("dhc1", {}), ("dhc2", {"delta": 0.5}), ("turau", {})]
OUT_PATH = Path(__file__).resolve().parent / "BENCH_async_model.json"


def _graph(seed: int):
    return gnp_random_graph(N, paper_probability(N, 0.5, C), seed=seed)


def _conditions():
    out = [(f"drop={drop:g}",
            NetworkModel(mode="async", latency=LATENCY,
                         fault_plan=(FaultPlan(drop_probability=drop, seed=1)
                                     if drop else None)))
           for drop in DROPS]
    if WITH_CHURN:
        out.append(("churn=crash@10",
                    NetworkModel(mode="async", latency=LATENCY,
                                 churn=[("crash", 1, CHURN_AT)])))
    return out


def _parity_spot_check():
    """Zero-drop unit latency: async == sync, seed for seed."""
    graph = _graph(0)
    for algorithm, kwargs in ALGOS:
        sync = repro.run(graph, algorithm, engine="congest", seed=0, **kwargs)
        against = repro.run(graph, algorithm, engine="async", seed=0,
                            network=NetworkModel(mode="async"), **kwargs)
        for field in ("success", "cycle", "rounds", "messages", "bits"):
            assert getattr(against, field) == getattr(sync, field), (
                f"{algorithm}: async/sync parity broke on {field}")


def _sweep():
    conditions = _conditions()
    series: dict[str, dict] = {}
    rows = []
    for algorithm, kwargs in ALGOS:
        sync_rounds = {}
        per_condition: dict[str, dict] = {}
        for label, model in conditions:
            wins = terminated = delivered = dropped = undeliverable = 0
            reordered = errors = 0
            stretches = []
            for trial in range(TRIALS):
                graph = _graph(trial)
                if trial not in sync_rounds:
                    sync = repro.run(graph, algorithm, engine="congest",
                                     seed=trial, **kwargs)
                    sync_rounds[trial] = max(1, sync.rounds)
                result = repro.run(graph, algorithm, engine="async",
                                   seed=trial, network=model, **kwargs)
                if result.success:
                    assert is_hamiltonian_cycle(graph, result.cycle)
                    wins += 1
                stats = result.detail["async"]
                terminated += 1 - stats["limited"]
                delivered += stats["delivered"]
                dropped += stats["dropped"]
                undeliverable += stats["undeliverable"]
                reordered += stats["reordered"]
                errors += stats["protocol_errors"]
                stretches.append(
                    round(stats["virtual_time"] / sync_rounds[trial], 4))
            per_condition[label] = {
                "success_rate": round(wins / TRIALS, 4),
                "termination_rate": round(terminated / TRIALS, 4),
                "stretch_vs_sync": stretches,
                "delivered": delivered,
                "dropped": dropped,
                "undeliverable": undeliverable,
                "reordered": reordered,
                "protocol_errors": errors,
            }
            rows.append((algorithm, label, wins, TRIALS,
                         round(terminated / TRIALS, 2),
                         float(statistics.median(stretches))))
        series[algorithm] = per_condition
    return series, rows


def test_e18_async_model(benchmark):
    _parity_spot_check()
    series, rows = _sweep()
    show(f"E18: async substrate, uniform(0.5,1.5) latency "
         f"(n={N}, {TRIALS} trials)",
         ["algorithm", "condition", "wins", "trials", "term_rate",
          "stretch_med"], rows)

    for algorithm, per_condition in series.items():
        for label, stats in per_condition.items():
            # Loss/churn end in quiescence, never a simulator blow-up;
            # the watchdog only backstops genuinely unbounded runs.
            assert stats["termination_rate"] == 1.0, (algorithm, label)
            assert stats["delivered"] > 0, (algorithm, label)
        if WITH_CHURN:
            # A Hamiltonian cycle needs every node: the crash condition
            # can never be won.
            assert per_condition["churn=crash@10"]["success_rate"] == 0.0, \
                algorithm
        if 0.0 in DROPS and 0.05 in DROPS:
            # Heavy loss can only hurt.
            assert (per_condition["drop=0"]["success_rate"]
                    >= per_condition["drop=0.05"]["success_rate"]), algorithm

    payload = {
        "experiment": "e18_async_model",
        "n": N,
        "c": C,
        "trials": TRIALS,
        "latency": LATENCY.to_json(),
        "drops": DROPS,
        "churn": WITH_CHURN,
        "seed": 0,
        "series": series,
    }
    if FULL_SWEEP:
        OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {OUT_PATH}")
    else:
        print(f"conditions overridden; kept {OUT_PATH}")
    if os.environ.get("E18_OUT"):
        Path(os.environ["E18_OUT"]).write_text(
            json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info["series"] = series
    benchmark.pedantic(
        lambda: repro.run(_graph(0), "dra", engine="async", seed=0,
                          network=NetworkModel(mode="async", latency=LATENCY)),
        rounds=1, iterations=1)
