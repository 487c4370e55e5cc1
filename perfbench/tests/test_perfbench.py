"""Self-tests of the benchmark's own code: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.ledger import LAYER_METRICS
from perfbench.measure import END_TO_END, measure, tail_percentile
from perfbench.workloads import WORKLOADS, make_grid, nproc

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: (n, trials) per workload for the quick self-test passes.
TINY = {
    "dra-fast-n1024": (48, 4),
    "dhc2-batch-n512": (64, 6),
    "dra-congest-n48": (24, 2),
    "cre-jobs2-n64": (24, 12),
}


def test_names_are_valid_and_match_benchmark_json():
    for name in (*END_TO_END, *LAYER_METRICS, *WORKLOADS):
        assert NAME.fullmatch(name), name
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert set(TINY) == set(WORKLOADS)


def test_same_seed_yields_identical_inputs():
    from repro.graphs import gnp_random_graph, paper_probability
    from repro.harness import TrialRunner

    def trial_seeds(grid):
        runner = TrialRunner(None, master_seed=grid.master_seed)
        return [runner.derive_seed(0, t) for t in range(grid.trials)]

    for workload in WORKLOADS.values():
        first, again, other = (make_grid(workload, 7), make_grid(workload, 7),
                               make_grid(workload, 8))
        assert first == again and first != other
        assert trial_seeds(first) == trial_seeds(again)
        assert trial_seeds(first) != trial_seeds(other)
    workload = WORKLOADS["dra-fast-n1024"]
    p = paper_probability(64, workload.delta, workload.c)
    seeds = trial_seeds(make_grid(workload, 7))[:3]
    graphs = [gnp_random_graph(64, p, seed=s) for s in seeds]
    assert graphs == [gnp_random_graph(64, p, seed=s) for s in seeds]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile([float(i) for i in range(40)]) == (75.0, 29.0, 10)
    assert tail_percentile([float(i) for i in range(200)])[0] == 95.0
    assert tail_percentile([1.0, 2.0, 3.0]) == (100.0, 3.0, 0)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "ledger"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_pass_emits_every_metric(name, trace, tmp_path):
    from repro.engines.api import EngineSpec

    n, trials = TINY[name]
    workload = WORKLOADS[name]
    workload = replace(workload, n=n, trials=trials,
                       warmup_trials=min(workload.warmup_trials, trials),
                       jobs=min(workload.jobs, nproc()))
    call = EngineSpec.__dict__["call"]
    outcome = measure(workload, 3, 0.0, trace, tmp_path, root=ROOT, probes=1)
    assert EngineSpec.__dict__["call"] is call  # spans uninstalled
    assert outcome.correct and outcome.failed == 0
    assert outcome.attempted == trials
    expected = LAYER_METRICS if trace else END_TO_END
    assert {k: unit for k, (_, unit) in outcome.metrics.items()} == expected
    assert all(math.isfinite(value) for value, _ in outcome.metrics.values())
    line = json.loads(outcome.result_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    if not trace:
        assert all(line["metrics"][k]["value"] > 0 for k in END_TO_END)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dra-fast-n1024",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
