"""Unit tests for the advisory bench-regression comparator."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from check_bench import compare, main, numeric_leaves  # noqa: E402


BASE = {
    "experiment": "x",
    "sizes": [1024, 4096],
    "shared": {"4": {"native_trials_per_sec": 100.0,
                     "native_kmachine_rounds": 5000}},
}


class TestCompare:
    def test_in_band_run_is_clean(self):
        fresh = json.loads(json.dumps(BASE))
        fresh["shared"]["4"]["native_trials_per_sec"] = 80.0  # noisy but fine
        problems, compared, _skipped = compare(fresh, BASE, 0.5, 0.25)
        assert problems == []
        assert compared == 2

    def test_rate_regression_detected(self):
        fresh = json.loads(json.dumps(BASE))
        fresh["shared"]["4"]["native_trials_per_sec"] = 10.0
        problems, _, _ = compare(fresh, BASE, 0.5, 0.25)
        assert len(problems) == 1 and "rate regression" in problems[0]

    def test_count_drift_detected_but_rates_may_improve(self):
        fresh = json.loads(json.dumps(BASE))
        fresh["shared"]["4"]["native_trials_per_sec"] = 900.0  # faster: fine
        fresh["shared"]["4"]["native_kmachine_rounds"] = 9000  # drift: not
        problems, _, _ = compare(fresh, BASE, 0.5, 0.25)
        assert len(problems) == 1 and "count drift" in problems[0]

    def test_config_keys_ignored(self):
        fresh = json.loads(json.dumps(BASE))
        fresh["sizes"] = [256]  # a smoke run's reduced grid
        problems, _, _ = compare(fresh, BASE, 0.5, 0.25)
        assert problems == []

    def test_unmatched_paths_skipped(self):
        fresh = {"shared": {"4": {"native_trials_per_sec": 100.0}}}
        problems, compared, skipped = compare(fresh, BASE, 0.5, 0.25)
        assert problems == [] and compared == 1 and skipped == 1

    def test_numeric_leaves_flattening(self):
        leaves = numeric_leaves({"a": {"b": [1, {"c": 2.5}]}, "ok": True})
        assert leaves == {"a.b.0": 1.0, "a.b.1.c": 2.5}  # bools excluded

    def test_all_numeric_lists_collapse_to_median(self):
        # Repeated samples of one measurement -> one noise-damped leaf.
        leaves = numeric_leaves({"rate_per_sec": [100.0, 90.0, 800.0]})
        assert leaves == {"rate_per_sec": 100.0}
        # Singletons and mixed lists keep element-wise paths.
        assert numeric_leaves({"x": [7]}) == {"x.0": 7.0}
        assert numeric_leaves({"x": [7, None, 9]}) == {"x.0": 7.0, "x.2": 9.0}

    def test_cost_leaves_regress_upward(self):
        base = {"setup": {"setup_fraction": 0.4, "setup_seconds": 2.0}}
        # Cheaper setup is an improvement, never a problem ...
        fresh = {"setup": {"setup_fraction": 0.1, "setup_seconds": 0.5}}
        problems, compared, _ = compare(fresh, base, 0.5, 0.25)
        assert problems == [] and compared == 2
        # ... while a costlier one trips the inverse-rate band.
        slow = {"setup": {"setup_fraction": 0.9, "setup_seconds": 2.1}}
        problems, _, _ = compare(slow, base, 0.5, 0.25)
        assert len(problems) == 1
        assert "cost regression" in problems[0]
        assert "setup_fraction" in problems[0]

    def test_percentile_tails_gate_as_costs(self):
        base = {"metrics_lane": {"overhead_fraction": 0.005,
                                 "kpis": {"latency_p50_s": 0.01,
                                          "latency_p90_s": 0.02,
                                          "latency_p99_s": 0.03}}}
        # A p99 blow-up with a healthy median is caught ...
        fresh = json.loads(json.dumps(base))
        fresh["metrics_lane"]["kpis"]["latency_p99_s"] = 0.30
        problems, compared, _ = compare(fresh, base, 0.5, 0.25)
        assert compared == 4
        assert len(problems) == 1
        assert "latency_p99_s" in problems[0]
        assert "cost regression" in problems[0]
        # ... and so is collector overhead creeping past its band.
        heavy = json.loads(json.dumps(base))
        heavy["metrics_lane"]["overhead_fraction"] = 0.02
        problems, _, _ = compare(heavy, base, 0.5, 0.25)
        assert len(problems) == 1 and "overhead_fraction" in problems[0]
        # Tails falling is an improvement, never a problem.
        quick = json.loads(json.dumps(base))
        quick["metrics_lane"]["kpis"]["latency_p90_s"] = 0.001
        problems, _, _ = compare(quick, base, 0.5, 0.25)
        assert problems == []

    def test_rate_markers_beat_percentile_markers(self):
        # trials_per_sec_p90 is rate-like: lower, not higher, is worse.
        base = {"kpis": {"trials_per_sec_p90": 100.0}}
        fresh = {"kpis": {"trials_per_sec_p90": 200.0}}
        problems, compared, _ = compare(fresh, base, 0.5, 0.25)
        assert problems == [] and compared == 1
        slow = {"kpis": {"trials_per_sec_p90": 10.0}}
        problems, _, _ = compare(slow, base, 0.5, 0.25)
        assert len(problems) == 1 and "rate regression" in problems[0]

    def test_median_damps_single_outlier_sample(self):
        base = {"shared": {"t_per_sec": [100.0, 101.0, 99.0]}}
        # One garbage repeat (CI hiccup) must not trip the check ...
        fresh = {"shared": {"t_per_sec": [100.0, 2.0, 99.0]}}
        problems, compared, _ = compare(fresh, base, 0.5, 0.25)
        assert problems == [] and compared == 1
        # ... but a consistently slow fresh run still does.
        slow = {"shared": {"t_per_sec": [10.0, 11.0, 9.0]}}
        problems, _, _ = compare(slow, base, 0.5, 0.25)
        assert len(problems) == 1 and "rate regression" in problems[0]


class TestMain:
    def test_exit_codes(self, tmp_path):
        base_path = tmp_path / "base.json"
        base_path.write_text(json.dumps(BASE))
        fresh = json.loads(json.dumps(BASE))
        fresh_path = tmp_path / "fresh.json"
        fresh_path.write_text(json.dumps(fresh))
        assert main([str(fresh_path), str(base_path)]) == 0
        fresh["shared"]["4"]["native_trials_per_sec"] = 1.0
        fresh_path.write_text(json.dumps(fresh))
        assert main([str(fresh_path), str(base_path)]) == 2
        assert main([str(tmp_path / "missing.json"), str(base_path)]) == 1
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert main([str(empty), str(base_path)]) == 1
