"""NetworkModel API tests (repro.congest.model).

The unified network-configuration object is the one place runners
take their substrate from (``network=``).  These tests pin the
contract: validation, byte-stable JSON round-trips, the coercion of
``network=`` values into a model, and uniform fault reporting.
"""

import json
import warnings

import pytest

from repro.congest import FaultPlan, LatencySpec, NetworkModel
from repro.congest.model import coerce_network_model, faults_summary_for
from repro.core import run_dra

from tests.conftest import dense_gnp


# ---------------------------------------------------------------------------
# LatencySpec
# ---------------------------------------------------------------------------


class TestLatencySpec:
    def test_default_is_unit(self):
        spec = LatencySpec()
        assert spec.is_unit
        assert spec.mean() == 1.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="latency kind"):
            LatencySpec(kind="gaussian")

    def test_rejects_nonpositive_value(self):
        with pytest.raises(ValueError):
            LatencySpec(kind="fixed", value=0.0)
        with pytest.raises(ValueError):
            LatencySpec(kind="exponential", value=-1.0)

    def test_rejects_bad_uniform_range(self):
        with pytest.raises(ValueError):
            LatencySpec(kind="uniform", low=0.0, high=1.0)
        with pytest.raises(ValueError):
            LatencySpec(kind="uniform", low=2.0, high=1.0)

    def test_means(self):
        assert LatencySpec(kind="fixed", value=3.0).mean() == 3.0
        assert LatencySpec(kind="uniform", low=1.0, high=3.0).mean() == 2.0
        assert LatencySpec(kind="exponential", value=2.5).mean() == 2.5

    def test_json_round_trip(self):
        spec = LatencySpec(kind="uniform", low=0.25, high=4.0)
        assert LatencySpec.from_json(spec.to_json()) == spec

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown latency"):
            LatencySpec.from_json({"kind": "unit", "jitter": 0.1})

    def test_samples_are_positive_and_deterministic(self):
        import numpy as np

        for kind, kwargs in (("fixed", {"value": 2.0}),
                             ("uniform", {"low": 0.5, "high": 1.5}),
                             ("exponential", {"value": 1.0})):
            spec = LatencySpec(kind=kind, **kwargs)
            a = [spec.sample(np.random.default_rng(7)) for _ in range(5)]
            b = [spec.sample(np.random.default_rng(7)) for _ in range(5)]
            assert a == b
            assert all(x > 0 for x in a)


# ---------------------------------------------------------------------------
# NetworkModel validation
# ---------------------------------------------------------------------------


class TestNetworkModelValidation:
    def test_default_is_sync(self):
        model = NetworkModel()
        assert not model.is_async()
        assert model.latency.is_unit

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            NetworkModel(mode="semi-sync")

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth_words"):
            NetworkModel(bandwidth_words=0)

    def test_sync_mode_rejects_latency_distribution(self):
        with pytest.raises(ValueError, match="mode='async'"):
            NetworkModel(latency=LatencySpec(kind="uniform"))

    def test_sync_mode_rejects_churn(self):
        with pytest.raises(ValueError, match="churn"):
            NetworkModel(churn=[("crash", 3, 10.0)])

    def test_churn_normalised_and_validated(self):
        model = NetworkModel(mode="async",
                             churn=[("join", 2, 5.0), ("crash", 1, 2.0)])
        assert model.churn == (("crash", 1, 2.0), ("join", 2, 5.0))
        with pytest.raises(ValueError, match="churn action"):
            NetworkModel(mode="async", churn=[("sleep", 1, 2.0)])
        with pytest.raises(ValueError, match="triples"):
            NetworkModel(mode="async", churn=[("crash", 1)])
        with pytest.raises(ValueError, match=">= 0"):
            NetworkModel(mode="async", churn=[("crash", -1, 2.0)])

    def test_nested_dicts_coerce(self):
        model = NetworkModel(mode="async",
                             latency={"kind": "fixed", "value": 2.0},
                             fault_plan={"drop_probability": 0.1})
        assert isinstance(model.latency, LatencySpec)
        assert isinstance(model.fault_plan, FaultPlan)

    def test_as_async(self):
        model = NetworkModel(fault_plan=FaultPlan(drop_probability=0.1))
        flipped = model.as_async()
        assert flipped.is_async()
        assert flipped.fault_plan == model.fault_plan
        assert flipped.as_async() is flipped


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


class TestNetworkModelJson:
    def _rich(self):
        return NetworkModel(
            mode="async",
            bandwidth_words=10,
            audit_memory=True,
            fault_plan=FaultPlan(drop_probability=0.05, seed=3,
                                 dead_links=frozenset({(4, 1)}),
                                 crash_rounds={2: 7}),
            latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
            churn=[("crash", 5, 12.0)],
            seed=42,
        )

    def test_round_trip(self):
        model = self._rich()
        assert NetworkModel.from_json(model.to_json()) == model
        assert NetworkModel.from_json(model.canonical()) == model

    def test_canonical_is_byte_stable(self):
        model = self._rich()
        text = model.canonical()
        assert text == NetworkModel.from_json(text).canonical()
        # Compact separators, sorted keys — safe as a sweep-point value.
        assert json.loads(text)["mode"] == "async"
        assert ": " not in text

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown NetworkModel"):
            NetworkModel.from_json({"mode": "sync", "topology": "ring"})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            NetworkModel.from_json("[1, 2]")

    def test_to_json_refuses_live_hook(self):
        model = NetworkModel(network_hook=lambda net: None)
        with pytest.raises(ValueError, match="cannot be serialised"):
            model.to_json()

    def test_fault_plan_json_round_trip(self):
        plan = FaultPlan(drop_probability=0.2, dead_links=frozenset({(9, 2)}),
                         crash_rounds={1: 5}, window=(2, 30), seed=8)
        assert FaultPlan.from_json(plan.to_json()) == plan


# ---------------------------------------------------------------------------
# coerce_network_model
# ---------------------------------------------------------------------------


class TestCoerceShims:
    def test_none_is_default_sync_model(self):
        assert coerce_network_model(None) == NetworkModel()

    def test_passthrough_and_json_forms(self):
        model = NetworkModel(bandwidth_words=9)
        assert coerce_network_model(model) is model
        assert coerce_network_model(model.to_json()) == model
        assert coerce_network_model(model.canonical()) == model

    def test_rejects_foreign_types(self):
        with pytest.raises(TypeError, match="NetworkModel"):
            coerce_network_model(3.14)

    def test_model_route_emits_no_deprecation_warning(self):
        graph = dense_gnp(24, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_dra(graph, seed=1,
                    network=NetworkModel(fault_plan=FaultPlan()))


# ---------------------------------------------------------------------------
# Uniform detail["faults"] reporting
# ---------------------------------------------------------------------------


class TestFaultsSummaryUniformity:
    def test_summary_absent_without_plan(self):
        assert faults_summary_for(NetworkModel()) is None
        graph = dense_gnp(24, seed=2)
        result = run_dra(graph, seed=2)
        assert "faults" not in result.detail

    def test_summary_zero_counts_with_plan(self):
        summary = faults_summary_for(
            NetworkModel(fault_plan=FaultPlan(drop_probability=0.5)))
        assert summary == {"offered": 0.0, "dropped": 0.0,
                           "drop_rate": 0.0, "crashed_nodes": 0.0}

    def test_all_four_runners_report_faults(self):
        from repro.core import run_dhc1, run_dhc2, run_turau

        graph = dense_gnp(24, seed=4)
        model = NetworkModel(fault_plan=FaultPlan(drop_probability=0.02,
                                                  seed=1))
        for runner, kwargs in ((run_dra, {}), (run_dhc1, {}),
                               (run_dhc2, {"delta": 0.5}), (run_turau, {})):
            result = runner(graph, seed=4, network=model, **kwargs)
            stats = result.detail["faults"]
            assert set(stats) == {"offered", "dropped", "drop_rate",
                                  "crashed_nodes"}, runner
            assert stats["offered"] > 0

    def test_turau_early_return_still_reports_faults(self):
        from repro.core import run_turau
        from tests.conftest import path_graph

        model = NetworkModel(fault_plan=FaultPlan(drop_probability=0.5))
        result = run_turau(path_graph(2), seed=0, network=model)
        assert result.detail["faults"]["offered"] == 0.0
        assert result.detail["faults"]["crashed_nodes"] == 0.0
