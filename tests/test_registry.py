"""The unified (algorithm, engine) registry and ``repro.run``.

Covers the dispatch table itself, ``engine="auto"`` resolution,
capability-driven keyword validation, cross-engine parity for every
pair that registers both a congest and a fast runner (the spec's
declared ``parity`` fields must be seed-for-seed identical), the
k-machine convertibility capability, and the rejection of the retired
legacy keywords.
"""

import math

import pytest

import repro
from repro.engines.api import EngineSpec
from repro.engines.registry import REGISTRY, EngineRegistry, run
from repro.engines.results import RunResult
from repro.graphs import gnp_random_graph


def dense_graph(n: int, seed: int, factor: float = 8.0):
    p = min(1.0, factor * math.log(n) / n)
    return gnp_random_graph(n, p, seed=seed)


class TestRegistryTable:
    def test_builtin_pairs_present(self):
        keys = {s.key for s in REGISTRY}
        assert {("dra", "congest"), ("dra", "fast"),
                ("dhc1", "congest"),
                ("dhc2", "congest"), ("dhc2", "fast"),
                ("upcast", "congest"), ("trivial", "congest"),
                ("levy", "fast"), ("local", "fast"),
                ("posa", "sequential"),
                ("angluin-valiant", "sequential"),
                ("turau", "congest"), ("turau", "fast"),
                ("cre", "sequential"), ("cre", "fast")} <= keys

    def test_every_convertible_spec_has_a_native_kmachine_entry(self):
        # The native engine mirrors the Conversion Theorem's reach: one
        # kmachine entry per kmachine_convertible congest spec, each
        # threading the machine-model knobs.
        keys = {s.key for s in REGISTRY}
        for algorithm in REGISTRY.convertible_algorithms():
            assert (algorithm, "kmachine") in keys
            spec = REGISTRY.get(algorithm, "kmachine")
            assert {"k_machines", "link_words",
                    "partition_seed"} <= spec.supported_kwargs
            assert "cycle" in spec.parity

    def test_unknown_algorithm_message_lists_choices(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            REGISTRY.get("nope", "fast")

    def test_unknown_engine_message_lists_engines(self):
        with pytest.raises(ValueError, match="no 'congest' engine"):
            REGISTRY.get("levy", "congest")

    def test_duplicate_registration_needs_replace(self):
        reg = EngineRegistry()
        spec = EngineSpec("x", "fast", lambda g, *, seed=0: None)
        reg.register(spec)
        with pytest.raises(ValueError, match="already registered"):
            reg.register(spec)
        reg.register(spec, replace=True)
        assert len(reg) == 1

    def test_convertible_algorithms_capability(self):
        assert REGISTRY.convertible_algorithms() == [
            "dhc1", "dhc2", "dra", "turau"]

    def test_registering_new_algorithm_is_one_call(self):
        """The extension point: a third-party algorithm plugs in."""
        reg = EngineRegistry.with_builtins()

        def run_stub(graph, *, seed=0):
            return RunResult("stub", True, list(range(graph.n)), rounds=1,
                             engine="fast")

        reg.register(EngineSpec("stub", "fast", run_stub))
        g = dense_graph(8, seed=1)
        result = run(g, "stub", registry=reg)
        assert result.algorithm == "stub"
        assert "stub" in reg.algorithms()


class TestAutoResolution:
    def test_auto_prefers_fast(self):
        assert REGISTRY.resolve("dra", "auto").engine == "fast"
        assert REGISTRY.resolve("dhc2", "auto").engine == "fast"

    def test_auto_falls_back_to_congest(self):
        assert REGISTRY.resolve("dhc1", "auto").engine == "congest"
        assert REGISTRY.resolve("upcast", "auto").engine == "congest"

    def test_auto_respects_capability_requirements(self):
        # Only the congest engine can audit memory.
        spec = REGISTRY.resolve("dra", "auto", require=["audit_memory"])
        assert spec.engine == "congest"

    def test_auto_with_unsatisfiable_requirement(self):
        with pytest.raises(ValueError, match="no engine"):
            REGISTRY.resolve("levy", "auto", require=["audit_memory"])

    def test_explicit_engine_rejects_unsupported_kwargs(self):
        with pytest.raises(ValueError, match="does not support"):
            REGISTRY.resolve("dra", "fast", require=["audit_memory"])


class TestRunEntryPoint:
    def test_run_returns_runresult(self):
        g = dense_graph(64, seed=1)
        result = repro.run(g, "dra", engine="fast", seed=1)
        assert isinstance(result, RunResult)
        assert result.engine == "fast"

    def test_run_kwarg_typo_is_loud(self):
        g = dense_graph(16, seed=1)
        with pytest.raises(ValueError, match="no engine"):
            repro.run(g, "dra", sedd=1)  # typo'd keyword never silently drops
        with pytest.raises(TypeError, match="does not support"):
            REGISTRY.get("dra", "fast").call(g, seed=1, sedd=1)

    def test_run_audit_memory_lands_on_congest(self):
        g = dense_graph(48, seed=2)
        result = repro.run(g, "dra", seed=2, audit_memory=True)
        assert result.engine == "congest"
        assert "state_words" in result.detail

    def test_sequential_engines_run(self):
        g = dense_graph(48, seed=3)
        for algorithm in ("posa", "angluin-valiant"):
            result = repro.run(g, algorithm, seed=3)
            assert result.engine == "sequential"
            assert result.rounds == 0
            if result.success:
                assert sorted(result.cycle) == list(range(48))


class TestCrossEngineParity:
    """Every (congest, fast) pair must agree on its declared parity fields."""

    def _pairs(self):
        for algorithm in REGISTRY.algorithms():
            engines = REGISTRY.engines_for(algorithm)
            if "congest" in engines and "fast" in engines:
                yield algorithm, engines["congest"], engines["fast"]

    def test_fast_specs_declare_parity(self):
        pairs = list(self._pairs())
        assert pairs, "expected at least dra and dhc2 to have both engines"
        for algorithm, _congest, fast in pairs:
            assert "cycle" in fast.parity, (
                f"{algorithm}: a fast engine that cannot reproduce the "
                f"congest cycle defeats its purpose")

    @pytest.mark.parametrize("seed", [1, 5])
    def test_declared_fields_identical_seed_for_seed(self, seed):
        # Dense enough that every dhc2 colour class is Hamiltonian, so
        # the parity contract (which covers successful runs) applies.
        n, k = 96, 4
        s = n // k
        p = min(1.0, 8.0 * math.log(s) / s)
        g = gnp_random_graph(n, p, seed=seed)
        for algorithm, congest_spec, fast_spec in self._pairs():
            kwargs = fast_spec.filter_kwargs({"delta": 1.0, "k": k})
            slow = congest_spec.call(g, seed=seed, **congest_spec.filter_kwargs(
                {"delta": 1.0, "k": k}))
            fast = fast_spec.call(g, seed=seed, **kwargs)
            assert slow.success == fast.success, algorithm
            assert slow.success, (
                f"{algorithm}: pick denser parity-test parameters")
            for field in fast_spec.parity:
                assert getattr(slow, field) == getattr(fast, field), (
                    f"{algorithm}: '{field}' diverged between engines "
                    f"(declared parity {sorted(fast_spec.parity)})")


class TestCapabilityErrorPaths:
    """Registry misuse fails loudly with actionable messages."""

    def test_unknown_algorithm_through_run(self):
        g = dense_graph(8, seed=1)
        with pytest.raises(ValueError, match="unknown algorithm 'dijkstra'"):
            repro.run(g, "dijkstra")

    def test_unknown_algorithm_lists_known_names(self):
        with pytest.raises(ValueError, match="cre") as excinfo:
            REGISTRY.get("nope", "fast")
        assert "turau" in str(excinfo.value)

    def test_congest_only_kwarg_on_sequential_spec(self):
        # network is a congest capability; requesting it against an
        # explicitly sequential spec fails at resolution time with the
        # missing keyword named, not deep inside a runner.
        with pytest.raises(ValueError, match="does not support: network"):
            REGISTRY.resolve("cre", "sequential", require=["network"])

    def test_congest_only_kwarg_unsatisfiable_on_auto(self):
        # cre has no congest engine at all, so auto resolution reports
        # every candidate's supported keywords.
        with pytest.raises(ValueError, match="no engine for algorithm 'cre'"):
            REGISTRY.resolve("cre", "auto", require=["network"])

    def test_foreign_algorithm_kwarg_rejected_at_call(self):
        g = dense_graph(8, seed=1)
        with pytest.raises(TypeError, match="does not support: phase_budget"):
            REGISTRY.get("dra", "fast").call(g, seed=1, phase_budget=3)


class TestRetiredKeywords:
    """``fault_plan=`` / ``network_hook=`` live only on ``NetworkModel``."""

    @pytest.mark.parametrize("name", ["fault_plan", "network_hook"])
    def test_legacy_network_keywords_rejected(self, name):
        from repro.congest import FaultPlan

        g = dense_graph(16, seed=1)
        value = FaultPlan() if name == "fault_plan" else (lambda net: None)
        # repro.run fails at resolution, like any keyword no engine
        # accepts, and names each candidate's supported keywords.
        with pytest.raises(ValueError, match=f"supports \\['{name}'\\]") as excinfo:
            repro.run(g, "dra", seed=1, **{name: value})
        assert "network" in str(excinfo.value).split("available:")[1]
        with pytest.raises(TypeError, match=f"does not support: {name} "
                                            r"\(supported: .*network"):
            REGISTRY.get("dra", "congest").call(g, seed=1, **{name: value})
