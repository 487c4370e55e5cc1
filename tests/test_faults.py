"""Failure-injection tests (repro.congest.faults).

The paper's model is fault-free; these tests validate the library's
safety promise instead: under message loss, dead links, or crash-stop
nodes, every front end either still produces a *verified* Hamiltonian
cycle or reports failure — it never claims success falsely, and the
simulator never raises out of a faulty run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import NetworkModel
from repro.congest.faults import FaultInjector, FaultPlan
from repro.core import run_dhc2, run_dra
from repro.graphs import gnp_random_graph, paper_probability
from repro.verify import is_hamiltonian_cycle


def _graph(n=48, seed=11, c=6.0):
    return gnp_random_graph(n, paper_probability(n, 0.5, c), seed=seed)


# ---------------------------------------------------------------------------
# FaultPlan validation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_default_plan_is_benign(self):
        assert FaultPlan().is_benign()

    def test_nonbenign_detection(self):
        assert not FaultPlan(drop_probability=0.1).is_benign()
        assert not FaultPlan(dead_links=frozenset({(1, 2)})).is_benign()
        assert not FaultPlan(crash_rounds={3: 10}).is_benign()

    def test_dead_links_normalised_to_sorted_pairs(self):
        plan = FaultPlan(dead_links=frozenset({(7, 3), (2, 5)}))
        assert plan.dead_links == frozenset({(3, 7), (2, 5)})

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=-0.1)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            FaultPlan(window=(10, 5))


# ---------------------------------------------------------------------------
# Injection mechanics
# ---------------------------------------------------------------------------


class TestInjectorMechanics:
    def test_benign_plan_changes_nothing(self):
        graph = _graph()
        native = run_dra(graph, seed=4)
        injector = FaultInjector(FaultPlan())
        faulty = run_dra(graph, seed=4, network=NetworkModel(network_hook=injector.attach))
        assert faulty.success == native.success
        assert faulty.cycle == native.cycle
        assert faulty.rounds == native.rounds
        assert injector.dropped == 0
        assert injector.offered == native.messages

    def test_double_attach_rejected(self):
        graph = _graph(n=16)
        injector = FaultInjector(FaultPlan())

        def hook(network):
            injector.attach(network)
            with pytest.raises(RuntimeError, match="already has"):
                injector.attach(network)

        run_dra(graph, seed=1, network=NetworkModel(network_hook=hook))

    def test_total_blackout_drops_everything(self):
        graph = _graph(n=32)
        injector = FaultInjector(FaultPlan(drop_probability=1.0))
        result = run_dra(graph, seed=2, network=NetworkModel(network_hook=injector.attach))
        assert not result.success
        assert result.cycle is None
        assert injector.dropped == injector.offered > 0

    def test_window_limits_drops(self):
        graph = _graph(n=32)
        # Blackout only the first two delivery rounds (the leader
        # election's initial flood): the run must lose something, but
        # later traffic (deadline-driven BFS, walk) must survive.
        injector = FaultInjector(FaultPlan(drop_probability=1.0, window=(1, 2)))
        run_dra(graph, seed=2, network=NetworkModel(network_hook=injector.attach))
        assert 0 < injector.dropped < injector.offered

    def test_summary_counters(self):
        graph = _graph(n=32)
        injector = FaultInjector(FaultPlan(drop_probability=0.3, seed=9))
        run_dra(graph, seed=2, network=NetworkModel(network_hook=injector.attach))
        s = injector.summary()
        assert s["offered"] > 0
        assert 0.0 <= s["drop_rate"] <= 1.0
        assert s["dropped"] == injector.dropped


# ---------------------------------------------------------------------------
# Safety under faults: no false success, no exceptions
# ---------------------------------------------------------------------------


class TestSafetyUnderFaults:
    @pytest.mark.parametrize("drop_p", [0.02, 0.1, 0.5])
    def test_dra_never_reports_false_success_under_drops(self, drop_p):
        graph = _graph(n=40, seed=3)
        for seed in range(4):
            injector = FaultInjector(FaultPlan(drop_probability=drop_p, seed=seed))
            result = run_dra(graph, seed=seed, network=NetworkModel(network_hook=injector.attach))
            if result.success:
                assert is_hamiltonian_cycle(graph, result.cycle)
            else:
                assert result.cycle is None

    def test_dhc2_never_reports_false_success_under_drops(self):
        graph = _graph(n=48, seed=5)
        for seed in range(3):
            injector = FaultInjector(FaultPlan(drop_probability=0.05, seed=seed))
            result = run_dhc2(graph, delta=0.5, seed=seed,
                              network=NetworkModel(network_hook=injector.attach))
            if result.success:
                assert is_hamiltonian_cycle(graph, result.cycle)
            else:
                assert result.cycle is None

    def test_early_crash_of_every_node_fails_cleanly(self):
        graph = _graph(n=32)
        plan = FaultPlan(crash_rounds={v: 2 for v in range(32)})
        injector = FaultInjector(plan)
        result = run_dra(graph, seed=1, network=NetworkModel(network_hook=injector.attach))
        assert not result.success
        assert len(injector.crashed) == 32

    def test_single_crash_mid_run_is_fatal_but_clean(self):
        # A Hamiltonian cycle needs every node; killing one mid-run must
        # produce a clean failure.
        graph = _graph(n=32, seed=8)
        plan = FaultPlan(crash_rounds={5: 20})
        injector = FaultInjector(plan)
        result = run_dra(graph, seed=3, network=NetworkModel(network_hook=injector.attach))
        assert not result.success
        assert injector.crashed == {5}

    def test_crash_after_termination_is_noop(self):
        graph = _graph(n=32, seed=8)
        native = run_dra(graph, seed=4)
        plan = FaultPlan(crash_rounds={5: native.rounds + 10_000})
        injector = FaultInjector(plan)
        result = run_dra(graph, seed=4, network=NetworkModel(network_hook=injector.attach))
        assert result.success == native.success
        assert result.cycle == native.cycle
        assert injector.crashed == set()

    def test_dead_links_degrade_but_stay_safe(self):
        graph = _graph(n=32, seed=9)
        # Kill a band of links touching node 0.
        dead = frozenset((0, w) for w in graph.neighbor_list(0)[:3])
        injector = FaultInjector(FaultPlan(dead_links=dead))
        result = run_dra(graph, seed=2, network=NetworkModel(network_hook=injector.attach))
        if result.success:
            assert is_hamiltonian_cycle(graph, result.cycle)
            for u, v in dead:
                # A dead link cannot carry a cycle edge acknowledgement;
                # but the cycle may still *name* the edge only if the
                # walk never needed a message over it — verify overall
                # validity is already checked above.
                pass
        else:
            assert result.cycle is None

    @given(drop_p=st.floats(0.0, 0.8), seed=st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_no_exception_no_false_success_property(self, drop_p, seed):
        graph = _graph(n=24, seed=1)
        injector = FaultInjector(FaultPlan(drop_probability=drop_p, seed=seed))
        result = run_dra(graph, seed=seed, network=NetworkModel(network_hook=injector.attach))
        if result.success:
            assert is_hamiltonian_cycle(graph, result.cycle)
        else:
            assert result.cycle is None


class TestRegistryFaultPlan:
    """A fault plan rides the registry's ``network`` capability: sweeps
    mix fault scenarios without importing repro.congest.faults at call
    sites, and engine="auto" steers such runs onto the simulator — the
    only engine that can inject."""

    def test_repro_run_accepts_fault_plan(self):
        import repro

        graph = _graph(n=32, seed=9)
        result = repro.run(
            graph, "dra", seed=2,
            network=NetworkModel(fault_plan=FaultPlan(drop_probability=1.0)))
        assert result.engine == "congest"  # auto-steered to the simulator
        assert not result.success
        assert result.detail["faults"]["dropped"] > 0

    def test_benign_plan_preserves_native_decisions(self):
        import repro

        graph = _graph()
        native = run_dra(graph, seed=3)
        observed = repro.run(graph, "dra", engine="congest", seed=3,
                             network=NetworkModel(fault_plan=FaultPlan()))
        assert observed.success == native.success
        assert observed.cycle == native.cycle
        assert observed.rounds == native.rounds
        assert observed.detail["faults"]["offered"] > 0
        assert observed.detail["faults"]["dropped"] == 0

    def test_every_congest_hc_spec_declares_fault_plan(self):
        from repro.engines.registry import REGISTRY

        for algorithm in ("dra", "dhc1", "dhc2"):
            spec = REGISTRY.get(algorithm, "congest")
            assert "network" in spec.supported_kwargs, algorithm

    def test_fast_engine_rejects_fault_plan(self):
        from repro.engines.registry import REGISTRY

        with pytest.raises(ValueError, match="does not support"):
            REGISTRY.resolve("dra", "fast", require=["network"])

    def test_composes_with_existing_network_hook(self):
        from repro.congest.faults import compose_fault_hook

        seen = []
        hook, injector = compose_fault_hook(
            FaultPlan(drop_probability=1.0), network_hook=seen.append)
        graph = _graph(n=24, seed=4)
        result = run_dra(graph, seed=4, network=NetworkModel(network_hook=hook))
        assert len(seen) == 1  # the caller's hook still ran
        assert not result.success
        assert injector.dropped > 0
