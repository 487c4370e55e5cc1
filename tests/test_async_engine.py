"""Asynchronous-mode tests of the message-passing core (repro.congest.network).

Three contracts, in order of importance:

1. **Synchronous parity** — with unit latency, no faults, and no
   churn, the event queue degenerates into rounds and every congest
   algorithm reproduces its synchronous run *seed for seed* (success,
   cycle, rounds, messages, bits, steps).  The registry gate enforces
   this of every ``async_capable`` entry, so a new async engine cannot
   register without passing the oracle.
2. **Quiescence, not exceptions** — loss, reordering, and churn drive
   synchronous protocols into alien states; the engine must wind down
   cleanly (crash-stopping erroring nodes) and never report an
   unverified success.
3. **Determinism** — same seeds, same model => the identical event
   trace, so failures under loss are replayable.
"""

import hashlib

import pytest

from repro.congest import (
    FaultInjector,
    FaultPlan,
    LatencySpec,
    Network,
    NetworkModel,
)
from repro.congest.errors import RoundLimitExceeded
from repro.core import run_dhc1, run_dhc2, run_dra, run_turau
from repro.core.dhc2 import Dhc2Protocol, default_color_count
from repro.core.dra import DraProtocol
from repro.engines.registry import REGISTRY
from repro.verify import is_hamiltonian_cycle

from tests.conftest import dense_gnp

#: The four congest front ends and their minimal kwargs.
RUNNERS = [
    ("dra", run_dra, {}),
    ("dhc1", run_dhc1, {}),
    ("dhc2", run_dhc2, {"delta": 0.5}),
    ("turau", run_turau, {}),
]

ASYNC = NetworkModel(mode="async")


def _lossy(drop=0.01, seed=0):
    return NetworkModel(mode="async",
                        latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
                        fault_plan=FaultPlan(drop_probability=drop, seed=seed))


# ---------------------------------------------------------------------------
# Synchronous parity (the zero-latency / zero-drop pin)
# ---------------------------------------------------------------------------


class TestSyncParity:
    @pytest.mark.parametrize("name,runner,kwargs", RUNNERS,
                             ids=[r[0] for r in RUNNERS])
    def test_unit_latency_matches_sync_seed_for_seed(self, name, runner,
                                                     kwargs):
        graph = dense_gnp(32, seed=7)
        sync = runner(graph, seed=5, **kwargs)
        against = runner(graph, seed=5, network=ASYNC, **kwargs)
        assert against.engine == "async"
        assert against.success == sync.success
        assert against.cycle == sync.cycle
        assert against.rounds == sync.rounds
        assert against.messages == sync.messages
        assert against.bits == sync.bits
        assert against.steps == sync.steps

    def test_parity_summary_shape(self):
        graph = dense_gnp(32, seed=7)
        result = run_dra(graph, seed=5, network=ASYNC)
        stats = result.detail["async"]
        assert stats["limited"] == 0
        assert stats["dropped"] == 0
        assert stats["reordered"] == 0
        assert stats["protocol_errors"] == 0
        assert stats["delivered"] == result.messages
        # Unit latency: every message advances the causal chain by one
        # time unit, so virtual time tracks the Lamport depth exactly
        # for delivery-driven phases; wake-driven gaps only add time.
        assert stats["virtual_time"] >= stats["depth"]

    def test_registry_gate_every_async_capable_spec_passes_oracle(self):
        """Registering async_capable=True *is* a parity claim."""
        specs = [s for s in REGISTRY if s.async_capable]
        assert len(specs) >= 4  # dra, dhc1, dhc2, turau
        graph = dense_gnp(28, seed=3)
        for spec in specs:
            oracle = REGISTRY.get(spec.algorithm, "congest")
            sync = oracle.call(graph, seed=2)
            against = spec.call(graph, seed=2, network=ASYNC)
            for field in ("success", "cycle", "rounds", "messages", "bits",
                          "steps"):
                assert getattr(against, field) == getattr(sync, field), (
                    f"{spec.key}: async/sync diverge on {field}")

    def test_non_async_specs_do_not_claim_capability(self):
        for spec in REGISTRY:
            if spec.engine != "async":
                assert not spec.async_capable, spec.key


# ---------------------------------------------------------------------------
# Quiescence under loss, reordering, churn
# ---------------------------------------------------------------------------


class TestQuiescenceUnderFaults:
    @pytest.mark.parametrize("name,runner,kwargs", RUNNERS,
                             ids=[r[0] for r in RUNNERS])
    def test_loss_and_crash_end_in_quiescence_not_exception(self, name,
                                                            runner, kwargs):
        graph = dense_gnp(24, seed=1)
        model = NetworkModel(
            mode="async",
            latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
            fault_plan=FaultPlan(drop_probability=0.02, seed=3,
                                 crash_rounds={2: 9}),
        )
        result = runner(graph, seed=1, network=model, **kwargs)
        if result.success:
            assert is_hamiltonian_cycle(graph, result.cycle)
        else:
            assert result.cycle is None
        stats = result.detail["async"]
        assert stats["limited"] == 0  # wound down, not watchdogged
        assert result.detail["faults"]["crashed_nodes"] >= 1.0

    def test_dropped_counts_adversary_losses_only(self):
        # dhc1 halts nodes while messages are still in flight to them:
        # those are undeliverable, not dropped, when no plan is set.
        graph = dense_gnp(32, seed=7)
        result = run_dhc1(graph, seed=7, network=NetworkModel(
            mode="async",
            latency=LatencySpec(kind="uniform", low=0.5, high=1.5)))
        stats = result.detail["async"]
        assert stats["dropped"] == 0
        assert stats["undeliverable"] > 0

    def test_dropped_equals_fault_counter(self):
        graph = dense_gnp(24, seed=1)
        result = run_dhc1(graph, seed=1, network=_lossy(drop=0.05, seed=2))
        stats = result.detail["async"]
        assert stats["dropped"] == result.detail["faults"]["dropped"] > 0

    def test_total_blackout_is_a_clean_failure(self):
        graph = dense_gnp(24, seed=2)
        result = run_dra(graph, seed=2, network=_lossy(drop=1.0))
        assert not result.success
        assert result.cycle is None
        assert result.detail["async"]["delivered"] == 0

    def test_latency_reorders_messages(self):
        graph = dense_gnp(32, seed=4)
        result = run_dra(graph, seed=4,
                         network=NetworkModel(
                             mode="async",
                             latency=LatencySpec(kind="uniform",
                                                 low=0.5, high=1.5)))
        stats = result.detail["async"]
        assert stats["reordered"] > 0
        assert stats["stretch"] is not None and stats["stretch"] > 0
        if result.success:
            assert is_hamiltonian_cycle(graph, result.cycle)

    def test_watchdog_budget_still_enforced(self):
        graph = dense_gnp(24, seed=5)
        # The runners soften the watchdog into a failed result...
        result = run_dra(graph, seed=5, network=ASYNC, max_rounds=3)
        assert not result.success
        assert result.detail["async"]["limited"] == 1
        # ...but the raw engine raises, as it does in sync mode.
        net = Network(graph, lambda v: DraProtocol(v, graph.n),
                      seed=5, model=ASYNC)
        with pytest.raises(RoundLimitExceeded):
            net.run(max_rounds=3)


# ---------------------------------------------------------------------------
# Churn: crash and late join at virtual times
# ---------------------------------------------------------------------------


class TestChurn:
    def test_mid_run_churn_crash_is_fatal_but_clean(self):
        graph = dense_gnp(24, seed=6)
        model = NetworkModel(mode="async", churn=[("crash", 3, 8.0)])
        result = run_dra(graph, seed=6, network=model)
        assert not result.success  # a cycle needs every node
        stats = result.detail["async"]
        assert stats["churn_crashed"] == 1
        assert stats["limited"] == 0

    def test_late_join_defers_start(self):
        graph = dense_gnp(24, seed=7)
        model = NetworkModel(mode="async", churn=[("join", 2, 4.0)])
        result = run_dra(graph, seed=7, network=model)
        assert result.detail["async"]["churn_joined"] == 1
        if result.success:
            assert is_hamiltonian_cycle(graph, result.cycle)

    def test_churn_node_out_of_range_rejected(self):
        graph = dense_gnp(8, seed=0)
        model = NetworkModel(mode="async", churn=[("crash", 99, 1.0)])
        with pytest.raises(ValueError, match="churn event names node"):
            run_dra(graph, seed=0, network=model)


# ---------------------------------------------------------------------------
# Engine-level mechanics
# ---------------------------------------------------------------------------


class TestAsyncNetworkMechanics:
    def _net(self, *, model=None, record_events=False, n=20, seed=3):
        graph = dense_gnp(n, seed=seed)
        model = model if model is not None else ASYNC
        net = Network(graph, lambda v: DraProtocol(v, graph.n), seed=seed,
                      model=model, record_events=record_events)
        if model.fault_plan is not None:
            FaultInjector(model.fault_plan).attach(net)
        return graph, net

    def test_rejects_sync_engine_observers(self):
        _graph, net = self._net()
        net.round_observer = lambda network, outbox: None
        with pytest.raises(ValueError, match="synchronous-mode"):
            net.run(max_rounds=100)

    def test_event_trace_is_deterministic(self):
        model = _lossy(drop=0.05, seed=9)
        _g1, first = self._net(model=model, record_events=True)
        _g2, second = self._net(model=model, record_events=True)
        first.run(max_rounds=5000, raise_on_limit=False)
        second.run(max_rounds=5000, raise_on_limit=False)
        assert first.events  # non-trivial trace
        assert first.events == second.events
        assert first.async_summary() == second.async_summary()

    # sha256 of repr(events), recorded before the rotation flood and
    # the flood-min fan-out were sent through ``Context.multicast``.
    # Send order sets ``send_seq``, so a reordered fan-out changes the
    # digest.  DRA's drops start at round 40, after election and BFS,
    # so they hit the walk's renumbering floods; DHC2 under this
    # latency aborts in Phase 1, so its trace pins the colour,
    # flood-min and abort traffic.
    PINNED_TRACES = {
        # name: (n, graph and protocol seed, drop window, events, sha256)
        "dra": (32, 6, (40, 10**6), 6129,
                "dd99eb8f40f6959f540fd5f3b23e503303587307a5145666f777b5b954e61e62"),
        "dhc2": (24, 1, None, 811,
                 "b49e0fc29f4180f5b2560f889963b98006201c1ddf59c23e3b1ba1a0a5ad85f3"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_TRACES))
    def test_event_trace_is_pinned(self, name):
        n, seed, window, events, digest = self.PINNED_TRACES[name]
        if name == "dra":
            factory, words = (lambda v: DraProtocol(v, n)), 8
        else:
            k = default_color_count(n, 0.5)
            factory, words = (lambda v: Dhc2Protocol(v, n, k)), 12
        plan = FaultPlan(drop_probability=0.01, seed=1, window=window)
        model = NetworkModel(
            mode="async", fault_plan=plan, seed=2,
            latency=LatencySpec(kind="uniform", low=0.5, high=1.5))
        net = Network(dense_gnp(n, seed=seed), factory, seed=seed,
                      model=model, bandwidth_words=words, record_events=True)
        FaultInjector(plan).attach(net)
        net.run(max_rounds=20000, raise_on_limit=False)
        assert len(net.events) == events
        assert hashlib.sha256(repr(net.events).encode()).hexdigest() == digest

    def test_different_substrate_seed_changes_schedule(self):
        base = NetworkModel(mode="async",
                            latency=LatencySpec(kind="uniform",
                                                low=0.5, high=1.5))
        _g1, first = self._net(model=base, record_events=True)
        _g2, second = self._net(model=NetworkModel(
            mode="async", latency=base.latency, seed=1), record_events=True)
        first.run(max_rounds=5000, raise_on_limit=False)
        second.run(max_rounds=5000, raise_on_limit=False)
        assert first.events != second.events

    @pytest.mark.parametrize("model", [
        NetworkModel(fault_plan=FaultPlan(crash_rounds={2: 3, 5: 9},
                                          drop_probability=0.05, seed=1)),
        NetworkModel(mode="async",
                     latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
                     churn=[("crash", 3, 4.0), ("join", 6, 2.5),
                            ("crash", 8, 30.0)],
                     fault_plan=FaultPlan(crash_rounds={2: 3},
                                          drop_probability=0.05, seed=1)),
    ], ids=["sync", "async"])
    def test_halted_count_matches_contexts_at_every_step(self, model):
        # The run loop ends on a kept count of halted nodes; it must
        # equal the contexts' own flags after every instant.
        _graph, net = self._net(model=model)
        step, counts = net._step, []

        def checked(when):
            step(when)
            flags = [net.context(v).halted for v in range(net.n)]
            assert net._halted == sum(flags)
            assert (net._halted == net.n) == all(flags)
            counts.append(net._halted)

        net._step = checked
        net.run(max_rounds=5000, raise_on_limit=False)
        assert counts and max(counts) >= 2  # the crashes were counted

    def test_erroring_protocol_is_crash_stopped_not_fatal(self):
        graph = dense_gnp(12, seed=1)

        class Bomb(DraProtocol):
            def on_round(self, ctx, inbox):
                if self.node_id == 0 and ctx.round_index >= 3:
                    raise RuntimeError("alien state")
                super().on_round(ctx, inbox)

        net = Network(graph, lambda v: Bomb(v, graph.n), seed=1,
                      model=ASYNC)
        net.run(max_rounds=5000, raise_on_limit=False)
        assert net.async_summary()["protocol_errors"] == 1
        assert net.context(0).halted

    def test_repro_run_dispatches_async_engine(self):
        import repro

        graph = dense_gnp(24, seed=8)
        result = repro.run(graph, "dra", engine="async", seed=8)
        assert result.engine == "async"
        assert "async" in result.detail
        # auto never picks async implicitly: congest outranks it, so a
        # plain network= run stays on the synchronous simulator.
        auto = repro.run(graph, "dra", seed=8,
                         network=NetworkModel().canonical())
        assert auto.engine == "congest"

    def test_json_network_document_accepted(self):
        import repro

        graph = dense_gnp(24, seed=9)
        result = repro.run(
            graph, "dra", engine="async", seed=9,
            network={"latency": {"kind": "fixed", "value": 2.0}})
        stats = result.detail["async"]
        assert stats["reordered"] == 0  # fixed latency cannot reorder
        assert result.engine == "async"
