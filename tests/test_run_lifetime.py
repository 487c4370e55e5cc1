"""A finished run frees itself: no network is left behind as cyclic garbage.

Every registered (algorithm, engine) pair, the k-machine conversion
path and a trace-recorded run are run once with the cyclic collector
disabled; afterwards ``gc.collect()`` must find nothing.  A ``congest``
or ``async`` run ends by unlinking its contexts from the network and
its sub-machines from their hosts (``Network._end_run``), so what the
run built is freed by reference counting.  The second half checks what
a finished network keeps: readable state, and contexts that refuse
every action by name.
"""

import gc

import pytest

from repro.congest import (
    FaultPlan,
    LatencySpec,
    Network,
    NetworkModel,
    Protocol,
    RunEndedError,
)
from repro.congest.errors import HaltedNodeError
from repro.core import run_dra
from repro.core.dra import DraProtocol
from repro.engines.registry import REGISTRY
from repro.graphs import gnp_random_graph
from repro.kmachine import run_converted, run_converted_hc
from repro.trace import TraceRecorder

from tests.conftest import dense_gnp

#: Dense enough that every algorithm gets through all of its phases.
GRAPH = gnp_random_graph(36, 0.5, seed=2)


def cyclic_garbage(call) -> int:
    """Objects only the cyclic collector frees, left by one ``call()``."""
    call()  # warm: first calls fill process-wide caches
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _registry_call(spec):
    kwargs = {"k_machines": 4} if spec.engine == "kmachine" else {}
    return lambda: spec.call(GRAPH, seed=3, **kwargs)


@pytest.mark.parametrize("spec", sorted(REGISTRY, key=lambda s: s.key),
                         ids=lambda s: f"{s.algorithm}-{s.engine}")
def test_registered_pair_leaves_no_cyclic_garbage(spec):
    assert cyclic_garbage(_registry_call(spec)) == 0


@pytest.mark.parametrize("algorithm", REGISTRY.convertible_algorithms())
def test_kmachine_conversion_leaves_no_cyclic_garbage(algorithm):
    assert cyclic_garbage(lambda: run_converted_hc(
        GRAPH, algorithm=algorithm, k_machines=4, seed=3)) == 0


def test_converted_network_leaves_no_cyclic_garbage():
    n = GRAPH.n
    assert cyclic_garbage(lambda: run_converted(
        GRAPH, lambda v: DraProtocol(v, n), k=4, max_rounds=20_000)) == 0


def test_trace_recorded_run_leaves_no_cyclic_garbage():
    def traced():
        recorder = TraceRecorder()
        run_dra(GRAPH, seed=3, network=NetworkModel(network_hook=recorder.attach))
        assert recorder.total_seen > 0

    assert cyclic_garbage(traced) == 0


@pytest.mark.parametrize("model", [
    NetworkModel(fault_plan=FaultPlan(drop_probability=0.02, seed=1)),
    NetworkModel(mode="async",
                 latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
                 churn=[("crash", 3, 4.0), ("join", 6, 2.5)],
                 fault_plan=FaultPlan(crash_rounds={2: 3}, seed=1)),
], ids=["sync-faults", "async-churn-faults"])
def test_faulty_run_with_event_trace_leaves_no_cyclic_garbage(model):
    n = GRAPH.n

    def run():
        net = Network(GRAPH, lambda v: DraProtocol(v, n), seed=3, model=model,
                      record_events=model.is_async(), audit_memory=True)
        net.run(max_rounds=20_000, raise_on_limit=False)

    assert cyclic_garbage(run) == 0


class _Quiet(Protocol):
    """Node 0 pings a neighbour once; nobody halts, so the run goes quiet."""

    def __init__(self, v):
        self.v = v
        self.heard = 0

    def on_start(self, ctx):
        if self.v == 0:
            ctx.send(ctx.neighbors[0], "ping")

    def on_round(self, ctx, inbox):
        self.heard += len(inbox)


class TestAfterTheRun:
    @pytest.fixture
    def quiet(self):
        net = Network(dense_gnp(12, seed=1), _Quiet, seed=1)
        net.run(max_rounds=10)
        return net

    def test_actions_fail_by_name(self, quiet):
        ctx = quiet.context(0)
        assert not ctx.halted
        peer = ctx.neighbors[0]
        with pytest.raises(RunEndedError, match="node 0 tried to send"):
            ctx.send(peer, "x")
        with pytest.raises(RunEndedError, match="node 0 tried to send"):
            ctx.multicast([peer], ("x",))
        with pytest.raises(RunEndedError, match="request a wake-up"):
            ctx.request_wake(quiet.round_index + 1)
        with pytest.raises(RunEndedError, match="edge_free"):
            ctx.edge_free(peer)
        with pytest.raises(RunEndedError, match="halt"):
            ctx.halt()
        assert quiet.metrics.messages == 1

    def test_context_keeps_what_a_node_may_read(self, quiet):
        ctx = quiet.context(3)
        assert (ctx.n, ctx.round_index, ctx.halted) == (12, 1, False)
        assert ctx.neighbors and ctx.is_neighbor(ctx.neighbors[0])
        assert sum(p.heard for p in quiet.protocols) == 1

    def test_a_halted_node_still_fails_as_halted(self):
        graph = dense_gnp(16, seed=2)
        net = Network(graph, lambda v: DraProtocol(v, graph.n), seed=2)
        net.run(max_rounds=20_000)
        ctx = net.context(0)
        assert ctx.halted
        with pytest.raises(HaltedNodeError):
            ctx.send(ctx.neighbors[0], "x")

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_protocol_state_metrics_and_summary_stay_readable(self, mode):
        graph = dense_gnp(24, seed=5)
        net = Network(graph, lambda v: DraProtocol(v, graph.n), seed=5,
                      model=NetworkModel(mode=mode), audit_memory=True)
        metrics = net.run(max_rounds=20_000)
        assert all(net.context(v).halted for v in range(net.n))
        walks = [p.walk for p in net.protocols]
        assert all(w.done and w.success for w in walks)
        succ = {v: w.succ for v, w in enumerate(walks)}
        v, seen = 0, set()
        while v not in seen:
            seen.add(v)
            v = succ[v]
        assert len(seen) == net.n
        assert metrics.messages == int(metrics.sent_per_node.sum()) > 0
        assert metrics.max_state_words() > 0
        if mode == "async":
            assert net.async_summary()["delivered"] == metrics.messages

    def test_machines_are_unlinked_from_their_hosts(self):
        graph = dense_gnp(16, seed=2)
        net = Network(graph, lambda v: DraProtocol(v, graph.n), seed=2)
        net.run(max_rounds=20_000)
        for proto in net.protocols:
            for machine in (proto.election, proto.bfs, proto.walk):
                assert machine._host is None
                assert getattr(machine, "_send", None) is None

    def test_a_raising_run_ends_too(self):
        class Loud(_Quiet):
            def on_round(self, ctx, inbox):
                raise RuntimeError("boom")

        net = Network(dense_gnp(12, seed=1), Loud, seed=1)
        with pytest.raises(RuntimeError, match="boom"):
            net.run(max_rounds=10)
        with pytest.raises(RunEndedError):
            net.context(0).request_wake(5)
