"""Tests for the CONGEST simulator: model rules, delivery, metrics."""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.congest import (
    BandwidthExceededError,
    DuplicateSendError,
    HaltedNodeError,
    Message,
    Network,
    NotANeighborError,
    Protocol,
    RoundLimitExceeded,
    payload_bits,
    state_size_words,
    word_bits,
)
from repro.congest import FaultPlan, LatencySpec, NetworkModel
from repro.congest.message import TAG_BITS
from repro.core import run_dhc1, run_dhc2, run_dra, run_turau, run_upcast
from repro.graphs import Graph
from repro.kmachine import run_converted_hc
from repro.trace import TraceRecorder

from tests.conftest import dense_gnp, path_graph, ring


class Silent(Protocol):
    def __init__(self, v):
        self.v = v

    def on_round(self, ctx, inbox):
        ctx.halt()


class TestMessageAccounting:
    def test_word_bits(self):
        assert word_bits(1) == 1
        assert word_bits(255) == 8
        assert word_bits(256) == 9

    def test_payload_bits_counts_fields(self):
        assert payload_bits(("k", 1, 2, 3), 255) == 8 + 3 * 8

    def test_message_kind(self):
        msg = Message(0, ("ping", 7))
        assert msg.kind == "ping"
        assert msg.bits(255) == 8 + 8

    def test_message_is_an_immutable_value(self):
        msg = Message(sender=3, payload=("ping", 7))
        assert (msg.sender, msg.payload) == (3, ("ping", 7))
        with pytest.raises(AttributeError):
            msg.sender = 4
        with pytest.raises(AttributeError):
            msg.payload = ("pong",)
        twin = Message(3, ("ping", 7))
        assert msg == twin and hash(msg) == hash(twin)
        assert msg != Message(2, ("ping", 7))
        assert len({msg, twin}) == 1
        assert repr(msg) == "Message(sender=3, payload=('ping', 7))"
        assert pickle.loads(pickle.dumps(msg)) == msg


class TestModelRules:
    def test_bandwidth_enforced(self):
        class Chatty(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.neighbors[0], "big", *range(50))

            def on_round(self, ctx, inbox):
                ctx.halt()

        net = Network(ring(4), lambda v: Chatty(), bandwidth_words=8)
        with pytest.raises(BandwidthExceededError):
            net.run(max_rounds=5)

    def test_one_message_per_edge_per_round(self):
        class Doubler(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.neighbors[0], "a")
                ctx.send(ctx.neighbors[0], "b")

            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(DuplicateSendError):
            Network(ring(4), lambda v: Doubler()).run(max_rounds=5)

    def test_non_neighbor_send_rejected(self):
        class Reacher(Protocol):
            def on_start(self, ctx):
                ctx.send((ctx.node_id + 2) % ctx.n, "x")

            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(NotANeighborError):
            Network(ring(6), lambda v: Reacher()).run(max_rounds=5)

    def test_negative_id_send_rejected(self):
        # -1 is multicast's default skip id; a send to it is still refused.
        class Reacher(Protocol):
            def on_start(self, ctx):
                ctx.send(-1, "x")

            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(NotANeighborError):
            Network(ring(6), lambda v: Reacher()).run(max_rounds=5)

    def test_halted_node_send_rejected(self):
        class Ghost(Protocol):
            def on_start(self, ctx):
                ctx.halt()
                ctx.send(ctx.neighbors[0], "x")

            def on_round(self, ctx, inbox):
                ctx.halt()

        net = Network(ring(4), lambda v: Ghost())
        with pytest.raises(HaltedNodeError):
            net.run(max_rounds=5)
        assert net.metrics.messages == 0 and net.metrics.bits == 0

    def test_edge_free_reflects_usage(self):
        seen = {}

        class Checker(Protocol):
            def on_start(self, ctx):
                seen["before"] = ctx.edge_free(ctx.neighbors[0])
                ctx.send(ctx.neighbors[0], "x")
                seen["after"] = ctx.edge_free(ctx.neighbors[0])
                ctx.halt()

            def on_round(self, ctx, inbox):
                ctx.halt()

        Network(ring(3), lambda v: Checker()).run(max_rounds=3)
        assert seen == {"before": True, "after": False}



class _Fanout(Protocol):
    """Node 0 sends one payload to a list of destinations on start."""

    def __init__(self, v, scenario, use_multicast, log):
        self.v = v
        self.scenario = scenario
        self.use_multicast = use_multicast
        self.log = log

    def on_start(self, ctx):
        if self.v != 0:
            return
        before, dests, payload, skip = self.scenario
        if before == "halt":
            ctx.halt()
        elif before == "send-2":
            ctx.send(2, "x")
        try:
            if self.use_multicast:
                ctx.multicast(dests, payload, skip)
            else:
                for dest in dests:
                    if dest != skip:
                        ctx.send(dest, *payload)
        except Exception as exc:  # noqa: BLE001 — the error is the datum
            self.log.append(("error", type(exc).__name__))

    def on_round(self, ctx, inbox):
        self.log.extend(("got", ctx.node_id, m.sender, m.payload) for m in inbox)
        ctx.halt()


class TestMulticast:
    """``Context.multicast`` is a loop of ``send``, down to its errors."""

    GRAPH = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (4, 5)])
    PAYLOAD = ("m", 7, 8)
    BIG = ("m", *range(50))
    # name: (before the fan-out, destinations, payload, skip), error
    SCENARIOS = {
        "clean": ((None, [1, 2, 3, 4], PAYLOAD, 3), None),
        "halted": (("halt", [1, 2, 3], PAYLOAD, -1), HaltedNodeError),
        "halted-nothing-to-send": (("halt", [3], PAYLOAD, 3), None),
        "not-a-neighbour-mid-list": ((None, [1, 2, 5, 3], PAYLOAD, -1),
                                     NotANeighborError),
        "edge-already-used": (("send-2", [1, 2, 3], PAYLOAD, -1),
                              DuplicateSendError),
        "repeated-destination": ((None, [1, 2, 1], PAYLOAD, -1),
                                 DuplicateSendError),
        "oversized": ((None, [1, 2], BIG, -1), BandwidthExceededError),
        # The rules are checked in send's order, bit budget last.
        "oversized-to-a-non-neighbour": ((None, [5, 1], BIG, -1),
                                         NotANeighborError),
        "oversized-over-a-used-edge": (("send-2", [2, 1], BIG, -1),
                                       DuplicateSendError),
    }
    MODELS = {
        "sync": NetworkModel(),
        "async-unit": NetworkModel(mode="async"),
        "async-uniform": NetworkModel(
            mode="async", latency=LatencySpec(kind="uniform", low=0.5, high=1.5)),
    }

    def _run(self, scenario, model, use_multicast):
        log = []
        net = Network(self.GRAPH,
                      lambda v: _Fanout(v, scenario, use_multicast, log),
                      model=model, record_events=model.is_async())
        net.run(max_rounds=5)
        metrics = net.metrics
        return (log, metrics.messages, metrics.bits,
                metrics.sent_per_node.tolist(), net.events)

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_matches_a_loop_of_sends(self, name, model):
        scenario, error = self.SCENARIOS[name]
        got = self._run(scenario, self.MODELS[model], use_multicast=True)
        assert got == self._run(scenario, self.MODELS[model], use_multicast=False)
        log = got[0]
        errors = [entry[1] for entry in log if entry[0] == "error"]
        assert errors == ([] if error is None else [error.__name__])
        received = sorted(entry[1] for entry in log
                          if entry[0] == "got" and entry[3] == scenario[2])
        expected = {
            "clean": [1, 2, 4],
            "not-a-neighbour-mid-list": [1, 2],
            "edge-already-used": [1],
            "repeated-destination": [1, 2],
        }.get(name, [])
        assert received == expected
        # By value, not only against the loop of ``send`` (itself a
        # one-destination multicast): every fan-out message carries two
        # fields, the "send-2" message none.
        early = int(scenario[0] == "send-2")
        messages = len(expected) + early
        assert got[1] == messages
        assert got[2] == (len(expected) * (TAG_BITS + 2 * word_bits(6))
                          + early * TAG_BITS)
        assert got[3] == [messages, 0, 0, 0, 0, 0]

class TestDeliverySemantics:
    def test_next_round_delivery_and_sender(self):
        log = []

        class PingPong(Protocol):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(1, "ping", 42)

            def on_round(self, ctx, inbox):
                for msg in inbox:
                    log.append((ctx.round_index, msg.sender, msg.payload))
                ctx.halt()

        Network(path_graph(2), lambda v: PingPong()).run(max_rounds=4)
        assert log == [(1, 0, ("ping", 42))]

    def test_inbox_sorted_by_sender(self):
        order = []

        class Collect(Protocol):
            def on_start(self, ctx):
                if ctx.node_id != 2:
                    ctx.send(2, "hi")

            def on_round(self, ctx, inbox):
                order.extend(m.sender for m in inbox)
                ctx.halt()

        g = Graph(4, [(0, 2), (1, 2), (3, 2)])
        Network(g, lambda v: Collect()).run(max_rounds=4)
        assert order == [0, 1, 3]

    def test_wake_scheduling(self):
        fired = []

        class Sleeper(Protocol):
            def on_start(self, ctx):
                ctx.request_wake(5)

            def on_round(self, ctx, inbox):
                fired.append(ctx.round_index)
                ctx.halt()

        Network(ring(3), lambda v: Sleeper()).run(max_rounds=10)
        assert fired == [5, 5, 5]

    def test_wake_must_be_future(self):
        class BadWake(Protocol):
            def on_start(self, ctx):
                ctx.request_wake(0)

            def on_round(self, ctx, inbox):
                ctx.halt()

        with pytest.raises(ValueError):
            Network(ring(3), lambda v: BadWake()).run(max_rounds=3)


class TestTermination:
    def test_quiescence_without_halt(self):
        class Once(Protocol):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(ctx.neighbors[0], "x")

            def on_round(self, ctx, inbox):
                pass  # never halts, never sends again

        net = Network(ring(4), lambda v: Once())
        metrics = net.run(max_rounds=100)
        assert metrics.rounds == 1  # quiesced after the single delivery

    def test_round_limit_raises(self):
        class Forever(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.neighbors[0], "x")

            def on_round(self, ctx, inbox):
                ctx.send(ctx.neighbors[0], "x")

        with pytest.raises(RoundLimitExceeded):
            Network(ring(4), lambda v: Forever()).run(max_rounds=10)

    def test_round_limit_soft(self):
        class Forever(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.neighbors[0], "x")

            def on_round(self, ctx, inbox):
                ctx.send(ctx.neighbors[0], "x")

        metrics = Network(ring(4), lambda v: Forever()).run(
            max_rounds=10, raise_on_limit=False)
        assert metrics.rounds == 10


class TestMetrics:
    def test_message_and_bit_totals(self):
        class OneShot(Protocol):
            def on_start(self, ctx):
                if ctx.node_id == 0:
                    ctx.send(ctx.neighbors[0], "x", 1, 2)

            def on_round(self, ctx, inbox):
                ctx.halt()

        net = Network(ring(4), lambda v: OneShot())
        metrics = net.run(max_rounds=4)
        assert metrics.messages == 1
        assert metrics.bits == payload_bits(("x", 1, 2), 4)
        assert metrics.max_sent() == 1

    def test_per_node_rng_deterministic(self):
        draws = {}

        class Draw(Protocol):
            def on_start(self, ctx):
                draws.setdefault(ctx.node_id, []).append(int(ctx.rng.integers(1000)))
                ctx.halt()

            def on_round(self, ctx, inbox):
                ctx.halt()

        Network(ring(4), lambda v: Draw(), seed=9).run(max_rounds=2)
        first = dict(draws)
        draws.clear()
        Network(ring(4), lambda v: Draw(), seed=9).run(max_rounds=2)
        assert draws == first
        assert len(set(tuple(v) for v in first.values())) > 1  # nodes independent

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_sent_per_node_sums_to_messages(self, mode):
        from repro.core.dra import DraProtocol

        g = dense_gnp(24, c=8, seed=3)
        net = Network(g, lambda v: DraProtocol(v, g.n), seed=1,
                      model=NetworkModel(mode=mode))
        metrics = net.run(max_rounds=50_000)
        assert metrics.messages > 0
        assert metrics.sent_per_node.shape == (g.n,)
        assert metrics.sent_per_node.sum() == metrics.messages

    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_sent_per_node_after_soft_round_limit(self, mode):
        class Forever(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.neighbors[0], "x")

            def on_round(self, ctx, inbox):
                ctx.send(ctx.neighbors[0], "x")

        net = Network(ring(4), lambda v: Forever(), model=NetworkModel(mode=mode))
        metrics = net.run(max_rounds=10, raise_on_limit=False)
        assert metrics.messages > 0
        assert metrics.sent_per_node.sum() == metrics.messages
        assert metrics.max_sent() == metrics.sent_per_node.max()

    def test_sent_per_node_after_protocol_error(self):
        class Doubler(Protocol):
            def on_start(self, ctx):
                ctx.send(ctx.neighbors[0], "a")
                ctx.send(ctx.neighbors[0], "b")

            def on_round(self, ctx, inbox):
                ctx.halt()

        net = Network(ring(4), lambda v: Doubler())
        with pytest.raises(DuplicateSendError):
            net.run(max_rounds=5)
        assert net.metrics.messages == net.metrics.sent_per_node.sum() == 1

    def test_state_size_words(self):
        assert state_size_words(5) == 1
        assert state_size_words([1, 2, 3]) == 4
        assert state_size_words({"a": 1}) == 3
        assert state_size_words(np.zeros(10)) == 11


# ---------------------------------------------------------------------------
# Golden synchronous outputs
# ---------------------------------------------------------------------------


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


GOLDEN_RUNNERS = {
    "dra": (run_dra, {}),
    "dhc1": (run_dhc1, {}),
    "dhc2": (run_dhc2, {"delta": 1.0}),
    "turau": (run_turau, {}),
}


class TestCoreGolden:
    """Exact synchronous outputs of the message-passing core.

    The values were recorded from the round-loop simulator before it
    became a mode of the event-queue core.  They pin what a refactor of
    delivery, the fault filter's position, the round observer's idle
    rounds or the audit cadence could silently change.
    """

    GRAPH_N = 64
    SEED = 4

    @pytest.fixture(scope="class")
    def graph(self):
        return dense_gnp(self.GRAPH_N)

    AUDIT = {
        "dra": (1987, 24522, 855226, "3a090801d639fb6dbfaaf5e4b1c9d505"
                "0f4d9cfe4ccd04b417db8da364e217c4"),
        "dhc1": (61, 11886, 165144, "2a9949c4701b69a2d58eea1a160d1ef0"
                 "0711ed487edb67ec75a77149d82ad44d"),
        "dhc2": (1989, 26562, 885826, "4a9a52dfefb78342ff67cbfdfed25d66"
                 "95440a66c99d5d973dea2820cd36b22d"),
        "turau": (677, 5069, 72458, "238c322961393b15e487dfffa7717f37"
                  "24be6fa2d01cd68af50ed75b87b0ba95"),
    }

    @pytest.mark.parametrize("name", sorted(AUDIT))
    def test_audited_runs(self, graph, name):
        runner, kwargs = GOLDEN_RUNNERS[name]
        result = runner(graph, seed=self.SEED, audit_memory=True, **kwargs)
        assert (result.rounds, result.messages, result.bits,
                _sha256(result.detail["state_words"])) == self.AUDIT[name]

    FAULTS = {
        "dra": (False, 108, 7035, 105231,
                {"offered": 7035.0, "dropped": 202.0,
                 "drop_rate": 0.028713574982231697, "crashed_nodes": 1.0}),
        "dhc1": (False, 108, 9046, 121319,
                 {"offered": 7035.0, "dropped": 202.0,
                  "drop_rate": 0.028713574982231697, "crashed_nodes": 1.0}),
        "dhc2": (False, 113, 10990, 150465,
                 {"offered": 8979.0, "dropped": 235.0,
                  "drop_rate": 0.026172179530014477, "crashed_nodes": 1.0}),
        "turau": (False, 4075, 5803, 124719,
                  {"offered": 5803.0, "dropped": 214.0,
                   "drop_rate": 0.03687747716698259, "crashed_nodes": 1.0}),
    }

    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_plan_runs(self, graph, name):
        runner, kwargs = GOLDEN_RUNNERS[name]
        plan = FaultPlan(drop_probability=0.02, seed=3, crash_rounds={2: 9},
                         dead_links={(0, graph.neighbor_list(0)[0])})
        result = runner(graph, seed=self.SEED,
                        network=NetworkModel(fault_plan=plan), **kwargs)
        assert (result.success, result.rounds, result.messages, result.bits,
                result.detail["faults"]) == self.FAULTS[name]

    # (congest_rounds, kmachine_rounds, cross_words, max_round_link_words,
    # local_words, sha256 of [link_words, recv_words_per_machine]).
    KMACHINE = {
        "dra": (1987, 3477, 83924, 656, 34748,
                "30dd57fe4f75f6adf8fc826423e056634da4c28ed14769f8fb67c44da28732bb"),
        "dhc1": (61, 272, 16181, 656, 5223,
                 "db86b6a161b27e5cd3b381ec7b86ef8d6dc00ebf093bad0fbf4f18def3bb9a8b"),
        "dhc2": (1989, 3519, 87020, 656, 35732,
                 "5641a5359692a9190edba2f6ee2bed56c33541796ce06106fa0b4879bb6d715e"),
    }

    @pytest.mark.parametrize("name", sorted(KMACHINE))
    def test_kmachine_conversion(self, graph, name):
        _runner, kwargs = GOLDEN_RUNNERS[name]
        _result, metrics = run_converted_hc(graph, algorithm=name,
                                            k_machines=4, seed=self.SEED,
                                            **kwargs)
        assert (metrics.congest_rounds, metrics.kmachine_rounds,
                metrics.cross_words, metrics.max_round_link_words,
                metrics.local_words,
                _sha256([metrics.link_words.tolist(),
                         metrics.recv_words_per_machine.tolist()])
                ) == self.KMACHINE[name]

    def test_trace_recorder(self, graph):
        recorder = TraceRecorder()
        run_dra(graph, seed=self.SEED,
                network=NetworkModel(network_hook=recorder.attach))
        rounds = recorder.rounds()
        assert len(rounds) == 1278
        assert _sha256(rounds) == ("20584aec989a4c776153828a4e7d5e68"
                                   "41be7bde74ab2a8c0be3592530e9b718")
        assert recorder.by_kind() == {
            "rw.r": 17010, "lm.m": 4949, "bt.e": 1977, "rw.p": 334,
            "bt.a": 63, "bt.d": 63, "bt.c": 63, "rw.w": 63}

    # The audited runs above stop short of three send paths: DHC1 fails
    # before its barriers and DHC2 at delta = 1 has one colour class.
    # These reach the paced queue hand-over (DHC1's barriers, DHC2's
    # merges and rebuilds) and Upcast's "fail" broadcast.
    # name: (runner, graph density c, kwargs), then
    # (success, rounds, messages, bits, sha256 of state_words).
    SEND_PATHS = {
        "dhc1-barriers": (
            (run_dhc1, 16.0, {}),
            (True, 453, 20457, 350402, "b9328378fc59bb36701b17dff3d547d2"
             "06d73c28c0ae515c1578ded64c7d227c")),
        "dhc2-merges": (
            (run_dhc2, 16.0, {"delta": 0.75}),
            (True, 729, 22839, 533244, "f690e86d1b6d7ff6d0fdb1ae9153f0c7"
             "8a13ae9b7f25a3c72dd4d368a9b58613")),
        "upcast-fail": (
            (run_upcast, 8.0, {"c_prime": 0.2, "solver_restarts": 2}),
            (False, 44, 7429, 112534, "b8415fa8411a91b908de4cb4ab8888fa"
             "995836c767edd678764ade1c37b6f0f9")),
    }

    @pytest.mark.parametrize("name", sorted(SEND_PATHS))
    def test_send_path_runs(self, name):
        (runner, c, kwargs), pinned = self.SEND_PATHS[name]
        result = runner(dense_gnp(self.GRAPH_N, c=c), seed=0,
                        audit_memory=True, **kwargs)
        assert (result.success, result.rounds, result.messages, result.bits,
                _sha256(result.detail["state_words"])) == pinned
