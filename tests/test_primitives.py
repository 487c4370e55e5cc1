"""Tests for the distributed primitives: flood-min, BFS tree, barrier."""

import pytest

from repro.congest import LatencySpec, Network, NetworkModel, Protocol
from repro.core.rotation import RotationWalk
from repro.graphs import Graph, bfs_distances, gnp_random_graph
from repro.primitives import BfsTree, FloodMin, SubMachine, SubMachineHost
from repro.primitives.barrier import Barrier

from tests.conftest import path_graph, ring


class _Host(Protocol, SubMachineHost):
    """Minimal host driving one machine factory through the engine."""

    def __init__(self, node_id, factory):
        SubMachineHost.__init__(self)
        self.node_id = node_id
        self.factory = factory
        self.machine = None

    def on_start(self, ctx):
        self.machine = self.factory(ctx)
        self.activate(ctx, self.machine)

    def on_round(self, ctx, inbox):
        self.dispatch(ctx, inbox)
        if self.machine.done and not ctx.halted:
            ctx.halt()


def run_machines(graph, factory, *, seed=0, max_rounds=500):
    net = Network(graph, lambda v: _Host(v, factory), seed=seed)
    net.run(max_rounds=max_rounds)
    return [p.machine for p in net.protocols]


class TestFloodMin:
    def test_elects_global_minimum(self):
        g = ring(9)
        machines = run_machines(
            g, lambda ctx: FloodMin("lm", ctx.neighbors, budget=12))
        assert all(m.leader == 0 for m in machines)
        assert [m.is_leader for m in machines].count(True) == 1

    def test_budget_too_small_splits_election(self):
        g = path_graph(10)
        machines = run_machines(
            g, lambda ctx: FloodMin("lm", ctx.neighbors, budget=2))
        # The far end cannot have heard of node 0 in 2 rounds.
        assert machines[9].leader != 0

    def test_empty_peer_set_keeps_own_leader(self):
        g = ring(6)
        machines = run_machines(g, lambda ctx: FloodMin("lm", [], budget=4))
        assert all(m.leader == i for i, m in enumerate(machines))
        assert all(m.is_leader for m in machines)

    def test_restricted_peer_set_limits_propagation(self):
        g = ring(6)
        # Peers = even-id neighbours only.  On a 6-ring every even node
        # has two odd neighbours (empty peer list -> never sends, but
        # still *hears*), and every odd node has two even peers.  Ids
        # therefore flow exactly one hop, odd -> even, and stop:
        # evens adopt min(self, odd neighbours); odds hear nothing.
        machines = run_machines(
            g,
            lambda ctx: FloodMin(
                "lm", [v for v in ctx.neighbors if v % 2 == 0], budget=4),
        )
        expected = {0: 0, 1: 1, 2: 1, 3: 3, 4: 3, 5: 5}
        assert {i: m.leader for i, m in enumerate(machines)} == expected


class TestBfsTree:
    def _build(self, graph, root=0, seed=0):
        machines = run_machines(
            graph,
            lambda ctx: BfsTree(
                "bt", ctx.neighbors, is_root=ctx.node_id == root,
                deadline=400),
            seed=seed,
        )
        return machines

    def test_depths_match_true_bfs(self):
        g = gnp_random_graph(60, 0.12, seed=3)
        machines = self._build(g)
        truth = bfs_distances(g, 0)
        for v, m in enumerate(machines):
            assert m.done and not m.failed
            assert m.depth == truth[v]

    def test_parent_child_consistency(self):
        g = gnp_random_graph(50, 0.15, seed=5)
        machines = self._build(g)
        for v, m in enumerate(machines):
            for c in m.children:
                assert machines[c].parent == v
            if m.parent >= 0:
                assert v in machines[m.parent].children

    def test_size_and_depth_broadcast(self):
        g = ring(12)
        machines = self._build(g)
        assert all(m.size == 12 for m in machines)
        assert all(m.tree_depth == 6 for m in machines)

    def test_spanning(self):
        g = gnp_random_graph(80, 0.1, seed=9)
        machines = self._build(g)
        roots = sum(1 for m in machines if m.parent < 0)
        assert roots == 1
        assert sum(len(m.children) for m in machines) == 79

    def test_max_load_aggregated(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])  # star
        machines = self._build(g)
        assert all(m.max_load == 5 for m in machines)

    def test_disconnected_participants_fail(self):
        g = Graph(4, [(0, 1), (2, 3)])
        machines = run_machines(
            g,
            lambda ctx: BfsTree("bt", ctx.neighbors,
                                is_root=ctx.node_id == 0, deadline=30),
        )
        assert machines[0].done and not machines[0].failed
        assert machines[2].failed and machines[3].failed

    def test_min_id_parent_choice(self):
        # Node 3 is adjacent to both 1 and 2 at depth 1: must pick 1.
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        machines = self._build(g)
        assert machines[3].parent == 1


def _loop_of_sends(ctx, dest, kind, *fields):
    """An injected BfsTree transport: one ``ctx.send`` per message."""
    ctx.send(dest, kind, *fields)


class TestBfsTransports:
    """The direct transport fans out with ``ctx.multicast``; an injected
    transport sends one message at a time.  Both must run the same
    protocol: same trees, same traffic, same async event trace."""

    MODELS = {
        "sync": NetworkModel(),
        "async-unit": NetworkModel(mode="async"),
        "async-uniform": NetworkModel(
            mode="async", latency=LatencySpec(kind="uniform", low=0.5, high=1.5),
            seed=5),
    }

    @staticmethod
    def _run(graph, model, *, send, tie_break, peers_of=None, deadline=400, seed=1):
        def factory(ctx):
            peers = ctx.neighbors if peers_of is None else peers_of(ctx)
            return BfsTree("bt", peers, is_root=ctx.node_id == 0,
                           deadline=deadline, send=send, tie_break=tie_break)

        net = Network(graph, lambda v: _Host(v, factory), seed=seed, model=model,
                      record_events=model.is_async())
        metrics = net.run(max_rounds=deadline + 100)
        trees = [(m.done, m.failed, m.parent, list(m.children), m.depth,
                  m.tree_depth, m.size) for m in (p.machine for p in net.protocols)]
        return (trees, metrics.sent_per_node.tolist(), metrics.messages,
                metrics.bits, metrics.rounds, net.events)

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("tie_break", ["min", "random"])
    def test_multicast_equals_loop_of_sends(self, model, tie_break):
        graph = gnp_random_graph(40, 0.15, seed=2)
        direct = self._run(graph, self.MODELS[model], send=None, tie_break=tie_break)
        loop = self._run(graph, self.MODELS[model], send=_loop_of_sends,
                         tie_break=tie_break)
        assert direct == loop
        if self.MODELS[model].is_async():
            assert direct[5]  # a non-trivial event trace
        trees = direct[0]
        assert all(done and not failed for done, failed, *_ in trees)
        assert sum(len(children) for _d, _f, _p, children, *_ in trees) == 39

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_disconnected_participants_hit_the_deadline(self, model):
        # Participants are the same-parity neighbours: the odd nodes
        # never hear from root 0 and fail at the deadline.
        graph = gnp_random_graph(30, 0.25, seed=4)
        runs = [
            self._run(graph, self.MODELS[model], send=send, tie_break="random",
                      peers_of=lambda ctx: [u for u in ctx.neighbors
                                            if u % 2 == ctx.node_id % 2],
                      deadline=60)
            for send in (None, _loop_of_sends)]
        assert runs[0] == runs[1]
        trees = runs[0][0]
        assert all(trees[v][1] for v in range(1, 30, 2))
        assert not trees[0][1]


class TestKindResolution:
    """``SubMachine.kind`` formats each ``(prefix, suffix)`` once per process."""

    def test_equal_pairs_share_one_string(self):
        machines = [
            FloodMin("lm", [], 3), FloodMin("lm", [1], 5),
            BfsTree("bfs7", [], is_root=True, deadline=9),
            Barrier("bfs7", parent=-1, children=[]),
            RotationWalk("rw", 0, [], tree_neighbors=[], tree_depth=1, size=1,
                         is_initial_head=False, step_budget=1),
        ]
        for machine in machines:
            assert machine.kind("e") == f"{machine.PREFIX}.e"
            assert machine.kind("e") is machine.kind("e")
        assert machines[0].kind("m") is machines[1].kind("m")
        assert machines[2].kind("c") is machines[3].kind("c")

        class Other(SubMachine):
            PREFIX = "rw"

        assert Other().kind("r") is machines[4].kind("r") == "rw.r"

    def test_distinct_prefixes_give_distinct_kinds(self):
        prefixes = ["b0", "b1", "bfs7", "bfs", "b", "bt", "m0", "m1"]
        kinds = [BfsTree(p, [], is_root=False, deadline=1).kind("e") for p in prefixes]
        assert kinds == [f"{p}.e" for p in prefixes]
        assert len(set(kinds)) == len(prefixes)
        barrier = Barrier("b0", parent=-1, children=[])
        assert barrier.kind("e") is kinds[0]
        assert barrier.kind("e") != FloodMin("bfs7", [], 1).kind("e")


class TestBarrier:
    def test_barrier_waits_for_all(self):
        g = ring(8)
        bfs = run_machines(
            g, lambda ctx: BfsTree("bt", ctx.neighbors,
                                   is_root=ctx.node_id == 0, deadline=200))

        class BarrierHost(Protocol, SubMachineHost):
            done_round = {}

            def __init__(self, v):
                SubMachineHost.__init__(self)
                self.v = v
                self.machine = None

            def on_start(self, ctx):
                tree = bfs[ctx.node_id]
                self.machine = Barrier("g1", parent=tree.parent,
                                       children=tree.children)
                self.activate(ctx, self.machine)
                # Node 5 is slow to become ready.
                ctx.request_wake(20 if ctx.node_id == 5 else 2)

            def on_round(self, ctx, inbox):
                self.dispatch(ctx, inbox)
                if not self.machine._ready and ctx.round_index >= (
                        20 if ctx.node_id == 5 else 2):
                    self.machine.mark_ready(ctx)
                if self.machine.done and not ctx.halted:
                    BarrierHost.done_round[ctx.node_id] = ctx.round_index
                    ctx.halt()

        Network(g, lambda v: BarrierHost(v)).run(max_rounds=200)
        assert len(BarrierHost.done_round) == 8
        # Nobody passed the barrier before the slow node was ready.
        assert min(BarrierHost.done_round.values()) >= 20
