"""The Upcast algorithm (Section III) and the trivial O(m) baseline.

The "conceptually much simpler, centralized" approach: elect a leader,
build a BFS tree, have every node sample ``Theta(log n)`` incident
edges and pipeline them up the tree; the root solves locally with the
sequential rotation algorithm and routes each node's cycle neighbours
back down.  Theorems 17/19: ``O(log n / p)`` rounds whp, with the BFS
tree balanced enough (Lemma 18) that the pipeline bottleneck is the
root's busiest subtree.

Not fully distributed: the root stores the whole sampled multigraph —
``Theta(n log n)`` words, violating the o(n) memory restriction of
Section II.  Experiment E8 exhibits exactly this via the memory audit.

``sample_all=True`` turns the same protocol into the paper's *trivial*
baseline (Section I: "it is rather trivial to solve a problem in O(m)
rounds"): every edge is collected, nothing is sampled.

Message kinds: ``up(a, b)`` sampled edge, ``mem(v)`` membership record
(builds the downcast routing tables), ``updone`` end-of-subtree marker,
``set(v, pred, succ)`` routed assignment, ``ddone`` end-of-downcast
marker, ``fail`` local-solve failure broadcast.
"""

from __future__ import annotations

import math
from collections import deque

from repro.analysis.bounds import bfs_deadline, diameter_budget
from repro.congest.message import Message
from repro.congest.model import run_protocol
from repro.congest.node import Context, Protocol
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.primitives.bfs import BfsTree
from repro.primitives.floodmin import FloodMin
from repro.primitives.submachine import SubMachineHost
from repro.sequential.posa import posa_cycle
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["UpcastProtocol", "run_upcast", "run_trivial", "upcast_sample_size"]


def upcast_sample_size(n: int, c_prime: float = 3.0) -> int:
    """The paper's ``c' log n`` per-node edge sample (Section III step 3)."""
    if n < 2:
        return 1
    return max(1, math.ceil(c_prime * math.log(n)))


class UpcastProtocol(Protocol, SubMachineHost):
    """Per-node Upcast: elect -> BFS -> upcast samples -> solve -> downcast."""

    def __init__(self, node_id: int, n: int, *,
                 c_prime: float = 3.0, sample_all: bool = False, solver_restarts: int = 8):
        SubMachineHost.__init__(self)
        self.node_id = node_id
        self.n = n
        self.c_prime = c_prime
        self.sample_all = sample_all
        self.solver_restarts = solver_restarts

        self.election: FloodMin | None = None
        self.bfs: BfsTree | None = None
        self._stage = "elect"

        self._up_queue: deque[tuple] = deque()
        self._children_done: set[int] = set()
        self._route: dict[int, int] = {}  # member -> child owning it
        self._down_queues: dict[int, deque[tuple]] = {}
        self._down_done_pending: set[int] = set()
        self._got_assignment = False
        self._down_done = False
        self._pump_round = -1

        # Root-only state (this is what makes the algorithm centralized).
        self._edges: set[tuple[int, int]] = set()
        self._updone_count = 0

        self.succ = -1
        self.pred = -1
        self.outcome_success = False
        self.finished = False

    # -- protocol interface ------------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        self.election = FloodMin("lm", ctx.neighbors, diameter_budget(self.n))
        self.activate(ctx, self.election)

    def on_round(self, ctx: Context, inbox: list[Message]) -> None:
        routed = [m for m in inbox if "." in m.payload[0]]
        direct = [m for m in inbox if "." not in m.payload[0]]
        self.dispatch(ctx, routed)
        for message in direct:
            self._on_direct(ctx, message)
        self._advance(ctx)
        self._pump(ctx)

    # -- stage machine -------------------------------------------------------------

    def _advance(self, ctx: Context) -> None:
        if self._stage == "elect" and self.election.done:
            self._stage = "bfs"
            deadline = bfs_deadline(ctx.round_index, diameter_budget(self.n))
            self.bfs = BfsTree("bt", ctx.neighbors,
                               is_root=self.election.is_leader, deadline=deadline,
                               tie_break="random")
            self.activate(ctx, self.bfs)
        if self._stage == "bfs" and self.bfs is not None and self.bfs.done:
            if self.bfs.failed:
                self._stage = "done"
                self.finished = True
                ctx.halt()
                return
            self._stage = "upcast"
            self._begin_upcast(ctx)

    def _begin_upcast(self, ctx: Context) -> None:
        """Sample edges (step 3) and start the pipelined convergecast."""
        if self.sample_all:
            sampled = [v for v in ctx.neighbors if self.node_id < v]
        else:
            size = min(len(ctx.neighbors), upcast_sample_size(self.n, self.c_prime))
            picks = ctx.rng.choice(len(ctx.neighbors), size=size, replace=False)
            sampled = [ctx.neighbors[int(i)] for i in sorted(picks)]
        if self.bfs.is_root:
            self._edges.update(_norm(self.node_id, v) for v in sampled)
            self._route = {}
            self._maybe_solve(ctx)
            return
        self._up_queue.append(("mem", self.node_id))
        for v in sampled:
            self._up_queue.append(("up", self.node_id, v))
        if not self.bfs.children:
            self._up_queue.append(("updone",))

    # -- direct (non-submachine) message handling --------------------------------------

    def _on_direct(self, ctx: Context, message: Message) -> None:
        kind = message.payload[0]
        if kind == "up":
            a, b = message.payload[1], message.payload[2]
            if self.bfs.is_root:
                self._edges.add(_norm(a, b))
            else:
                self._up_queue.append(("up", a, b))
        elif kind == "mem":
            member = message.payload[1]
            self._route[member] = message.sender
            if not self.bfs.is_root:
                self._up_queue.append(("mem", member))
        elif kind == "updone":
            self._children_done.add(message.sender)
            if len(self._children_done) == len(self.bfs.children):
                if self.bfs.is_root:
                    self._updone_count = 1
                    self._maybe_solve(ctx)
                else:
                    self._up_queue.append(("updone",))
        elif kind == "set":
            target, pred, succ = message.payload[1:4]
            if target == self.node_id:
                self.pred, self.succ = pred, succ
                self._got_assignment = True
                self._maybe_finish(ctx)
            else:
                child = self._route.get(target, -1)
                if child >= 0:
                    self._down_queues.setdefault(child, deque()).append(
                        ("set", target, pred, succ))
        elif kind == "ddone":
            self._down_done_pending = set(self.bfs.children)
            self._down_done = True
            self._maybe_finish(ctx)
        elif kind == "fail":
            ctx.multicast(self.bfs.children, ("fail",))
            self.finished = True
            ctx.halt()

    # -- root: local solve and downcast (step 4) -----------------------------------------

    def _maybe_solve(self, ctx: Context) -> None:
        if not self.bfs.is_root:
            return
        if len(self._children_done) < len(self.bfs.children):
            return
        adjacency: dict[int, list[int]] = {v: [] for v in range(self.n)}
        for a, b in sorted(self._edges):
            adjacency[a].append(b)
            adjacency[b].append(a)
        cycle = posa_cycle(self.n, adjacency, rng=ctx.rng,
                           restarts=self.solver_restarts)
        if cycle is None:
            ctx.multicast(self.bfs.children, ("fail",))
            self.finished = True
            ctx.halt()
            return
        for i, v in enumerate(cycle):
            pred = cycle[(i - 1) % self.n]
            succ = cycle[(i + 1) % self.n]
            if v == self.node_id:
                self.pred, self.succ = pred, succ
                self._got_assignment = True
                continue
            child = self._route.get(v, -1)
            self._down_queues.setdefault(child, deque()).append(("set", v, pred, succ))
        self._down_done_pending = set(self.bfs.children)
        self._down_done = True
        self.outcome_success = True
        self._maybe_finish(ctx)

    # -- the two pipelines ------------------------------------------------------------------

    def _pump(self, ctx: Context) -> None:
        """Move one item per tree edge per round; reschedule while busy."""
        if self._stage != "upcast" or self._pump_round == ctx.round_index:
            return
        self._pump_round = ctx.round_index
        busy = False
        if self._up_queue and not self.bfs.is_root:
            item = self._up_queue.popleft()
            ctx.send(self.bfs.parent, *item)
            busy = busy or bool(self._up_queue)
        for child, queue in self._down_queues.items():
            if queue:
                ctx.send(child, *queue.popleft())
                busy = busy or bool(queue)
            elif child in self._down_done_pending and self._down_done:
                ctx.send(child, "ddone")
                self._down_done_pending.discard(child)
        if self._down_done and not self._down_done_pending and not any(
                q for q in self._down_queues.values()):
            self._maybe_finish(ctx)
        if busy or self._down_done_pending:
            ctx.request_wake(ctx.round_index + 1)

    def _maybe_finish(self, ctx: Context) -> None:
        if self.finished:
            return
        queues_empty = not any(q for q in self._down_queues.values())
        if self._got_assignment and self._down_done and queues_empty \
                and not self._down_done_pending and not self._up_queue:
            self.outcome_success = True
            self.finished = True
            ctx.halt()


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _run_centralized(graph: Graph, algorithm: str, *, sample_all: bool,
                     c_prime: float, seed: int, max_rounds: int | None,
                     audit_memory: bool, solver_restarts: int) -> RunResult:
    n = graph.n
    if max_rounds is None:
        max_rounds = 20 * diameter_budget(n) + 4 * n * (2 + upcast_sample_size(n, c_prime)) + 512
        if sample_all:
            max_rounds += 4 * graph.m
    run = run_protocol(
        graph,
        lambda v: UpcastProtocol(v, n, c_prime=c_prime, sample_all=sample_all,
                                 solver_restarts=solver_restarts),
        seed=seed,
        audit_memory=audit_memory,
        max_rounds=max_rounds,
    )
    protocols: list[UpcastProtocol] = run.network.protocols
    cycle = None
    if protocols and all(p.finished and p.succ >= 0 for p in protocols):
        cycle = verified_cycle(graph, {p.node_id: p.succ for p in protocols})
    return run.result(
        algorithm, cycle is not None, cycle,
        detail={"sample_size": 0 if sample_all else upcast_sample_size(n, c_prime)})


def run_upcast(graph: Graph, *, c_prime: float = 3.0, seed: int = 0,
               max_rounds: int | None = None, audit_memory: bool = False,
               solver_restarts: int = 8) -> RunResult:
    """Run the Upcast algorithm (Section III-A) in the CONGEST simulator."""
    return _run_centralized(graph, "upcast", sample_all=False, c_prime=c_prime,
                            seed=seed, max_rounds=max_rounds,
                            audit_memory=audit_memory, solver_restarts=solver_restarts)


def run_trivial(graph: Graph, *, seed: int = 0, max_rounds: int | None = None,
                audit_memory: bool = False, solver_restarts: int = 8) -> RunResult:
    """The trivial O(m) baseline: collect every edge at the root, solve there."""
    return _run_centralized(graph, "trivial", sample_all=True, c_prime=0.0,
                            seed=seed, max_rounds=max_rounds,
                            audit_memory=audit_memory, solver_restarts=solver_restarts)
