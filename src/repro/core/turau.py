"""Turau-style fully-distributed path merging (arXiv:1805.06728).

Turau's algorithm ``A_HC`` finds a Hamiltonian cycle in ``G(n, p)`` for
sufficiently dense ``p`` with a *fully-distributed* structure that is
very different from the source paper's rotation walks: every node joins
an initial system of vertex-disjoint paths via one random proposal
round, then logarithmically many *merge phases* connect path endpoints
pairwise along graph edges until a single spanning path remains and its
endpoints close the cycle.  No leader, no spanning tree, no rotation —
messages are O(1) words and every decision is endpoint-local.

This reproduction keeps that phase structure exactly and makes two
honest simplifications, documented so the round accounting stays
truthful:

* **Endpoint bookkeeping travels along the path.**  Each phase ends
  with both endpoints of every path launching a *token* that walks the
  path (one hop per round) and delivers to the opposite endpoint the
  pair (other-endpoint id, path length).  Turau gets the equivalent
  information in O(1) rounds by relaying over the diameter-2 backbone
  of the dense regime; our tokens make the per-phase cost proportional
  to the longest path instead, so the total round count is O(n) rather
  than O(log n).  Phase windows double (capped at ``2n + 4``) so a
  path whose token is still in flight simply sits out a phase — its
  endpoints are *stale* — and rejoins once the window covers it.
* **Endpoint-only merges, no rotation fallback.**  Paths merge only
  along edges between designated *endpoints*, and if the final
  spanning path's endpoints are not adjacent the run fails
  (``detail["fail"] = "no-closure-edge"``) instead of rotating.
  Turau's full algorithm also *inserts* paths at interior nodes and
  rotates at closure, which is what pushes its working density down
  to ``p`` in ``Omega~(n**-0.5)``; without those moves this
  reproduction needs denser graphs (roughly ``p >~ 0.7``; the CLI's
  default ``delta = 0.5`` parameterisation caps ``p`` at 1 up to
  ``n ~ 4000``, where it succeeds essentially always), and surviving
  endpoint pairs are *selected against* adjacency — both effects are
  Monte Carlo failures that ``benchmarks/bench_e16_related_algos.py``
  quantifies.  Absorbing insertion merges and closure rotations is
  the recorded ROADMAP follow-up.

Phase ``l`` (start round ``s``, known to every node from ``n``):

1. round ``s``: each path designates one *request* end and one
   *announce* end for the phase (:func:`role_bit` — the phase index
   cycles through the bits of the path id, so any two paths
   eventually realise all four endpoint pairings), which caps a pair
   of paths at one merge per phase: no premature cycle can form.
   *Fresh* announce endpoints broadcast ``(pid)`` to all neighbours,
   where ``pid`` is the smaller endpoint id of their path — a total
   order on paths that keeps simultaneous merges acyclic.
2. round ``s + 1``: each fresh request-eligible endpoint picks
   uniformly among the announcing neighbours with a strictly larger
   ``pid`` and sends a merge request.
3. round ``s + 2``: each announcer accepts the smallest-id requester
   and commits the merge edge.
4. round ``s + 3``: every node that is still an endpoint launches its
   token (stamped ``l``) toward the path interior; an endpoint is
   *fresh* for phase ``l + 1`` iff a stamp-``l`` token reached it
   before that phase starts, which (tokens walk one hop per round,
   uncontended by construction) is exactly ``len(path) <=
   window(l) + 2``.

A fresh endpoint that knows its path spans all ``n`` nodes attempts
closure instead of announcing: the smaller endpoint commits the
closing edge if it exists and floods "done"; otherwise it floods an
abort.  Exhausting the phase budget is the remaining failure mode
(``detail["fail"] = "phase-budget"``).

``run_turau`` wraps the protocol into the standard
:class:`~repro.engines.results.RunResult` contract; the array replay in
:mod:`repro.engines.fast_turau` reproduces cycle, steps, and failure
codes seed for seed (the registry ``parity`` declaration).
"""

from __future__ import annotations

import math
from bisect import bisect_right

from repro.congest.message import Message
from repro.congest.model import ProtocolRun, coerce_network_model, run_protocol
from repro.congest.node import Context, Protocol
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.verify.hamiltonicity import verified_cycle

__all__ = [
    "TurauProtocol",
    "run_turau",
    "turau_phase_budget",
    "phase_windows",
    "phase_starts",
    "turau_round_budget",
    "cycle_from_links",
    "FAIL_TOO_SMALL",
    "FAIL_PHASE_BUDGET",
    "FAIL_NO_CLOSURE_EDGE",
]

FAIL_TOO_SMALL = "too-small"
FAIL_PHASE_BUDGET = "phase-budget"
FAIL_NO_CLOSURE_EDGE = "no-closure-edge"

#: Initial token-walk window (covers the short proposal-round paths).
_FIRST_WINDOW = 8


def turau_phase_budget(n: int) -> int:
    """Default number of merge phases.

    The path count shrinks geometrically per phase in the algorithm's
    density regime, so ``O(log n)`` phases suffice; the constant is
    generous because stale (long-path) endpoints sit phases out until
    the doubling windows cover them.
    """
    if n < 2:
        return 1
    return 4 * math.ceil(math.log2(n)) + 8


def phase_windows(n: int, phase_budget: int) -> list[int]:
    """Token-walk windows ``W_0 .. W_L`` (doubling, capped at ``2n + 4``).

    ``W_0`` covers the initial tokens launched right after the proposal
    round; ``W_l`` follows phase ``l``.  An endpoint of a length-``len``
    path is fresh for the next phase iff ``len <= W + 2``.
    """
    cap = 2 * n + 4
    return [min(cap, _FIRST_WINDOW << j) for j in range(phase_budget + 1)]


def phase_starts(n: int, phase_budget: int) -> list[int]:
    """Start round of each phase, plus the final timeout round.

    ``starts[l - 1]`` is phase ``l``'s announce round for ``l = 1 ..
    phase_budget``; the last element is the round at which every node
    gives up.  Phase ``l`` occupies 4 control rounds plus its token
    window, so the whole schedule is a pure function of ``n`` that
    every node (and the fast replay) computes identically.  The final
    gap is stretched to at least ``n + 2`` rounds so a done/abort
    flood triggered in the last phase always completes before the
    timeout, whatever the graph diameter.
    """
    windows = phase_windows(n, phase_budget)
    starts = [3 + windows[0]]
    for j in range(1, phase_budget + 1):
        starts.append(starts[-1] + 4 + windows[j])
    starts[-1] = starts[-2] + 4 + max(windows[-1], n + 2)
    return starts


def turau_round_budget(n: int, phase_budget: int | None = None) -> int:
    """Watchdog ``max_rounds`` for a run (schedule end plus flood slack)."""
    budget = max(1, phase_budget if phase_budget is not None
                 else turau_phase_budget(n))
    return phase_starts(n, budget)[-1] + 8


def role_bit(pid: int, phase: int, n: int) -> int:
    """Which end of a path requests in ``phase`` (1 = the ``pid`` end).

    ``(phase + bit(pid, phase % B)) % 2`` with ``B`` odd: the phase
    index cycles through the bit positions of the path id, and any two
    distinct pids differ in some bit, so across ``2 B`` consecutive
    phases two given paths realise every (request-end, announce-end)
    combination — the property that keeps the two-path endgame from
    stalling on a missing endpoint-pair edge.
    """
    period = n.bit_length() | 1
    return (phase + ((pid >> (phase % period)) & 1)) % 2


def cycle_from_links(links: list[list[int]]) -> list[int] | None:
    """Assemble the cycle from per-node path-neighbour pairs.

    ``links[v]`` must hold exactly two distinct neighbours for every
    node; returns the node sequence starting at 0 (second node = the
    smaller link of 0, making the orientation deterministic), or
    ``None`` if the links do not form one cycle over all nodes.
    """
    n = len(links)
    if n < 3 or any(len(pair) != 2 for pair in links):
        return None
    cycle = [0]
    prev, cur = 0, min(links[0])
    while cur != 0:
        if len(cycle) > n:
            return None
        cycle.append(cur)
        a, b = links[cur]
        nxt = a if b == prev else b
        if nxt == cur or (a != prev and b != prev):
            return None
        prev, cur = cur, nxt
    return cycle if len(cycle) == n else None


class TurauProtocol(Protocol):
    """Per-node Turau path merging: propose -> merge phases -> close."""

    def __init__(self, node_id: int, n: int, *, phase_budget: int | None = None):
        self.node_id = node_id
        self.n = n
        self.phase_budget = max(1, phase_budget if phase_budget is not None
                                else turau_phase_budget(n))
        self.starts = phase_starts(n, self.phase_budget)

        self.links: list[int] = []  # committed path neighbours (<= 2)
        self.far = node_id  # opposite endpoint of my path (when fresh)
        self.plen = 1  # my path's node count (when fresh)
        self.tok_stamp = -1  # stamp of the freshest token received
        self.initial_degree = 0

        self.done = False
        self.aborted = False
        self.fail_code: str | None = None
        self.phases: int | None = None  # phase at which done/fail was decided
        self.commits = 0  # merge edges committed at this node

        self._announced = False
        self._may_request = False

    # -- protocol interface ----------------------------------------------------

    def on_start(self, ctx: Context) -> None:
        higher = [w for w in ctx.neighbors if w > self.node_id]
        if higher:
            target = higher[int(ctx.rng.integers(len(higher)))]
            ctx.send(target, "pp")
        ctx.request_wake(2)
        ctx.request_wake(self.starts[-1])

    def on_round(self, ctx: Context, inbox: list[Message]) -> None:
        r = ctx.round_index
        phase_now = bisect_right(self.starts, r)  # phases whose start is <= r
        for message in inbox:
            kind = message.payload[0]
            if kind == "dn":
                self._become_done(ctx)
                return
            if kind == "ab":
                self._become_aborted(ctx)
                return
            if kind == "cl":
                self._commit_link(message.sender)
                self.phases = phase_now
                self._become_done(ctx)
                return
        for message in inbox:
            kind = message.payload[0]
            if kind == "tk":
                self._on_token(ctx, message)
            elif kind == "pa" and r == 2:
                self._commit_link(message.sender)
            elif kind == "ac":
                self._commit_link(message.sender)
        if r == 1:
            proposers = [m.sender for m in inbox if m.payload[0] == "pp"]
            if proposers:
                winner = min(proposers)
                self._commit_link(winner)
                self.commits += 1
                ctx.send(winner, "pa")
        if r == 2:
            self.initial_degree = len(self.links)
            if len(self.links) == 1:
                ctx.send(self.links[0], "tk", self.node_id, 1, 0)
            ctx.request_wake(self.starts[0])
            return
        if r >= self.starts[-1]:
            self._timeout(ctx)
            return
        stage, phase = self._stage_of(r)
        if stage == 0:
            self._phase_start(ctx, phase)
        elif stage == 1:
            self._active_stage(ctx, inbox)
        elif stage == 2:
            self._passive_stage(ctx, inbox)
        elif stage == 3:
            self._launch_stage(ctx, phase)

    # -- phase machinery -------------------------------------------------------

    def _stage_of(self, r: int) -> tuple[int, int]:
        """(offset into the phase's control rounds, 1-based phase index)."""
        idx = bisect_right(self.starts, r) - 1
        if idx < 0:
            return -1, 0
        return r - self.starts[idx], idx + 1

    def _is_fresh(self, phase: int) -> bool:
        if len(self.links) == 0:
            return True  # singletons know their own (trivial) path
        return len(self.links) == 1 and self.tok_stamp == phase - 1

    def _phase_start(self, ctx: Context, phase: int) -> None:
        self._announced = False
        self._may_request = False
        ctx.request_wake(self.starts[phase - 1] + 3)
        if phase < len(self.starts):
            ctx.request_wake(self.starts[phase])
        if not self._is_fresh(phase):
            return
        if self.plen == self.n:
            self._attempt_closure(ctx, phase)
            return
        # Each path designates one request end and one announce end per
        # phase, so a pair of paths can commit at most one merge per
        # phase (two parallel merges would close a premature cycle).
        # The designation is driven by the phase index and one bit of
        # the path id (:func:`role_bit`): cycling through bit positions
        # with an odd period guarantees that any two distinct paths
        # eventually realise all four endpoint pairings — including the
        # (min, min)/(max, max) ones a plain phase-parity alternation
        # never tries.  Min-id acceptance and the strict pid order make
        # the merge pattern deterministic given the requests — no coin
        # is needed to break symmetry.
        pid = min(self.node_id, self.far)
        r = role_bit(pid, phase, self.n)
        if self.far == self.node_id:  # singleton: its one end alternates
            self._may_request = bool(r)
            may_announce = not r
        else:
            request_end = pid if r else max(self.node_id, self.far)
            self._may_request = self.node_id == request_end
            may_announce = not self._may_request
        if may_announce:
            self._announced = True
            ctx.multicast(ctx.neighbors, ("an", pid))

    def _active_stage(self, ctx: Context, inbox: list[Message]) -> None:
        if not self._may_request:
            return
        pid = min(self.node_id, self.far)
        candidates = sorted(m.sender for m in inbox
                            if m.payload[0] == "an" and m.payload[1] > pid)
        if candidates:
            chosen = candidates[int(ctx.rng.integers(len(candidates)))]
            ctx.send(chosen, "rq")

    def _passive_stage(self, ctx: Context, inbox: list[Message]) -> None:
        if not self._announced:
            return
        requesters = [m.sender for m in inbox if m.payload[0] == "rq"]
        if requesters:
            winner = min(requesters)
            self._commit_link(winner)
            self.commits += 1
            ctx.send(winner, "ac")

    def _launch_stage(self, ctx: Context, phase: int) -> None:
        if len(self.links) == 1:
            ctx.send(self.links[0], "tk", self.node_id, 1, phase)

    def _attempt_closure(self, ctx: Context, phase: int) -> None:
        if self.node_id > self.far:
            return  # the smaller endpoint initiates
        self.phases = phase
        if ctx.is_neighbor(self.far):
            ctx.send(self.far, "cl")
            self._commit_link(self.far)
            self.commits += 1
            self._become_done(ctx, skip=self.far)
        else:
            self.fail_code = FAIL_NO_CLOSURE_EDGE
            self.aborted = True
            self._flood_abort(ctx)

    # -- token walking ---------------------------------------------------------

    def _on_token(self, ctx: Context, message: Message) -> None:
        _kind, origin, hops, stamp = message.payload
        if message.sender not in self.links:
            return  # stale walker from a pre-commit pointer; drop
        if len(self.links) == 2:
            other = self.links[0] if self.links[1] == message.sender else self.links[1]
            ctx.send(other, "tk", origin, hops + 1, stamp)
            return
        if stamp > self.tok_stamp:
            self.tok_stamp = stamp
            self.far = origin
            self.plen = hops + 1

    # -- commits and floods ----------------------------------------------------

    def _commit_link(self, peer: int) -> None:
        if peer not in self.links:
            self.links.append(peer)

    def _become_done(self, ctx: Context, skip: int = -1) -> None:
        self.done = True
        for peer in ctx.neighbors:
            if peer != skip and ctx.edge_free(peer):
                ctx.send(peer, "dn")
        ctx.halt()

    def _become_aborted(self, ctx: Context) -> None:
        """An abort flood reached this node: relay and stop."""
        self.aborted = True
        self._flood_abort(ctx)

    def _timeout(self, ctx: Context) -> None:
        """Phase budget exhausted (every node detects this locally)."""
        self.aborted = True
        self.fail_code = FAIL_PHASE_BUDGET
        self.phases = self.phase_budget
        ctx.halt()

    def _flood_abort(self, ctx: Context) -> None:
        for peer in ctx.neighbors:
            if ctx.edge_free(peer):
                ctx.send(peer, "ab")
        ctx.halt()


def run_turau(
    graph: Graph,
    *,
    seed: int = 0,
    phase_budget: int | None = None,
    max_rounds: int | None = None,
    audit_memory: bool = False,
    network=None,
) -> RunResult:
    """Run Turau-style path merging on ``graph`` in the CONGEST simulator.

    Same contract as :func:`~repro.core.dra.run_dra`: ``success`` is
    true only if every node terminated in the done state *and* the
    committed links verify as a Hamiltonian cycle of ``graph``.
    ``network`` is a :class:`~repro.congest.model.NetworkModel` (or its
    JSON form) describing the substrate.  A fault plan's counters
    appear under ``detail["faults"]`` (zeros when the run never
    started, e.g. ``n < 3``); async runs also report
    ``detail["async"]``.
    """
    n = graph.n
    if n < 3:
        return ProtocolRun(coerce_network_model(network)).result(
            "turau", False, None,
            detail={"fail": FAIL_TOO_SMALL, "phases": 0, "initial_paths": n})
    budget = max(1, phase_budget if phase_budget is not None
                 else turau_phase_budget(n))
    run = run_protocol(
        graph,
        lambda v: TurauProtocol(v, n, phase_budget=budget),
        seed=seed,
        network=network,
        audit_memory=audit_memory,
        max_rounds=(max_rounds if max_rounds is not None
                    else turau_round_budget(n, budget)),
    )

    protocols: list[TurauProtocol] = run.network.protocols
    cycle = None
    if all(p.done for p in protocols):
        cycle = verified_cycle(graph, cycle_from_links([p.links for p in protocols]))
    ok = cycle is not None
    fail = None
    if not ok:
        codes = {p.fail_code for p in protocols if p.fail_code}
        fail = (FAIL_NO_CLOSURE_EDGE if FAIL_NO_CLOSURE_EDGE in codes
                else FAIL_PHASE_BUDGET)
    singles = sum(p.initial_degree == 0 for p in protocols)
    ends = sum(p.initial_degree == 1 for p in protocols)
    detail = {
        "fail": fail,
        "phases": max((p.phases for p in protocols if p.phases is not None),
                      default=budget if not ok else 0),
        "initial_paths": singles + ends // 2,
    }
    return run.result("turau", ok, cycle,
                      steps=sum(p.commits for p in protocols), detail=detail)
