"""DHC1 — Algorithm 2: the two-phase algorithm for ``p = c ln n / sqrt(n)``.

Phase 1 (shared base): ``sqrt(n)`` random colour classes, each builds
its own sub-Hamiltonian-cycle.  Phase 2 (this module): one *hypernode*
per class — a cycle edge ``e_i = (v_i, u_i)`` with ``u_i`` a uniformly
random cycle node and ``v_i = predecessor(u_i)`` (Algorithm 2 l.13-15)
— and a ported rotation walk over the hypernode graph G' (l.16-17).
The HC of G' fixes, per class, where the global cycle enters and leaves
the class cycle, which completes the Hamiltonian cycle of G (Fig. 1).

Reproduction decisions:

* *Dynamic ports.*  The paper fixes ``u_i`` as in-port and ``v_i`` as
  out-port, but an undirected walk over G' cannot maintain a globally
  consistent orientation (both cycle edges of a hypernode could land on
  one port).  We let either physical endpoint serve either role and let
  the ported :class:`~repro.core.rotation.RotationWalk` bind them
  dynamically, so the result is always stitchable; G' edges comprise
  all four port pairings (edge probability ``1-(1-p)^4 >= 1-(1-p)^2``,
  so Lemma 6 holds a fortiori).
* *Relayed virtual fabric.*  A hypernode's state lives at its holder
  ``u_i``; virtual messages route holder -> (own ``v_i``) -> cross edge
  -> (peer port) -> peer holder, at most 3 physical hops, through the
  host's paced out-queue.  Broadcast waits are sized by the virtual
  tree's ``max_load`` (a CONGEST-honest bound on relay serialisation).
* *Two global barriers* (over a global BFS tree built before Phase 1)
  separate port announcement, adjacency assembly, and the virtual walk,
  because a hypernode cannot otherwise know when its virtual edge list
  has stopped growing.

Host-level message kinds: ``hs`` (hypernode selection flood), ``hp``
(port announcement), ``hl``/``hle`` (port-adjacency relay v -> u),
``hrel``/``hx``/``hfw`` (virtual fabric envelopes), ``hfin`` (final
stitching flood).
"""

from __future__ import annotations

import math

from repro.analysis.bounds import (class_size_cap, diameter_budget,
                                   dra_round_budget, dra_step_budget)
from repro.congest.message import Message
from repro.congest.model import run_protocol
from repro.congest.node import Context
from repro.core.phase1 import (
    PartitionedPhase1Protocol,
    bfs_broken,
    class_fail_cause,
    resolve_colors,
)
from repro.core.rotation import RotationWalk, VirtualEdge
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.primitives.barrier import Barrier
from repro.primitives.bfs import BfsTree
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["Dhc1Protocol", "run_dhc1", "default_sqrt_colors"]

_ROLE_U = 0  # holder (the paper's u_i, the "incoming" endpoint)
_ROLE_V = 1


def default_sqrt_colors(n: int) -> int:
    """Algorithm 2's ``sqrt(n)`` partition count."""
    return max(1, round(math.isqrt(max(1, n))))


class Dhc1Protocol(PartitionedPhase1Protocol):
    """Per-node DHC1: Phase 1 + hypernode walk over G'."""

    def __init__(self, node_id: int, n: int, k: int):
        super().__init__(node_id, n, k, global_tree_first=True)
        self.h_stage = "phase1"
        self.hyper_r = -1  # selected cycle index of u_i
        self.role = -1  # _ROLE_U / _ROLE_V / -1
        self.partner = -1  # the other endpoint of my hypernode
        self.port_neighbors: dict[int, tuple[int, int]] = {}  # phys -> (hyper, role)
        self.barrier1: Barrier | None = None
        self.barrier2: Barrier | None = None

        # Holder-only state.
        self._v_entries: list[tuple[int, int, int]] = []  # (hyper, their_role, far)
        self._v_expected = -1
        self._vedges: list[VirtualEdge] = []
        self._far: dict[tuple[int, int, int], int] = {}  # realization -> far phys
        self.vbfs: BfsTree | None = None
        self.vwalk: RotationWalk | None = None
        self._vwalk_started = False

        self.global_succ = -1

    # -- phase-1 handoff: hypernode selection (l.13-15) ----------------------------

    def on_phase1_complete(self, ctx: Context) -> None:
        self.h_stage = "select"
        if self.cycindex == 1:
            r = 1 + int(ctx.rng.integers(self.cycle_size))
            self._apply_selection(ctx, r)
            for peer in self.tree_neighbors:
                self.queue_send(ctx, peer, "hs", r, self.node_id)

    def _apply_selection(self, ctx: Context, r: int) -> None:
        self.hyper_r = r
        v_index = r - 1 if r > 1 else self.cycle_size
        if self.cycindex == r:
            self.role = _ROLE_U
            self.partner = self.pred
        elif self.cycindex == v_index:
            self.role = _ROLE_V
            self.partner = self.succ
        if self.role >= 0:
            for peer in ctx.neighbors:
                self.queue_send(ctx, peer, "hp", self.color, self.role)
        self.h_stage = "ports"
        self._ensure_barrier1(ctx)
        # Readiness is reported only once the port announcements have
        # actually left the out-queue, so "go" cannot overtake them.
        self._barrier1_pending = True
        ctx.request_wake(ctx.round_index + 1)

    def _ensure_barrier1(self, ctx: Context) -> None:
        if self.barrier1 is None:
            self.barrier1 = Barrier(
                "g1", parent=self.global_bfs.parent,
                children=self.global_bfs.children, send=self.queue_send,
            )
            self.activate(ctx, self.barrier1)

    def _ensure_barrier2(self, ctx: Context) -> None:
        if self.barrier2 is None:
            self.barrier2 = Barrier(
                "g2", parent=self.global_bfs.parent,
                children=self.global_bfs.children, send=self.queue_send,
            )
            self.activate(ctx, self.barrier2)

    # -- host-level messages -----------------------------------------------------------

    def host_message_hook(self, ctx: Context, message: Message) -> bool:
        kind = message.payload[0]
        if kind == "hs":
            if self.hyper_r < 0:
                r, origin = message.payload[1], message.payload[2]
                for peer in self.tree_neighbors:
                    if peer != origin:
                        self.queue_send(ctx, peer, "hs", r, self.node_id)
                self._apply_selection(ctx, r)
            return True
        if kind == "hp":
            self.port_neighbors[message.sender] = (message.payload[1], message.payload[2])
            return True
        if kind == "hl":
            self._v_entries.append(tuple(message.payload[1:4]))
            self._check_assembly(ctx)
            return True
        if kind == "hle":
            self._v_expected = message.payload[1]
            self._check_assembly(ctx)
            return True
        if kind in ("hrel", "hx", "hfw"):
            self._route_envelope(ctx, message)
            return True
        if kind == "hfin":
            self._apply_stitch(ctx, *message.payload[1:4])
            return True
        return False

    def advance_hook(self, ctx: Context) -> None:
        if self.aborted or self.finished:
            return
        if getattr(self, "_barrier1_pending", False) and not self._outqueue:
            self._barrier1_pending = False
            self.barrier1.mark_ready(ctx)
        elif getattr(self, "_barrier1_pending", False):
            ctx.request_wake(ctx.round_index + 1)
        if self.h_stage == "ports" and self.barrier1 is not None and self.barrier1.done:
            self.h_stage = "assemble"
            self._begin_assembly(ctx)
        if self.h_stage == "assemble" and self.barrier2 is not None and self.barrier2.done:
            self.h_stage = "virtual"
            self._begin_virtual(ctx)
        if (self.h_stage == "virtual" and self.role == _ROLE_U
                and self.vbfs is not None and self.vbfs.done and not self._vwalk_started):
            if self.vbfs.failed:
                self._fail_local(ctx)
                return
            self._vwalk_started = True
            self._begin_vwalk(ctx)
        if (self.h_stage == "virtual" and self.vwalk is not None and self.vwalk.done
                and self.h_stage != "stitch"):
            self.h_stage = "stitch"
            if not self.vwalk.success:
                self._fail_local(ctx)
                return
            self._begin_stitch(ctx)

    # -- adjacency assembly (between the barriers) -----------------------------------------

    def _begin_assembly(self, ctx: Context) -> None:
        self._ensure_barrier2(ctx)
        if self.role == _ROLE_V:
            entries = sorted(
                (hyper, role, phys)
                for phys, (hyper, role) in self.port_neighbors.items()
                if hyper != self.color
            )
            for hyper, role, phys in entries:
                self.queue_send(ctx, self.partner, "hl", hyper, role, phys)
            self.queue_send(ctx, self.partner, "hle", len(entries))
            self.barrier2.mark_ready(ctx)
        elif self.role == _ROLE_U:
            self._check_assembly(ctx)
        else:
            self.barrier2.mark_ready(ctx)

    def _check_assembly(self, ctx: Context) -> None:
        if self.role != _ROLE_U or self.h_stage != "assemble":
            return
        if self._v_expected < 0 or len(self._v_entries) < self._v_expected:
            return
        realizations = []
        for phys, (hyper, role) in self.port_neighbors.items():
            if hyper != self.color:
                realizations.append((hyper, _ROLE_U, role, phys))
        for hyper, role, phys in self._v_entries:
            realizations.append((hyper, _ROLE_V, role, phys))
        realizations.sort()
        self._vedges = [VirtualEdge(h, mp, tp) for h, mp, tp, _f in realizations]
        self._far = {(h, mp, tp): f for h, mp, tp, f in realizations}
        self._ensure_barrier2(ctx)
        self.barrier2.mark_ready(ctx)

    # -- the virtual fabric ------------------------------------------------------------------

    def _vsend_bfs(self, ctx: Context, dest_hyper: int, kind: str, *fields) -> None:
        self._vship(ctx, VirtualEdge(dest_hyper), kind, *fields, self.color)

    def _vship(self, ctx: Context, edge: VirtualEdge, kind: str, *fields) -> None:
        """Send a message over the virtual graph (<= 3 physical hops).

        The virtual walk's transport: its payloads arrive here built,
        sender hypernode last.
        """
        if kind.startswith("vw.") and kind.split(".")[1] in ("p", "y"):
            key = (edge.peer, edge.my_port, edge.peer_port)
            far = self._far[key]
            my_port = edge.my_port
        else:
            options = [k for k in self._far if k[0] == edge.peer]
            if not options:
                self._fail_local(ctx)
                return
            key = min(options)
            far = self._far[key]
            my_port = key[1]
        if my_port == _ROLE_U:
            self.queue_send(ctx, far, "hx", key[2], kind, *fields)
        else:
            self.queue_send(ctx, self.partner, "hrel", far, key[2], kind, *fields)

    def _route_envelope(self, ctx: Context, message: Message) -> None:
        kind = message.payload[0]
        if kind == "hrel":
            far, landing = message.payload[1], message.payload[2]
            self.queue_send(ctx, far, "hx", landing, *message.payload[3:])
            return
        landing, inner = message.payload[1], message.payload[2]
        fields = message.payload[3:]
        if kind == "hx" and self.role == _ROLE_V:
            self.queue_send(ctx, self.partner, "hfw", landing, inner, *fields)
            return
        # Delivery at the holder.
        if inner.startswith("vw."):
            if inner.endswith(".p"):
                # Fill the receiver-port placeholder (wire contract).
                fields = fields[:3] + (landing,) + fields[4:]
            payload = (inner, *fields)
            self.dispatch(ctx, [Message(sender=message.sender, payload=payload)])
        else:
            vsender = fields[-1]
            payload = (inner, *fields[:-1])
            self.dispatch(ctx, [Message(sender=vsender, payload=payload)])

    # -- virtual BFS + walk ---------------------------------------------------------------------

    def _begin_virtual(self, ctx: Context) -> None:
        if self.role != _ROLE_U:
            return
        vpeers = sorted({e.peer for e in self._vedges})
        deadline = ctx.round_index + 40 * diameter_budget(self.k) + 200
        self.vbfs = BfsTree(
            "vb", vpeers, is_root=self.color == 1, deadline=deadline,
            send=self._vsend_bfs,
        )
        self.activate(ctx, self.vbfs)

    def _begin_vwalk(self, ctx: Context) -> None:
        latency = self.vbfs.max_load + 5
        self.vwalk = RotationWalk(
            "vw",
            self.color,
            self._vedges,
            tree_neighbors=self.vbfs.tree_neighbors,
            tree_depth=max(1, self.vbfs.tree_depth),
            size=self.vbfs.size,
            is_initial_head=self.color == 1,
            step_budget=dra_step_budget(self.vbfs.size),
            send=self._vship,
            latency=latency,
            ported=True,
        )
        self.activate(ctx, self.vwalk)

    # -- final stitching (Fig. 1) -------------------------------------------------------------------

    def _begin_stitch(self, ctx: Context) -> None:
        walk = self.vwalk
        exit_phys = self.node_id if walk.succ_port == _ROLE_U else self.partner
        next_entry = self._far[(walk.succ, walk.succ_port, walk.succ_peer_port)]
        entry_is_u = 1 if walk.pred_port == _ROLE_U else 0
        for peer in self.tree_neighbors:
            self.queue_send(ctx, peer, "hfin", entry_is_u, exit_phys, next_entry)
        self._apply_stitch(ctx, entry_is_u, exit_phys, next_entry, forwarded=True)

    def _apply_stitch(self, ctx: Context, entry_is_u: int, exit_phys: int,
                      next_entry: int, *, forwarded: bool = False) -> None:
        if self.global_succ >= 0:
            return
        if not forwarded:
            for peer in self.tree_neighbors:
                self.queue_send(ctx, peer, "hfin", entry_is_u, exit_phys, next_entry)
        if self.node_id == exit_phys:
            self.global_succ = next_entry
        elif entry_is_u:
            self.global_succ = self.succ
        else:
            self.global_succ = self.pred
        self.finished = True
        self.request_halt(ctx)


def dhc1_round_budget(n: int, k: int) -> int:
    """Watchdog ``max_rounds`` for DHC1 (failure backstop only)."""
    part = class_size_cap(n, k)
    virtual = dra_round_budget(k) * 12  # relays + queue pacing
    return dra_round_budget(part) + virtual + 60 * diameter_budget(n) + 2048


def _fail_cause(graph: Graph, protocols: list[Dhc1Protocol], colors: int,
                stitched: bool) -> str | None:
    """Name a failed run's cause with the ``kmachine`` engine's reasons.

    Read from state the protocols already hold, in the order the run
    meets its stages: a node without neighbours, the global BFS, the
    Phase-1 classes (:func:`~repro.core.phase1.class_fail_cause`), the
    virtual BFS and walk over the hypernodes, the stitched cycle.
    """
    if not protocols or int(graph.degrees().min()) == 0:
        return "isolated-node"
    if any(bfs_broken(p.global_bfs, graph.n) for p in protocols):
        return "global-bfs-unreachable"
    cause = class_fail_cause(protocols, colors)
    if cause is not None:
        return cause
    if any(bfs_broken(p.vbfs, colors) for p in protocols):
        return "virtual-bfs-unreachable"
    for p in protocols:
        if p.vwalk is not None and p.vwalk.done and not p.vwalk.success:
            return f"virtual-walk-{p.vwalk.fail_code}"
    return "bad-stitch" if stitched else None


def run_dhc1(
    graph: Graph,
    *,
    k: int | None = None,
    seed: int = 0,
    max_rounds: int | None = None,
    audit_memory: bool = False,
    network=None,
) -> RunResult:
    """Run Algorithm 2 on ``graph`` in the CONGEST simulator.

    Intended for the DHC1 regime ``p = c ln n / sqrt(n)``; ``k`` defaults
    to ``sqrt(n)`` colour classes.  ``network`` is a
    :class:`~repro.congest.model.NetworkModel` (or its JSON form)
    describing the substrate.  A failed run names its cause in
    ``detail["fail"]`` with the ``kmachine`` engine's reasons where the
    protocol state shows one.  A fault plan's counters appear under
    ``detail["faults"]``; async runs also report ``detail["async"]``.
    """
    n = graph.n
    colors = resolve_colors(k, lambda: default_sqrt_colors(n))
    run = run_protocol(
        graph,
        lambda v: Dhc1Protocol(v, n, colors),
        seed=seed,
        network=network,
        audit_memory=audit_memory,
        max_rounds=(max_rounds if max_rounds is not None
                    else dhc1_round_budget(n, colors)),
        default_bandwidth=12,
    )

    protocols: list[Dhc1Protocol] = run.network.protocols
    cycle = None
    stitched = bool(protocols) and all(
        p.finished and not p.aborted and p.global_succ >= 0 for p in protocols)
    if stitched:
        cycle = verified_cycle(
            graph, {p.node_id: p.global_succ for p in protocols})
    steps = max(
        (p.vwalk.steps_seen for p in protocols if p.vwalk is not None), default=0
    )
    detail = {"k": colors, "aborted": sum(p.aborted for p in protocols)}
    if cycle is None:
        cause = _fail_cause(graph, protocols, colors, stitched)
        if cause is not None:
            detail["fail"] = cause
    return run.result("dhc1", cycle is not None, cycle, steps=steps,
                      detail=detail)
