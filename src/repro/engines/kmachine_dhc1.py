"""DHC1 (Algorithm 2) under native k-machine execution.

DHC1 never had a step-level replay: its hypernode phase lives on a
relayed virtual fabric whose timing is event-driven.  The native
k-machine engine supplies the first one.  Decisions replay exactly —
the same per-node RNG streams in the same order as
:class:`repro.core.dhc1.Dhc1Protocol`:

1. **Phase 1** — colour draw + per-class rotation walks on the
   colour-filtered CSR, identical to the DHC2 fast engine's Phase 1
   (the CONGEST protocols share :class:`PartitionedPhase1Protocol`,
   and the preceding global election/BFS consume no randomness, so the
   streams line up even though DHC1 runs them first in wall-clock).
2. **Hypernode selection** (Algorithm 2 l.13-15) — each class's
   ``cycindex == 1`` node (the class root: the initial head is never
   renumbered) draws ``r``; ``u = path[r-1]`` holds the hypernode,
   ``v`` is its cycle predecessor.
3. **Virtual-edge assembly** — port announcements become, per holder,
   the sorted realization list ``(peer class, my role, peer role,
   far endpoint)``; duplicates per key are kept as distinct
   :class:`VirtualEdge` realizations and the far map keeps the last
   (largest ``phys``) entry, exactly as ``Dhc1Protocol`` builds
   ``_vedges`` / ``_far``.
4. **Ported virtual walk** — :class:`_PortedWalk`, the replay of the
   ported :class:`~repro.core.rotation.RotationWalk`, with
   per-hypernode streams taken from the holders' generators; the
   min-id virtual BFS tree (:func:`~repro.engines.arraywalk.build_array_tree`
   over a CSR of G') supplies the depth its rotation floods are
   charged at, and the walk's winning closure edge (``win_edge``)
   feeds the stitching.
5. **Stitching** (Fig. 1) — each class's entry/exit ports and the
   ``_far`` lookup reproduce every node's ``global_succ``, flattened
   from node 0 like the CONGEST engine.

Rounds are a structural machine-level estimate (the fabric's relay
pacing is event-driven), accounted phase by phase on the
:class:`~repro.kmachine.ledger.LinkLedger`; the parity contract for
DHC1 is therefore ``success``/``cycle``/``steps``, with round conformance
covered by the Conversion-Theorem bound like every k-machine entry.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import diameter_budget, dra_step_budget
from repro.engines.kmachine_engine import (
    DEFAULT_LINK_WORDS,
    _charge_phase1,
    _charged_global_tree,
    _finish,
    _setup,
)
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph, csr_gather
from repro.kmachine.ledger import LinkLedger
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["_dhc1_kmachine"]

_ROLE_U = 0
_ROLE_V = 1


def _dhc1_fail(ledger: LinkLedger, colors: int, reason: str, steps: int = 0) -> RunResult:
    """A failed run, reporting the rounds the ledger charged up to the failure."""
    result = RunResult("dhc1", False, None, ledger.metrics.congest_rounds,
                       steps=steps, engine="kmachine",
                       detail={"k": colors, "fail": reason})
    return _finish(result, ledger)


def _dhc1_kmachine(
    graph: Graph,
    *,
    k: int | None = None,
    seed: int = 0,
    k_machines: int | None = None,
    link_words: int = DEFAULT_LINK_WORDS,
    partition_seed: int | None = None,
) -> RunResult:
    """Algorithm 2 under native k-machine execution (see module docs).

    ``k`` keeps its DHC1 meaning — the colour count, defaulting to
    ``sqrt(n)`` — and ``k_machines`` selects the machine count.
    """
    from repro.core.dhc1 import default_sqrt_colors
    from repro.core.phase1 import resolve_colors
    from repro.engines.arraywalk import build_array_tree
    from repro.engines.batchwalk import node_streams
    from repro.engines.phase1_replay import replay_phase1

    n = graph.n
    ledger = _setup(graph, seed, k_machines, link_words, partition_seed)
    colors = resolve_colors(k, lambda: default_sqrt_colors(n))
    rngs = node_streams(seed, n)
    indptr, indices = graph.indptr, graph.indices

    if n == 0 or graph.m == 0 or int(graph.degrees().min()) == 0:
        # An isolated node admits no Hamiltonian cycle; the protocol
        # aborts in its first round.
        return _dhc1_fail(ledger, colors, "isolated-node")

    # -- global election + BFS (consume rounds, not randomness) ----------------
    gtree = build_array_tree(indptr, indices, np.arange(n, dtype=np.int64),
                             root=0)
    gprofile = _charged_global_tree(ledger, graph, gtree, diameter_budget(n))
    if gtree is None:
        return _dhc1_fail(ledger, colors, "global-bfs-unreachable")
    ledger.quiet(max(1, gtree.tree_depth))  # synchronized announce wait

    # -- Phase 1: colours + per-class walks (same replay as DHC2) --------------
    # Relative clock: class BFS begins after the election.
    classes: list = []
    p1 = replay_phase1(graph, rngs, colors, start_round=0, trace=classes)
    _charge_phase1(ledger, graph, p1, classes, colors)
    if not p1.ok:
        return _dhc1_fail(ledger, colors, p1.fail_reason)
    paths = p1.cycles

    # -- hypernode selection (l.13-15) + port announcement ----------------------
    holder = np.full(colors + 1, -1, dtype=np.int64)   # u_i per class
    partner = np.full(colors + 1, -1, dtype=np.int64)  # v_i per class
    port_class = np.zeros(n, dtype=np.int64)
    port_role = np.zeros(n, dtype=np.int64)
    for c in range(1, colors + 1):
        path = paths[c]
        size = len(path)
        root = path[0]  # cycindex 1: the initial head, never renumbered
        r = 1 + int(rngs[root].integers(size))
        u = path[r - 1]
        v = path[r - 2] if r > 1 else path[size - 1]
        holder[c], partner[c] = u, v
        port_class[u], port_role[u] = c, _ROLE_U
        port_class[v], port_role[v] = c, _ROLE_V
    # Selection floods over the class trees, then the "hp" broadcast.
    max_class_depth = max(tree.tree_depth for tree, *_ in classes)
    ledger.uniform_burst(2 * (n - colors), 2, ticks=max(1, 2 * max_class_depth))
    ports = np.flatnonzero(port_class > 0)
    counts = indptr[ports + 1] - indptr[ports]
    ledger.burst(np.repeat(ports, counts),
                 csr_gather(indptr, indices, ports), 3)

    # -- barrier 1, adjacency assembly, barrier 2 -------------------------------
    ledger.flood(gprofile, 1, times=2)  # barrier 1: ready up, go down
    entries_max = 0
    realizations: dict[int, list[tuple[int, int, int, int]]] = {}
    for c in range(1, colors + 1):
        entries: list[tuple[int, int, int, int]] = []
        for endpoint, my_role in ((holder[c], _ROLE_U), (partner[c], _ROLE_V)):
            for w in graph.neighbors(int(endpoint)):
                w = int(w)
                pc = int(port_class[w])
                if pc and pc != c:
                    entries.append((pc, my_role, int(port_role[w]), w))
        entries.sort()
        realizations[c] = entries
        entries_max = max(
            entries_max, sum(1 for e in entries if e[1] == _ROLE_V) + 1)
    ledger.burst(partner[1:], holder[1:], 4)  # first v -> u relay tick
    ledger.quiet(entries_max)                 # rest of the paced queue
    ledger.flood(gprofile, 1, times=2)        # barrier 2

    # -- virtual BFS + ported walk over G' --------------------------------------
    # G' as a CSR over ids 0..colors (row 0, no hypernode, stays empty).
    vpeers = [[]] + [sorted({e[0] for e in realizations[c]})
                     for c in range(1, colors + 1)]
    vindptr = np.cumsum([0] + [len(row) for row in vpeers], dtype=np.int64)
    vindices = np.array([c for row in vpeers for c in row], dtype=np.int64)
    vtree = build_array_tree(vindptr, vindices,
                             np.arange(1, colors + 1, dtype=np.int64), root=1)
    if vtree is None:
        return _dhc1_fail(ledger, colors, "virtual-bfs-unreachable")
    latency = 3  # a virtual hop is at most 3 physical hops
    vdepth = max(1, vtree.tree_depth)
    ledger.uniform_burst(4 * colors, 3,
                         ticks=latency * (2 * vtree.tree_depth + 4))
    vwalk = _PortedWalk(
        edges={c: [(h, mp, tp) for h, mp, tp, _f in realizations[c]]
               for c in range(1, colors + 1)},
        rngs={c: rngs[int(holder[c])] for c in range(1, colors + 1)},
        size=colors,
        step_budget=dra_step_budget(colors),
    )
    vwalk.run()
    ledger.uniform_burst(3 * max(1, vwalk.steps), 6,
                         ticks=latency * max(1, vwalk.steps))
    ledger.quiet(vwalk.rotations * (2 * vdepth * latency + 2))
    if not vwalk.success:
        return _dhc1_fail(ledger, colors, f"virtual-walk-{vwalk.fail_code}",
                          vwalk.steps)

    # -- stitching (Fig. 1) ------------------------------------------------------
    vorder = vwalk.cycle()  # hypernode colours in virtual-cycle order
    vhead = vorder[-1]
    far = {c: {(h, mp, tp): f for h, mp, tp, f in realizations[c]}
           for c in range(1, colors + 1)}
    succ_global: dict[int, int] = {}
    for i, c in enumerate(vorder):
        vsucc = vorder[(i + 1) % colors]
        pred_port, succ_port = vwalk.bound[c]
        if c == vhead:
            _head, _target, succ_port, succ_peer_port = vwalk.win_edge
        else:
            succ_peer_port = vwalk.bound[vsucc][0]
        exit_phys = int(holder[c] if succ_port == _ROLE_U else partner[c])
        next_entry = far[c][(vsucc, succ_port, succ_peer_port)]
        entry_is_u = pred_port == _ROLE_U
        path = paths[c]
        size = len(path)
        for j, w in enumerate(path):
            if w == exit_phys:
                succ_global[w] = next_entry
            elif entry_is_u:
                succ_global[w] = path[(j + 1) % size]
            else:
                succ_global[w] = path[(j - 1) % size]
    cycle = verified_cycle(graph, succ_global)
    ledger.flood(gprofile, 3)  # the final stitching flood
    ledger.quiet(max(0, 2 * gtree.tree_depth - gprofile.tree_depth))
    result = RunResult(
        algorithm="dhc1",
        success=cycle is not None,
        cycle=cycle,
        rounds=ledger.metrics.congest_rounds,
        steps=vwalk.steps,
        engine="kmachine",
        detail=({"k": colors} if cycle is not None
                else {"k": colors, "fail": "bad-stitch"}),
    )
    return _finish(result, ledger)


class _PortedWalk:
    """Centralised replay of the ported :class:`repro.core.rotation.RotationWalk`.

    The walk runs over G', starting at hypernode 1 (the virtual BFS
    root).  ``edges[c]`` lists hypernode ``c``'s virtual-edge triples
    ``(peer, my_port, peer_port)`` in exactly the order
    :class:`~repro.core.dhc1.Dhc1Protocol` builds them, and ``rngs[c]``
    is the same generator stream; those two invariants make the replay
    decision-identical.

    Every path edge occupies a port at each end, recorded in
    ``bound[c] = (pred_port, succ_port)``.  A hit on an interior node's
    predecessor-side port is discarded and retried; a rotation rebinds
    the reversed segment's ports.  The stitching reads ``bound`` and
    the winning closure edge ``win_edge``.
    """

    def __init__(self, *, edges, rngs, size, step_budget):
        self.edges = edges
        self.rngs = rngs
        self.size = size
        self.step_budget = step_budget

        self.success = False
        self.fail_code = 0
        self.steps = 0
        self.rotations = 0
        #: The winning closure edge ``(head, tail, my_port, their_port)``.
        #: ``RotationWalk`` binds the head's successor ports before the
        #: win flood.
        self.win_edge: tuple[int, int, int, int] | None = None
        self.bound: dict[int, tuple[int, int]] = {}

        self._dead: set[tuple[int, int, int, int]] = set()  # (owner, peer, my, their)
        self._path: list[int] = []
        self._pos: dict[int, int] = {}
        self._free_port: dict[int, int | None] = {}

    def run(self) -> None:
        from repro.core.rotation import FAIL_BUDGET, FAIL_NO_EDGES, FAIL_TOO_SMALL

        if self.size < 3:
            self.fail_code = FAIL_TOO_SMALL
            return
        head = 1
        self._path = [head]
        self._pos[head] = 0
        self._free_port[head] = None
        for step in range(1, self.step_budget + 1):
            free = self._free_port[head]
            usable = [e for e in self.edges[head]
                      if (head, *e) not in self._dead
                      and (free is None or e[1] == free)]
            if not usable:
                self.fail_code = FAIL_NO_EDGES
                return
            target, my_port, their_port = usable[
                int(self.rngs[head].integers(len(usable)))]
            self.steps = step
            self._dead.add((head, target, my_port, their_port))
            self._dead.add((target, head, their_port, my_port))
            if free is None:  # the initial head binds its first edge
                self._free_port[head] = 1 - my_port

            if target not in self._pos:
                # Extension: the target joins the path as the new head.
                self.bound[head] = (self.bound.get(head, (0, 0))[0], my_port)
                self._pos[target] = len(self._path)
                self._path.append(target)
                self.bound[target] = (their_port, 0)
                self._free_port[target] = 1 - their_port
                head = target
                continue
            outcome, head = self._hit(head, target, my_port, their_port)
            if outcome == "win":
                self.success = True
                return
            if outcome == "rotate":
                self.rotations += 1
        self.fail_code = FAIL_BUDGET

    def _hit(self, head: int, target: int, my_port: int, their_port: int):
        """Progress landed on an on-path node: closure, retry, or rotation."""
        tpos = self._pos[target]
        tail = tpos == 0
        t_pred_port, t_succ_port = self.bound[target]
        if (tail and their_port == self._free_port[target]
                and len(self._path) == self.size):
            self.bound[target] = (their_port, t_succ_port)
            self.win_edge = (head, target, my_port, their_port)
            return "win", head
        if not tail and their_port != t_succ_port:
            return "retry", head
        # Rotation at j = tpos + 1 (1-based), head at h: reverse positions
        # j+1..h, i.e. list indices tpos+1 .. h-1.
        seg = self._path[tpos + 1:]
        seg.reverse()
        self._path[tpos + 1:] = seg
        for offset, v in enumerate(seg):
            self._pos[v] = tpos + 1 + offset
        # Port rebinding mirrors RotationWalk._on_rotation.
        if tail:
            self._free_port[target] = 1 - their_port
        self.bound[target] = (t_pred_port, their_port)
        for v in seg:
            p, s = self.bound[v]
            if v == head and len(seg) == 1:  # the head hit its own predecessor
                self.bound[v] = (my_port, 0)
                self._free_port[v] = p
            elif v == head:
                self.bound[v] = (my_port, p)
            elif v == seg[-1]:  # the new head: pred-side port freed
                self.bound[v] = (s, 0)
                self._free_port[v] = p
            else:
                self.bound[v] = (s, p)
        return "rotate", self._path[-1]

    def cycle(self) -> list[int]:
        """The walk's path in order, tail first (the cycle on a win)."""
        return list(self._path)
