"""Step-level fast engine: the same algorithms without per-message cost.

For scaling experiments the message-level simulator is too slow (a
single rotation broadcast is Θ(n) Python-object messages).  This engine
executes the *identical* algorithm — same leader, same spanning tree,
same per-node RNG streams, same unused-edge bookkeeping, same decision
order — and advances the round counter by the deterministic schedule
the CONGEST protocol follows:

* flood-min election: ``diameter_budget(n)`` rounds (fixed deadline);
* BFS build: exact per-node event recursion (join wave, response wave,
  done convergecast, commit wave) — the same rounds the message-level
  :class:`~repro.primitives.bfs.BfsTree` takes;
* rotation walk: 1 round per extension, ``2 * tree_depth + 3`` rounds
  per rotation (flood + quiescence wait), 2 per ported retry, and the
  final win/fail flood costs the initiator's tree eccentricity.

Integration tests assert that, seed for seed, this engine and the
CONGEST engine return the *same cycle, step count, and round count* —
which is what licenses using it for the large-n benchmark sweeps.

Two implementations share this contract.  ``engine="fast"`` runs on
the array-native CSR kernel (:mod:`repro.engines.arraywalk`):
live-neighbour lists, int64 path/position arrays, vectorised tree
timing.  The original pure-Python walker below (``_dra_fast_py`` /
:class:`_FastWalk`) spent its one deprecation release registered as
``engine="fast-py"`` and is now a *test-only parity oracle*: no
longer in the registry, but importable so
``tests/test_engine_parity.py`` can assert the kernel remains
decision-identical to it seed for seed.

The native k-machine engine does not re-run the DRA walk: it calls
``_dra_fast`` with the internal ``trace=`` dict and charges its link
ledger from what the replay recorded.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import diameter_budget, dra_step_budget
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["SpanningTree", "build_min_id_bfs_tree", "bfs_completion_round"]


class SpanningTree:
    """The min-id BFS tree both engines build, with exact timing data."""

    __slots__ = ("root", "parent", "depth", "children", "tree_depth", "order")

    def __init__(self, root: int, parent: dict[int, int], depth: dict[int, int],
                 children: dict[int, list[int]], order: list[int]):
        self.root = root
        self.parent = parent
        self.depth = depth
        self.children = children
        self.tree_depth = max(depth.values()) if depth else 0
        self.order = order  # BFS visit order (for deterministic post-order walks)

    def eccentricity(self, v: int) -> int:
        """Largest tree distance from ``v`` (cost of a flood it initiates)."""
        # dist(v, w) in a tree = depth(v) + depth(w) - 2 * depth(lca); a
        # two-pass computation is overkill here — tree sizes are the
        # participant counts, so a direct BFS over the tree is fine.
        adjacency: dict[int, list[int]] = {u: list(self.children[u]) for u in self.depth}
        for u, p in self.parent.items():
            if p >= 0:
                adjacency[u].append(p)
        dist = {v: 0}
        frontier = [v]
        far = 0
        while frontier:
            nxt = []
            for u in frontier:
                for w in adjacency[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        far = max(far, dist[w])
                        nxt.append(w)
            frontier = nxt
        return far


def build_min_id_bfs_tree(members: list[int], neighbors_of, root: int) -> SpanningTree | None:
    """Rebuild the tree :class:`~repro.primitives.bfs.BfsTree` would build.

    ``neighbors_of(v)`` must yield the *participating* neighbours in
    ascending id order.  Returns ``None`` if some member is unreachable
    from ``root`` (the distributed BFS would hit its deadline).
    """
    member_set = set(members)
    depth = {root: 0}
    parent = {root: -1}
    children: dict[int, list[int]] = {v: [] for v in members}
    order = [root]
    frontier = [root]
    while frontier:
        nxt = []
        for v in sorted(frontier):
            for w in neighbors_of(v):
                if w in member_set and w not in depth:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
        order.extend(sorted(frontier))
    if len(depth) != len(member_set):
        return None
    # The distributed protocol picks the min-id among shallowest offers.
    for w in members:
        if w == root:
            continue
        best = min(u for u in neighbors_of(w) if u in member_set and depth[u] == depth[w] - 1)
        parent[w] = best
    for w in members:
        if w != root:
            children[parent[w]].append(w)
    for v in children:
        children[v].sort()
    return SpanningTree(root, parent, depth, children, order)


def bfs_completion_round(tree: SpanningTree, neighbors_of, start_round: int) -> int:
    """Exact round at which the distributed BFS root finishes (sends commit).

    Mirrors :class:`~repro.primitives.bfs.BfsTree`: ``join(v) = start +
    depth(v)``; responses from peer ``w`` arrive at ``join(w) + 1``;
    ``done(v) = max(join(v) + 1, responses, max_children(done) + 1)``.
    """
    member_depth = tree.depth
    done: dict[int, int] = {}
    # Children finish before parents; reverse BFS order is a post-order.
    for v in reversed(tree.order):
        join_v = start_round + member_depth[v]
        resp = 0
        for w in neighbors_of(v):
            if w in member_depth and w != tree.parent[v]:
                resp = max(resp, start_round + member_depth[w] + 1)
        kid = max((done[c] + 1 for c in tree.children[v]), default=0)
        done[v] = max(join_v + 1, resp, kid)
    return done[tree.root]


def _dra_fast(
    graph: Graph,
    *,
    seed: int = 0,
    step_budget: int | None = None,
    trace: dict | None = None,
) -> RunResult:
    """Algorithm 1 on the array kernel; see module docstring for fidelity.

    ``trace``, if given, receives ``tree`` (``None`` if the BFS fails)
    and then the finished ``walk``, its ``(head, target)`` step log
    ``steps`` and the final flood's ``flood_ecc``, without perturbing
    any decision; the native k-machine engine charges from it.
    """
    from repro.engines.arraywalk import ArrayWalk, build_array_tree, live_rows
    from repro.engines.batchwalk import node_streams

    n = graph.n
    budget = step_budget if step_budget is not None else dra_step_budget(n)
    rngs = node_streams(seed, n)

    election_rounds = diameter_budget(n)
    indptr, indices = graph.indptr, graph.indices
    tree = build_array_tree(indptr, indices,
                            np.arange(n, dtype=np.int64), root=0) if n else None
    if trace is not None:
        trace.update(tree=tree, steps=[])
    if tree is None:
        deadline = election_rounds + 3 * diameter_budget(n) + 8
        return RunResult("dra", False, None, deadline, engine="fast",
                         detail={"fail_codes": ["bfs-unreachable"]})

    walk = ArrayWalk(
        rows=live_rows(indptr, indices),
        rngs=rngs,
        size=n,
        initial_head=tree.root,
        step_budget=budget,
        tree_depth=max(1, tree.tree_depth),
        start_round=tree.completion_round(election_rounds) + 1,
        trace=None if trace is None else trace["steps"],
    )
    walk.run()
    flood_ecc = tree.eccentricity(walk.flood_initiator)
    if trace is not None:
        trace.update(walk=walk, flood_ecc=flood_ecc)
    return _dra_result(graph, walk, walk.end_round + flood_ecc, engine="fast")


def _dra_fast_py(
    graph: Graph,
    *,
    seed: int = 0,
    step_budget: int | None = None,
) -> RunResult:
    """Algorithm 1 on the pure-Python walker (the kernel's parity oracle)."""
    n = graph.n
    budget = step_budget if step_budget is not None else dra_step_budget(n)
    seeds = np.random.SeedSequence(seed).spawn(n) if n else []
    rngs = [np.random.default_rng(s) for s in seeds]

    election_rounds = diameter_budget(n)
    members = list(range(n))
    tree = build_min_id_bfs_tree(members, graph.neighbor_list, root=0) if n else None
    if tree is None:
        deadline = election_rounds + 3 * diameter_budget(n) + 8
        return RunResult("dra", False, None, deadline, engine="fast-py",
                         detail={"fail_codes": ["bfs-unreachable"]})

    finish = bfs_completion_round(tree, graph.neighbor_list, election_rounds)
    walk = _FastWalk(
        size=n,
        edges_of=lambda v: [(w, 0, 0) for w in graph.neighbor_list(v)],
        rngs=rngs,
        initial_head=tree.root,
        step_budget=budget,
        tree_depth=max(1, tree.tree_depth),
        start_round=finish + 1,
    )
    walk.run()
    end_round = walk.end_round + tree.eccentricity(walk.flood_initiator)
    return _dra_result(graph, walk, end_round, engine="fast-py")


def _dra_result(graph: Graph, walk, end_round: int, *, engine: str) -> RunResult:
    """Shared verification + RunResult assembly for both DRA walkers."""
    cycle = verified_cycle(graph, walk.cycle()) if walk.success else None
    return RunResult(
        algorithm="dra",
        success=cycle is not None,
        cycle=cycle,
        rounds=end_round,
        steps=walk.steps,
        engine=engine,
        detail={"fail_codes": [walk.fail_code] if walk.fail_code else [],
                "rotations": walk.rotations, "extensions": walk.extensions,
                "retries": walk.retries},
    )


class _FastWalk:
    """Centralised replay of :class:`repro.core.rotation.RotationWalk`.

    ``edges_of(v)`` must list virtual-edge triples ``(peer, my_port,
    peer_port)`` in exactly the order the distributed walk builds them,
    and ``rngs[v]`` must be the same generator stream — those two
    invariants are what make the engines decision-identical.
    """

    def __init__(self, *, size, edges_of, rngs, initial_head, step_budget,
                 tree_depth, start_round, ported=False):
        self.size = size
        self.edges_of = edges_of
        self.rngs = rngs
        self.initial_head = initial_head
        self.step_budget = step_budget
        self.tree_depth = tree_depth
        self.round = start_round
        self.ported = ported

        self.success = False
        self.fail_code = 0
        self.steps = 0
        self.rotations = 0
        self.extensions = 0
        self.retries = 0
        self.end_round = start_round
        self.flood_initiator = initial_head
        #: The winning closure edge ``(head, tail, my_port, their_port)``.
        #: ``RotationWalk`` binds the head's successor ports before the
        #: win flood; DHC1's stitching reads them from here.
        self.win_edge: tuple[int, int, int, int] | None = None

        self._edges: dict[int, list[tuple[int, int, int]]] = {}
        self._dead: set[tuple[int, int, int, int]] = set()  # (owner, peer, my, their)
        self._path: list[int] = []
        self._pos: dict[int, int] = {}
        self._free_port: dict[int, int | None] = {}
        self._bound: dict[int, tuple[int, int]] = {}  # vid -> (pred_port, succ_port)

    # -- driver --------------------------------------------------------------------

    def run(self) -> None:
        from repro.core.rotation import FAIL_BUDGET, FAIL_NO_EDGES, FAIL_TOO_SMALL

        if self.size < 3:
            self._fail(FAIL_TOO_SMALL, self.initial_head)
            return
        head = self.initial_head
        self._path = [head]
        self._pos[head] = 0
        self._free_port[head] = None
        step = 1
        while True:
            if step > self.step_budget:
                self._fail(FAIL_BUDGET, head)
                return
            edge = self._pick(head)
            if edge is None:
                self._fail(FAIL_NO_EDGES, head)
                return
            self.steps = step
            target, my_port, their_port = edge
            self._kill(head, target, my_port, their_port)
            if self._free_port.get(head, 0) is None:
                self._free_port[head] = (1 - my_port) if self.ported else 0

            if target not in self._pos:
                # Extension: 1 round (send; the new head acts next round).
                self._grow(head, target, my_port, their_port)
                head = target
                self.round += 1
                self.extensions += 1
            else:
                outcome, head = self._hit(head, target, my_port, their_port)
                if outcome == "win":
                    self.success = True
                    self.flood_initiator = target
                    self.end_round = self.round + 1
                    return
                if outcome == "retry":
                    self.round += 2
                    self.retries += 1
                else:  # rotation: flood at round+1, head waits quiescence
                    self.round += 2 * self.tree_depth + 3
                    self.rotations += 1
            step += 1

    # -- walk mechanics -------------------------------------------------------------

    def _edge_list(self, v: int) -> list[tuple[int, int, int]]:
        if v not in self._edges:
            self._edges[v] = self.edges_of(v)
        return self._edges[v]

    def _pick(self, head: int) -> tuple[int, int, int] | None:
        free = self._free_port.get(head, 0)
        usable = [
            e for e in self._edge_list(head)
            if (head, *e) not in self._dead and (free is None or e[1] == free)
        ]
        if not usable:
            return None
        return usable[int(self.rngs[head].integers(len(usable)))]

    def _kill(self, a: int, b: int, my_port: int, their_port: int) -> None:
        self._dead.add((a, b, my_port, their_port))
        self._dead.add((b, a, their_port, my_port))

    def _grow(self, head: int, target: int, my_port: int, their_port: int) -> None:
        self._bound.setdefault(head, (0, 0))
        pred_port, _ = self._bound.get(head, (0, 0))
        self._bound[head] = (pred_port, my_port)
        self._pos[target] = len(self._path)
        self._path.append(target)
        self._bound[target] = (their_port, 0)
        self._free_port[target] = (1 - their_port) if self.ported else 0

    def _hit(self, head: int, target: int, my_port: int, their_port: int):
        """Progress landed on an on-path node: closure, retry, or rotation."""
        h = len(self._path)  # head's 1-based cycindex
        tpos = self._pos[target]
        tail = tpos == 0
        t_pred_port, t_succ_port = self._bound.get(target, (0, 0))
        tail_open = tail and (not self.ported or their_port == self._free_port[target])

        if tail_open and h == self.size:
            self._bound[target] = (their_port, t_succ_port)
            self.win_edge = (head, target, my_port, their_port)
            return "win", head
        if self.ported and not tail and their_port != t_succ_port:
            return "retry", head
        # Rotation at j = tpos + 1 (1-based), head at h: reverse positions
        # j+1..h, i.e. list indices tpos+1 .. h-1.
        seg = self._path[tpos + 1:]
        seg.reverse()
        self._path[tpos + 1:] = seg
        for offset, v in enumerate(seg):
            self._pos[v] = tpos + 1 + offset
        # Port bookkeeping mirrors RotationWalk._on_rotation.
        if self.ported:
            self._rotate_ports(target, their_port, head, my_port, seg, tail)
        new_head = self._path[-1]
        self._free_port.setdefault(new_head, 0)
        return "rotate", new_head

    def _rotate_ports(self, target, their_port, old_head, my_port, seg, tail) -> None:
        t_pred, t_succ = self._bound.get(target, (0, 0))
        if tail:
            self._free_port[target] = 1 - their_port
        self._bound[target] = (t_pred, their_port)
        degenerate = len(seg) == 1  # old head hit its own predecessor
        for v in seg:
            p, s = self._bound.get(v, (0, 0))
            if v == old_head and degenerate:
                self._bound[v] = (my_port, 0)
                self._free_port[v] = p
            elif v == old_head:
                self._bound[v] = (my_port, p)
            elif v == seg[-1]:  # the new head: pred-side port freed
                self._bound[v] = (s, 0)
                self._free_port[v] = p
            else:
                self._bound[v] = (s, p)

    def _fail(self, code: int, at: int) -> None:
        self.fail_code = code
        self.flood_initiator = at
        self.end_round = self.round

    def cycle(self) -> list[int]:
        return list(self._path)
