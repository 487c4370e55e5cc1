"""Pure-Python parity oracles for the step-level engines.

These are the walkers and tree helpers the array kernel
(:mod:`repro.engines.arraywalk`) replaced.  They spent one release
registered as ``engine="fast-py"`` and now live only here: the parity
suite (``tests/test_engine_parity.py``) asserts seed for seed that the
``fast`` engine makes the same decisions they make, and E15
(``benchmarks/bench_e15_engine_throughput.py``) times them under the
``fast-py`` label.

* :class:`SpanningTree`, :func:`build_min_id_bfs_tree` and
  :func:`bfs_completion_round` rebuild the min-id BFS tree
  :class:`~repro.primitives.bfs.BfsTree` builds, and its exact
  completion round, with dicts and per-node loops;
* :class:`_FastWalk` replays the unported
  :class:`~repro.core.rotation.RotationWalk` on a Python edge list
  and a dead-edge set;
* :func:`_dra_fast_py` and :func:`_dhc2_fast_py` run Algorithms 1
  and 3 on them.  They share result assembly (``fast._dra_result``)
  and DHC2's deterministic Phase 2 (``fast_dhc2._phase2``) with the
  kernel engines.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import diameter_budget, dra_step_budget
from repro.core.dhc2 import default_color_count
from repro.core.phase1 import resolve_colors
from repro.engines.fast import _dra_result
from repro.engines.fast_dhc2 import _fail, _phase2
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph


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


def _dhc2_fast_py(
    graph: Graph,
    *,
    delta: float = 0.5,
    k: int | None = None,
    seed: int = 0,
) -> RunResult:
    """Algorithm 3 on the pure-Python walker (the kernel's parity oracle)."""
    n = graph.n
    colors = resolve_colors(k, lambda: default_color_count(n, delta))
    seeds = np.random.SeedSequence(seed).spawn(n) if n else []
    rngs = [np.random.default_rng(s) for s in seeds]

    color_of = np.array([1 + int(rngs[v].integers(colors)) for v in range(n)], dtype=np.int64)
    classes: dict[int, list[int]] = {c: [] for c in range(1, colors + 1)}
    for v in range(n):
        classes[int(color_of[v])].append(v)

    def same_color_neighbors(v: int) -> list[int]:
        return [int(w) for w in graph.neighbors(v) if color_of[w] == color_of[v]]

    # -- Phase 1: replay every partition walk ------------------------------------
    elect_budget = diameter_budget(max(3, (2 * n) // max(1, colors)))
    phase1_start = 1 + elect_budget  # colour round + election deadline
    cycles: dict[int, list[int]] = {}
    steps = 0
    phase1_end = phase1_start
    for c, members in classes.items():
        if not members:
            return _fail(n, colors, phase1_start, "empty-partition", "fast-py")
        tree = build_min_id_bfs_tree(members, same_color_neighbors, root=min(members))
        if tree is None:
            return _fail(n, colors, phase1_start, "partition-disconnected",
                         "fast-py")
        finish = bfs_completion_round(tree, same_color_neighbors, phase1_start)
        walk = _FastWalk(
            size=len(members),
            edges_of=lambda v: [(w, 0, 0) for w in same_color_neighbors(v)],
            rngs=rngs,
            initial_head=tree.root,
            step_budget=dra_step_budget(len(members)),
            tree_depth=max(1, tree.tree_depth),
            start_round=finish + 1,
        )
        walk.run()
        steps = max(steps, walk.steps)
        if not walk.success:
            return _fail(n, colors, walk.end_round, f"walk-{walk.fail_code}",
                         "fast-py")
        cycles[c] = walk.cycle()
        phase1_end = max(phase1_end, walk.end_round + tree.eccentricity(walk.flood_initiator))

    return _phase2(graph, cycles, colors, phase1_end, steps, "fast-py")


class _FastWalk:
    """Centralised replay of the unported :class:`repro.core.rotation.RotationWalk`.

    ``edges_of(v)`` must list edge triples ``(peer, 0, 0)`` in exactly
    the order the distributed walk sees them, and ``rngs[v]`` must be
    the same generator stream — those two invariants are what make the
    engines decision-identical.

    The triples, the 4-tuple dead set and the per-step scan with its
    free-port test are the ported walker's per-step work, kept (though
    every port is 0) so E15's ``fast-py`` timings stay comparable with
    its committed series.
    """

    def __init__(self, *, size, edges_of, rngs, initial_head, step_budget,
                 tree_depth, start_round):
        self.size = size
        self.edges_of = edges_of
        self.rngs = rngs
        self.initial_head = initial_head
        self.step_budget = step_budget
        self.tree_depth = tree_depth
        self.round = start_round

        self.success = False
        self.fail_code = 0
        self.steps = 0
        self.rotations = 0
        self.extensions = 0
        self.retries = 0  # unported walks never retry; kept for RunResult parity
        self.end_round = start_round
        self.flood_initiator = initial_head

        self._edges: dict[int, list[tuple[int, int, int]]] = {}
        self._dead: set[tuple[int, int, int, int]] = set()  # (owner, peer, my, their)
        self._path: list[int] = []
        self._pos: dict[int, int] = {}
        self._free_port: dict[int, int | None] = {}

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
                self._free_port[head] = 0

            if target not in self._pos:
                # Extension: 1 round (send; the new head acts next round).
                self._grow(target)
                head = target
                self.round += 1
                self.extensions += 1
            elif self._pos[target] == 0 and len(self._path) == self.size:
                # Closure: the head hit the tail with a full path.
                self.success = True
                self.flood_initiator = target
                self.end_round = self.round + 1
                return
            else:  # rotation: flood at round+1, head waits quiescence
                head = self._rotate(target)
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

    def _grow(self, target: int) -> None:
        self._pos[target] = len(self._path)
        self._path.append(target)
        self._free_port[target] = 0

    def _rotate(self, target: int) -> int:
        """Reverse the path after ``target``; return the new head."""
        # Rotation at j = tpos + 1 (1-based), head at h: reverse positions
        # j+1..h, i.e. list indices tpos+1 .. h-1.
        tpos = self._pos[target]
        seg = self._path[tpos + 1:]
        seg.reverse()
        self._path[tpos + 1:] = seg
        for offset, v in enumerate(seg):
            self._pos[v] = tpos + 1 + offset
        return self._path[-1]

    def _fail(self, code: int, at: int) -> None:
        self.fail_code = code
        self.flood_initiator = at
        self.end_round = self.round

    def cycle(self) -> list[int]:
        return list(self._path)
