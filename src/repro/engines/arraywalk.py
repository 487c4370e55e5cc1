"""Array-native execution kernel: CSR rotation walks and tree timing.

This module is the step-level engines' hot core, rewritten on raw CSR
buffers (:attr:`repro.graphs.adjacency.Graph.indptr` /
:attr:`~repro.graphs.adjacency.Graph.indices`).  The pure-Python
walker it replaced (now the parity oracle in ``tests/oracles.py``)
scans a Python edge list and a dead-edge *set* on every step; at
n=2048 that scan is the dominant sweep cost.  Here the same walk runs
on:

* **live-neighbour lists** (:func:`live_rows`): one Python list per
  node holding its not-yet-traversed neighbours in sorted CSR order,
  so a step is one ``list.pop`` at the drawn index plus one
  bisected ``del`` of the reverse orientation (pops keep every row
  sorted), with no per-step numpy scan;
* **a path window in an int64 buffer** with an orientation flag, plus
  an int64 node-to-slot array: a rotation moves only the shorter side
  of the cut — the head side reversed in place, or the tail side
  copied reversed past the head with the orientation flipped — as
  one slice copy and one fancy-indexed slot update instead of a
  Python loop (see :class:`ArrayWalk`);
* **vectorised tree construction** (:class:`ArrayTree`): frontier BFS
  with the min-id parent rule (:func:`bfs_forest`), the BFS
  completion-round recursion (:func:`tree_completion_times`) and tree
  eccentricities (:func:`tree_eccentricities`) all run as whole-level
  numpy operations, and each takes a forest as readily as one tree:
  DHC2's Phase 1 times all its colour classes in one call of each
  (:func:`~repro.engines.phase1_replay.build_class_forest`), and the
  batch engine's :class:`~repro.engines.batchwalk.BatchTree` uses the
  last two as well.

RNG-parity contract
-------------------
The kernel consumes the *same per-node RNG streams in the same
decision order* as the CONGEST protocol and the pure-Python walker:
at each step the head ``v`` draws exactly one
``rngs[v].integers(k)`` where ``k`` is the count of its remaining
(non-dead) edges, listed in sorted CSR order — the same count and
order the distributed walk sees.  That invariant is what makes the
``fast`` engine cycle/step/round-identical to ``congest`` and to the
``fast-py`` oracles in ``tests/oracles.py`` (enforced by the registry
``parity`` declarations and ``tests/test_engine_parity.py``).

The draw is the stream's own ``integers(k)`` but for one inlined case,
in :meth:`ArrayWalk.run` and nowhere else.  The streams
:func:`~repro.engines.batchwalk.node_streams` returns carry ``halves``,
each node's queue of prefetched 32-bit halves.  When the head's queue
is not empty, ``k > 1`` and ``(half * k) mod 2**32 >= k``, the walk
pops that half and uses ``(half * k) >> 32``.  That is the value
Lemire's reduction returns at once, because its rejection threshold
``(2**32 - k) % k`` lies below ``k``.  Every other draw (an empty
queue, ``k == 1``, a possible rejection) calls ``rngs[head].integers(k)``,
which builds that node's stream on first use.  So do all draws from
real Generators, which have no queue.  Either way the node's stream
moves on by exactly the halves the Generator would consume.

CSR invariants the kernel relies on
-----------------------------------
* every row slice ``indices[indptr[v]:indptr[v+1]]`` is sorted
  ascending (true for :class:`~repro.graphs.adjacency.Graph` and
  preserved by :func:`filtered_csr` masking);
* the CSR is *member-closed* for the walk/tree at hand: every listed
  neighbour of a participant is itself a participant (trivially true
  for the full graph; true per colour class for the same-colour CSR,
  since colour classes partition the nodes);
* the directed entries come in reverse pairs, so removing ``head``
  from the target's live list kills the edge in both orientations.

A new algorithm targets the kernel by building (or filtering) a CSR,
taking its per-node streams from
:func:`~repro.engines.batchwalk.node_streams` (the exact scalar
replication of ``SeedSequence(seed).spawn(n)`` Generators, indexed by
node id; only ``integers`` is available), and driving :class:`ArrayWalk` /
:class:`ArrayTree`; see ``docs/ARCHITECTURE.md``.  The ``congest``
engine keeps real Generators, as the independent reference.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.graphs.adjacency import csr_gather

__all__ = [
    "ArrayTree",
    "ArrayWalk",
    "bfs_forest",
    "build_array_tree",
    "filtered_csr",
    "live_rows",
    "same_color_csr",
    "tree_completion_times",
    "tree_eccentricities",
]


def live_rows(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """Per-node neighbour lists in sorted CSR order: a walk's live edges.

    :class:`ArrayWalk` consumes them, popping each traversed edge from
    both endpoints' lists.  Walks over disjoint member sets of one
    member-closed CSR (the DHC2 colour classes) share one object.
    """
    flat, ptr = indices.tolist(), indptr.tolist()
    return [flat[a:b] for a, b in zip(ptr, ptr[1:])]


def filtered_csr(indptr: np.ndarray, indices: np.ndarray,
                 keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR with only the directed entries where ``keep`` is True.

    ``keep`` is a boolean mask parallel to ``indices``.  Row order (and
    hence per-row sortedness) is preserved.  The caller is responsible
    for keeping the mask symmetric (keep ``u→v`` iff ``v→u``) so the
    result is still an undirected CSR.  The new row pointers count the
    kept entries before each old one: a ``searchsorted`` of the old row
    pointers into the kept positions, so no per-entry running count or
    source ids are built.
    """
    kept = np.flatnonzero(keep)
    return np.searchsorted(kept, indptr), indices[kept]


def same_color_csr(indptr: np.ndarray, indices: np.ndarray,
                   color_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`filtered_csr` keeping the entries whose ends share a colour.

    DHC2's Phase-1 CSR: one graph whose components are the colour
    classes.  The mask compares each row's colour, repeated over the
    row, with its neighbours' colours; it is symmetric by construction.
    """
    return filtered_csr(indptr, indices,
                        np.repeat(color_of, np.diff(indptr)) == color_of[indices])


def tree_completion_times(indptr: np.ndarray, indices: np.ndarray,
                          members: np.ndarray, depth: np.ndarray,
                          parent: np.ndarray, tree_depth: int,
                          start_round: int) -> np.ndarray:
    """Per-member round at which the done-report leaves each node.

    The same recursion as the parity oracle's completion-round helper
    (``tests/oracles.py``) — ``done(v) = max(join(v) + 1, peer
    responses, children done + 1)`` — evaluated
    level by level from the deepest up.  The peer-response term is a
    masked per-row ``maximum.reduceat`` over the members' CSR rows, the
    per-level child term a ``maximum.at`` scatter (each measured the
    faster of the two formulations).  Entries outside ``members``
    stay 0.  ``members`` (sorted) may span a forest: every term of a
    node comes from its own tree, so the DHC2 Phase-1 replay times all
    its colour classes in one call.  :class:`ArrayTree` calls it on its
    CSR and the batch tree once per trial, on that trial's block.
    """
    n = len(indptr) - 1
    lowest = np.iinfo(np.int64).min
    counts = indptr[members + 1] - indptr[members]
    srcs = np.repeat(members, counts)
    # Members holding every node own the whole CSR: no gather needed.
    dsts = indices if members.size == n else csr_gather(indptr, indices, members)
    # resp(v) = max over non-parent member neighbours w of
    # (start + depth(w) + 1); 0 when v has no such neighbour.
    masked = np.where(dsts != parent[srcs], depth[dsts], lowest)
    respd = np.full(n, lowest, dtype=np.int64)
    nonempty = counts > 0
    if masked.size:
        respd[members[nonempty]] = np.maximum.reduceat(
            masked, (np.cumsum(counts) - counts)[nonempty])
    resp = np.where(respd >= 0, start_round + respd + 1, 0)

    done = np.zeros(n, dtype=np.int64)
    kid = np.zeros(n, dtype=np.int64)
    by_depth = members[np.argsort(depth[members], kind="stable")]
    level_sizes = np.bincount(depth[members], minlength=tree_depth + 1)
    stops = np.cumsum(level_sizes)
    for d in range(tree_depth, -1, -1):
        level = by_depth[stops[d] - level_sizes[d]:stops[d]]
        done[level] = np.maximum(
            np.maximum(start_round + d + 1, resp[level]), kid[level])
        if d > 0:
            np.maximum.at(kid, parent[level], done[level] + 1)
    return done


def tree_eccentricities(parent: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Largest tree distance from each start (the cost of its flood).

    ``parent`` is a forest over the full id space (-1 at roots and
    outside the trees); each start must lie in its own tree.  One
    multi-source BFS runs over the tree edges, carrying each start's
    slot along its waves: a wave never leaves its tree, and in a tree
    every node is first reached from exactly one neighbour, so no
    wave needs de-duplication.  The last wave that carries a slot is
    that start's eccentricity.
    """
    far = np.zeros(starts.size, dtype=np.int64)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0 or starts.size == 0:
        return far
    src = np.concatenate((kids, parent[kids]))
    dst = np.concatenate((parent[kids], kids))[np.argsort(src, kind="stable")]
    total = parent.size
    tree_indptr = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=total), out=tree_indptr[1:])
    seen = np.zeros(total, dtype=bool)
    frontier = np.asarray(starts, dtype=np.int64)
    seen[frontier] = True
    slots = np.arange(starts.size)
    level = 0
    while True:
        counts = tree_indptr[frontier + 1] - tree_indptr[frontier]
        nbrs = csr_gather(tree_indptr, dst, frontier)
        fresh = ~seen[nbrs]
        if not fresh.any():
            return far
        level += 1
        frontier = nbrs[fresh]
        slots = np.repeat(slots, counts)[fresh]
        seen[frontier] = True
        far[slots] = level


class ArrayTree:
    """Vectorised replay of the min-id BFS spanning tree.

    Produces the same tree (root, parents, depths) as the parity
    oracle's min-id BFS builder (``tests/oracles.py``) and the same
    timing quantities (:meth:`completion_round`,
    :meth:`eccentricity`) as its pure-Python helpers, computed with
    whole-level numpy operations over the CSR.
    """

    __slots__ = ("root", "depth", "parent", "tree_depth", "members",
                 "_indptr", "_indices")

    def __init__(self, root: int, depth: np.ndarray, parent: np.ndarray,
                 tree_depth: int, members: np.ndarray,
                 indptr: np.ndarray, indices: np.ndarray):
        self.root = root
        self.depth = depth          # full-id-space, -1 outside the tree
        self.parent = parent        # full-id-space, -1 at root / outside
        self.tree_depth = tree_depth
        self.members = members      # sorted participant ids
        self._indptr = indptr
        self._indices = indices

    def completion_round(self, start_round: int) -> int:
        """Round at which the distributed BFS root sends commit."""
        return int(self.completion_times(start_round)[self.root])

    def completion_times(self, start_round: int) -> np.ndarray:
        """Per-member done-report rounds (see :func:`tree_completion_times`).

        The full vector is what the native k-machine engine's traffic
        model needs; the root's entry is the commit round the fast
        engines use.
        """
        return tree_completion_times(
            self._indptr, self._indices, self.members, self.depth,
            self.parent, self.tree_depth, start_round)

    def eccentricity(self, v: int) -> int:
        """Largest tree distance from ``v`` (cost of a flood it starts)."""
        return int(tree_eccentricities(
            self.parent, np.array([v], dtype=np.int64))[0])


def bfs_forest(indptr: np.ndarray, indices: np.ndarray,
               roots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-id BFS trees grown from every root at once: ``(depth, parent, reached)``.

    Each root must lie in its own component of the CSR (the DHC2 colour
    classes of the same-colour CSR, or one root of a member-closed
    CSR), so the trees never meet and one frontier BFS builds them
    all.  Each wave's fresh node takes as parent its *minimum-id*
    offer from the wave before — the offer the distributed protocol
    keeps — by one ``minimum.at`` scatter of the offering ids.
    ``depth`` and ``parent`` span the full id space (-1 where
    unreached; ``parent`` -1 at the roots); ``reached`` lists the
    reached ids ascending.
    """
    n = len(indptr) - 1
    depth = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    offer = np.full(n, n, dtype=np.int64)  # sentinel above any id
    frontier = np.asarray(roots, dtype=np.int64)
    depth[frontier] = 0
    d = 0
    while frontier.size:
        counts = indptr[frontier + 1] - indptr[frontier]
        nbrs = csr_gather(indptr, indices, frontier)
        fresh = depth[nbrs] < 0
        np.minimum.at(offer, nbrs[fresh], np.repeat(frontier, counts)[fresh])
        frontier = np.flatnonzero(offer < n)
        d += 1
        depth[frontier] = d
        parent[frontier] = offer[frontier]
        offer[frontier] = n
    return depth, parent, np.flatnonzero(depth >= 0)


def build_array_tree(indptr: np.ndarray, indices: np.ndarray,
                     members: np.ndarray, root: int) -> ArrayTree | None:
    """Build the min-id BFS tree over ``members``, or ``None`` if the
    member subgraph is disconnected (the distributed BFS would hit its
    deadline).

    The CSR must be member-closed (see module docstring).  This is
    :func:`bfs_forest` with the one root, and gives the parity
    oracle's min-id BFS tree.  A DHC2 Phase 1 builds all its colour
    classes' trees as one forest instead
    (:func:`~repro.engines.phase1_replay.replay_phase1`).
    """
    depth, parent, reached = bfs_forest(
        indptr, indices, np.array([root], dtype=np.int64))
    if reached.size != members.size:
        return None
    return ArrayTree(root, depth, parent, int(depth.max()), members,
                     indptr, indices)


def _recentre(buf: np.ndarray, pos: np.ndarray, ramp: np.ndarray,
              lo: int, hi: int) -> tuple[int, int]:
    """Move the path window ``buf[lo:hi]`` to the middle of ``buf``.

    :class:`ArrayWalk` calls this only when the next extension or
    tail move would leave the buffer; returns the new ``(lo, hi)``.
    """
    plen = hi - lo
    new_lo = (buf.size - plen) // 2
    window = buf[lo:hi].copy()
    buf[new_lo:new_lo + plen] = window
    pos[window] = ramp[new_lo:new_lo + plen]
    return new_lo, new_lo + plen


class ArrayWalk:
    """The rotation walk of Algorithm 1 on live-neighbour lists.

    Decision-identical to the parity oracle's walker
    (``tests/oracles.py``): same RNG draws, same edge kills, same
    extension/rotation/win sequence, same round accounting and failure
    codes.  DHC1's ported virtual walk runs on its own walker
    (:class:`repro.engines.kmachine_dhc1._PortedWalk`): port
    bookkeeping is per-edge state the neighbour lists do not model.

    The path lives in a window ``[lo, hi)`` of an int64 buffer four
    times the participant count, read tail-to-head when ``fwd`` is
    set and head-to-tail otherwise; ``pos`` maps each path node to its
    buffer slot.  The path plus the virtual closing edge (head, tail)
    is a cycle, so a rotation at target ``t`` may reverse either side
    of the cut after ``t``: the head side in place, or the tail side
    (up to ``t``) copied reversed past the head with the window and
    orientation flipped — whichever is shorter.  Either way the
    logical path, and hence every later decision, is the same.  A
    window that reaches a buffer edge is re-centred
    (:func:`_recentre`).  :meth:`cycle` returns the logical path, tail
    first.

    Parameters
    ----------
    rows:
        Live-neighbour lists from :func:`live_rows` for the walk's CSR
        (full graph, or a colour-filtered view), indexed by original
        node id.  The walk pops every traversed edge from both
        endpoints' lists, so one object serves walks on disjoint
        member sets (the DHC2 colour classes).
    rngs:
        Per-node generators, indexed by *original* node id.  When it
        has ``halves`` (a queue of prefetched halves per node, as
        :func:`~repro.engines.batchwalk.node_streams` gives), the walk
        takes the common draw from the head's queue itself and leaves
        the rest to ``rngs[head].integers`` (see the module's
        RNG-parity contract); real Generators get every draw.
    size:
        Participant count — the cycle length a win requires.
    """

    __slots__ = ("size", "rngs", "initial_head", "step_budget", "tree_depth",
                 "round", "success", "fail_code", "steps",
                 "rotations", "extensions", "retries", "end_round",
                 "flood_initiator", "trace", "_rows", "_buf", "_pos",
                 "_lo", "_hi", "_fwd")

    def __init__(self, *, rows, rngs, size, initial_head, step_budget,
                 tree_depth, start_round, trace=None):
        self.size = size
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
        #: Optional per-step endpoint log: ``(head, target)`` appended
        #: for every progress message the walk sends, in step order.
        #: The native k-machine engine feeds this to its link ledger;
        #: ``None`` (the default) keeps the hot loop branch-only.
        self.trace = trace

        self._rows = rows
        self._buf = np.empty(4 * size, dtype=np.int64)
        self._pos = np.full(len(rows), -1, dtype=np.int64)
        self._lo = self._hi = 0
        self._fwd = True

    def run(self) -> None:
        # Lazy: the fail codes live beside the CONGEST walk, and
        # importing that module drags in the simulator substrate.
        from repro.core.rotation import FAIL_BUDGET, FAIL_NO_EDGES, FAIL_TOO_SMALL

        if self.size < 3:
            self._fail(FAIL_TOO_SMALL, self.initial_head)
            return
        rows, buf, pos, rngs = self._rows, self._buf, self._pos, self.rngs
        # The heads' prefetched halves (``node_streams``); real
        # Generators have none, so every draw goes to them.
        queues = getattr(rngs, "halves", None)
        if queues is None:
            queues = [()] * len(rows)
        # Hot-loop locals: a slot ramp for position updates, the
        # per-step constants, and the counters written back at exit.
        cap = buf.size
        ramp = np.arange(cap, dtype=np.int64)
        size, budget = self.size, self.step_budget
        rotation_cost = 2 * self.tree_depth + 3
        trace = self.trace
        rnd = self.round
        steps = rotations = extensions = 0

        head = target = self.initial_head
        lo = cap // 2
        hi = lo + 1
        buf[lo] = head
        pos[head] = lo
        fwd = True
        while True:
            if steps >= budget:
                fail = FAIL_BUDGET
                break
            live = rows[head]
            if not live:
                fail = FAIL_NO_EDGES
                break
            # The head's live edges in sorted CSR order: the same count
            # and order the distributed walk draws over.  Pops keep the
            # rows sorted, so the reverse orientation is found by bisection.
            # Lemire's accept test on the head's next prefetched half: a
            # low product word of at least k clears every rejection
            # threshold, (2**32 - k) % k < k.  An empty queue, k == 1 or
            # a possible rejection leaves the draw to the stream itself.
            k = len(live)
            queue = queues[head]
            if queue and k > 1 and (m := queue[-1] * k) & 0xFFFFFFFF >= k:
                queue.pop()
                target = live.pop(m >> 32)
            else:
                target = live.pop(rngs[head].integers(k))
            row = rows[target]
            del row[bisect_left(row, head)]
            steps += 1
            if trace is not None:
                trace.append((head, target))

            p = pos.item(target)
            if p < 0:
                # Extension: 1 round (send; the new head acts next round).
                if fwd:
                    if hi == cap:
                        lo, hi = _recentre(buf, pos, ramp, lo, hi)
                    buf[hi] = target
                    pos[target] = hi
                    hi += 1
                else:
                    if lo == 0:
                        lo, hi = _recentre(buf, pos, ramp, lo, hi)
                    lo -= 1
                    buf[lo] = target
                    pos[target] = lo
                head = target
                rnd += 1
                extensions += 1
                continue
            # The cut falls just after the target: the tail side runs
            # from the tail to the target, the head side from there on.
            if fwd:
                tail_side, head_side = p + 1 - lo, hi - 1 - p
            else:
                tail_side, head_side = hi - p, p - lo
            if tail_side == 1 and hi - lo == size:
                # Closure: the head hit the open tail with a full path.
                fail = 0
                break
            # Rotation: the node after the target becomes the head.
            rnd += rotation_cost
            rotations += 1
            if fwd:
                head = buf.item(p + 1)
                if head_side <= tail_side:
                    seg = buf[p + 1:hi]
                    seg[:] = seg[::-1]
                    pos[seg] = ramp[p + 1:hi]
                    continue
                if hi + tail_side > cap:
                    lo, hi = _recentre(buf, pos, ramp, lo, hi)
                    p = pos.item(target)
                seg = buf[hi:hi + tail_side]
                seg[:] = buf[lo:p + 1][::-1]
                pos[seg] = ramp[hi:hi + tail_side]
                lo, hi = p + 1, hi + tail_side
            else:
                head = buf.item(p - 1)
                if head_side <= tail_side:
                    seg = buf[lo:p]
                    seg[:] = seg[::-1]
                    pos[seg] = ramp[lo:p]
                    continue
                if lo < tail_side:
                    lo, hi = _recentre(buf, pos, ramp, lo, hi)
                    p = pos.item(target)
                seg = buf[lo - tail_side:lo]
                seg[:] = buf[p:hi][::-1]
                pos[seg] = ramp[lo - tail_side:lo]
                lo, hi = lo - tail_side, p
            fwd = not fwd

        self.steps, self.round = steps, rnd
        self.rotations, self.extensions = rotations, extensions
        self._lo, self._hi, self._fwd = lo, hi, fwd
        if fail:
            self._fail(fail, head)
        else:
            self.success = True
            self.flood_initiator = target
            self.end_round = rnd + 1

    def _fail(self, code: int, at: int) -> None:
        self.fail_code = code
        self.flood_initiator = at
        self.end_round = self.round

    def cycle(self) -> list[int]:
        """The walk's path in order, tail first (the cycle on a win)."""
        window = self._buf[self._lo:self._hi]
        return (window if self._fwd else window[::-1]).tolist()
