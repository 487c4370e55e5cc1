"""Batch-major state for B same-n trials, kept only for the benchmark.

No module under ``src/repro`` imports this one.  ``fast-batch`` runs
each trial on per-trial ``fast`` (:mod:`repro.engines.fast_batch`),
and the per-node streams every engine draws from live in
:mod:`repro.engines.streams`.  What is left here is what the
benchmark's ledger and setup probe still name (``perfbench/``):
:class:`DrawPool`, :class:`BatchWalk`, :class:`BatchTree`,
:func:`build_batch_tree`, :func:`stack_graph_csrs` and
:func:`stacked_edge_twins`.  ROADMAP item 1 deletes the module once
the benchmark stops naming them.

The layout: trial ``b``'s node ``v`` becomes global id ``b * n + v``
of one disjoint-union CSR (:func:`stack_graph_csrs`), with a
reverse-edge twin table (:func:`stacked_edge_twins`) and, in
:class:`BatchWalk`, a live-edge bitmask of one bit per directed edge.
:class:`DrawPool` draws every node's
``Generator(PCG64(child)).integers(bound)`` stream in whole-array
arithmetic from the replication in :mod:`repro.engines.streams`.
:class:`BatchWalk` and :func:`build_batch_tree` run each trial's walk
and BFS to completion in plain Python loops (:func:`_walk_steps`,
:func:`_tree_build`), step for step as
:class:`~repro.engines.arraywalk.ArrayWalk` and
:func:`~repro.engines.arraywalk.build_array_tree`.
"""

from __future__ import annotations

import numpy as np

from repro.engines import streams
from repro.engines.arraywalk import tree_completion_times, tree_eccentricities
from repro.engines.streams import (
    _MASK32,
    _PCG_MH,
    _PCG_ML,
    _PCG_ML_HI,
    _PCG_ML_LO,
    _RANGE32,
    _U0,
    _U1,
    _U32,
    _U58,
    _U63,
    _U64,
    _pcg_mult_add,
    _pcg_out,
    _pcg_srandom,
    _spawned_pcg_states,
)

__all__ = [
    "BatchTree",
    "BatchWalk",
    "DrawPool",
    "build_batch_tree",
    "stack_graph_csrs",
    "stacked_edge_twins",
]


def stack_graph_csrs(graphs) -> tuple[np.ndarray, np.ndarray]:
    """The disjoint-union CSR of B same-n graphs (ids offset by ``b*n``).

    ``indices`` comes back int32: half-width entries are half the
    memory traffic of every pass that gathers them.  A batch past
    2**31 directed entries or node ids raises.
    """
    n = graphs[0].n
    indptrs = np.stack([np.asarray(g.indptr, dtype=np.int64) for g in graphs])
    edge_off = np.concatenate(
        ([0], np.cumsum(indptrs[:, -1], dtype=np.int64)))
    if edge_off[-1] >= 2**31 or len(graphs) * n >= 2**31:
        raise ValueError(
            "stacked batch exceeds int32 id space; stack fewer graphs "
            "so the batch stays below 2**31 entries")
    indptr = np.concatenate(
        ((indptrs[:, :-1] + edge_off[:-1, None]).ravel(), edge_off[-1:]))
    indices = np.empty(int(edge_off[-1]), dtype=np.int32)
    for b, g in enumerate(graphs):
        at = int(edge_off[b])
        row = np.asarray(g.indices)
        indices[at:at + row.size] = row
        if b:
            indices[at:at + row.size] += np.int32(b * n)
    return indptr, indices


class DrawPool:
    """Per-node bounded-integer streams, drawn for a whole pass at once.

    One pool owns the ``B*n`` node streams of a batch — the exact
    ``SeedSequence(seed_b).spawn(n)`` children that ``engine="fast"``
    draws from through :func:`~repro.engines.streams.node_streams` —
    and serves
    ``draw(nodes, bounds)``: one value per lane, each from its own
    stream, bitwise identical to ``Generator(PCG64(child))
    .integers(bound)`` called in the same per-node order.

    How: the PCG64 LCG states of *all* children are materialised up
    front by the vectorised SeedSequence replication — four uint64
    columns per node, no bit-generator objects anywhere — and each
    step's lanes advance their LCGs in one 64-bit-limb array pass.  A
    ``Generator`` satisfies bounded draws from 32-bit halves of its
    raw 64-bit words (low half first), applying Lemire's
    multiply-shift with rejection, and consumes *nothing* for
    ``bound == 1``; the pool mirrors that with a one-word half buffer
    per node (``_word`` plus a high-half-pending flag).  Rejections
    (probability ``< bound / 2**32``) finish on tiny index subsets.

    The pool shares the streams' once-per-process self-check verdict
    (:func:`repro.engines.streams._exact`); on mismatch every pool runs
    per-draw ``integers`` calls instead (exact by definition, no
    longer vectorised).
    """

    __slots__ = ("exact", "_children", "_gens", "_sh", "_sl", "_ih",
                 "_il", "_word", "_pend")

    def __init__(self, seeds, n: int):
        self.exact = streams._exact()
        if not self.exact:
            self._children = []
            for seed in seeds:
                self._children.extend(np.random.SeedSequence(seed).spawn(n))
            self._gens: list = [None] * len(self._children)
            return
        states = _spawned_pcg_states(list(seeds), n)
        self._sh, self._sl, self._ih, self._il = _pcg_srandom(states)
        total = states.shape[0]
        self._word = np.zeros(total, dtype=np.uint64)
        self._pend = np.zeros(total, dtype=bool)

    def _next_halves(self, nv: np.ndarray) -> np.ndarray:
        """Next 32-bit half per node; ``nv`` must be pairwise distinct."""
        pend = self._pend[nv]
        fresh = nv[~pend]
        if fresh.size:
            lo, hi = _pcg_mult_add(self._sl[fresh], self._sh[fresh],
                                   self._il[fresh], self._ih[fresh])
            self._sl[fresh] = lo
            self._sh[fresh] = hi
            self._word[fresh] = _pcg_out(hi, lo)
        w = self._word[nv]
        self._pend[nv] = ~pend
        return np.where(pend, w >> _U32, w & _MASK32)

    def draw(self, nodes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """One bounded draw per lane; ``nodes`` must be pairwise distinct."""
        if nodes.size == 0:
            return np.empty(0, dtype=np.int64)
        if not self.exact:
            gens, children = self._gens, self._children
            out = np.empty(nodes.size, dtype=np.int64)
            for i, (v, c) in enumerate(zip(nodes.tolist(), bounds.tolist())):
                g = gens[v]
                if g is None:
                    g = gens[v] = np.random.default_rng(children[v])
                out[i] = g.integers(c)
            return out

        if bounds.min() > 1:
            nv, need, out = nodes, None, None
        else:
            out = np.zeros(nodes.size, dtype=np.int64)
            need = np.flatnonzero(bounds > 1)  # bound 1 consumes no entropy
            if need.size == 0:
                return out
            nodes, bounds = nodes[need], bounds[need]
            nv = nodes
        half = self._next_halves(nv)
        c = bounds.astype(np.uint64)
        m = half * c
        leftover = m & _MASK32
        vals = (m >> _U32).astype(np.int64)
        if (leftover < c).any():  # threshold < bound: almost never taken
            threshold = (_RANGE32 - c) % c
            retry = np.flatnonzero(leftover < threshold)
            while retry.size:
                m = self._next_halves(nv[retry]) * c[retry]
                vals[retry] = (m >> _U32).astype(np.int64)
                retry = retry[(m & _MASK32) < threshold[retry]]
        if need is None:
            return vals
        out[need] = vals
        return out


def stacked_edge_twins(indptr: np.ndarray, indices: np.ndarray,
                       batch: int, size: int) -> np.ndarray:
    """Reverse-edge permutation of a stacked CSR, one block at a time.

    A stable argsort of the destination column re-lists the
    (src, dst)-sorted edges in (dst, src) order, and reversal is an
    order-preserving bijection between those orders — so the
    permutation *is* its own reverse-edge table (and involution).
    Per trial block: each block is closed under reversal, and the
    block-local sorts stay cache-resident.  Exposed so callers that
    run several walks over one stacked CSR (the per-colour-class
    DHC2 batch) can compute the table once.
    """
    twins = np.empty(indices.size, dtype=np.int32)
    for b in range(batch):
        lo = int(indptr[b * size])
        hi = int(indptr[(b + 1) * size])
        twins[lo:hi] = np.argsort(indices[lo:hi], kind="stable")
        twins[lo:hi] += np.int32(lo)
    return twins


class BatchTree:
    """Min-id BFS trees of every trial in a batch, built in one BFS.

    The multi-root analogue of
    :class:`~repro.engines.arraywalk.ArrayTree` /
    :func:`~repro.engines.arraywalk.build_array_tree` over the
    disjoint-union CSR: :func:`_tree_build` grows each trial's tree
    in its own block (components never interact), the min-id parent
    rule falls out of CSR row order, and the completion-round
    recursion and flood eccentricities run over every connected
    trial.  Trials
    whose graph is disconnected are flagged in :attr:`ok` (their
    distributed BFS would hit its deadline) and excluded from the
    timing computations.
    """

    __slots__ = ("batch", "n", "roots", "ok", "depth", "parent",
                 "tree_depth", "_indptr", "_indices")

    def __init__(self, batch, n, roots, ok, depth, parent, tree_depth,
                 indptr, indices):
        self.batch = batch
        self.n = n
        self.roots = roots          # global ids, one per trial
        self.ok = ok                # per-trial: all participants reached?
        self.depth = depth          # flat B*n, -1 outside the trees
        self.parent = parent        # flat B*n, -1 at roots / outside
        self.tree_depth = tree_depth  # per-trial max depth
        self._indptr = indptr
        self._indices = indices

    def completion_times(self, start_round: int) -> np.ndarray:
        """Per-node done-report rounds for every connected trial.

        :func:`~repro.engines.arraywalk.tree_completion_times` run trial
        by trial over graph-local slices of the stacked CSR.  Trials
        are independent components, so per-trial evaluation is exactly
        the joint recursion, and the local working set stays
        cache-resident.
        """
        n = self.n
        indptr, indices = self._indptr, self._indices
        done = np.zeros(self.batch * n, dtype=np.int64)
        for b in np.flatnonzero(self.ok).tolist():
            base = b * n
            lo = int(indptr[base])
            ip = (indptr[base:base + n + 1] - lo).astype(np.int64)
            dsts = indices[lo:int(indptr[base + n])].astype(np.int64) - base
            dep = self.depth[base:base + n]
            done[base:base + n] = tree_completion_times(
                ip, dsts, np.flatnonzero(dep >= 0), dep,
                self.parent[base:base + n] - base,
                int(self.tree_depth[b]), start_round)
        return done

    def eccentricities(self, starts: np.ndarray) -> np.ndarray:
        """Largest tree distance from each start (one per connected trial).

        :func:`~repro.engines.arraywalk.tree_eccentricities` over the
        union's trees; starts must lie in distinct trials.
        """
        return tree_eccentricities(self.parent, starts)


def build_batch_tree(indptr: np.ndarray, indices: np.ndarray,
                     batch: int, n: int, roots: np.ndarray,
                     expect: np.ndarray | None = None,
                     live: np.ndarray | None = None) -> BatchTree:
    """Build every trial's min-id BFS tree over the stacked CSR.

    Unlike :func:`~repro.engines.arraywalk.build_array_tree` this never
    returns ``None``: disconnected trials are reported per-trial via
    :attr:`BatchTree.ok` so the rest of the batch keeps going.  The
    BFS is :func:`_tree_build`.

    ``expect`` is the per-trial participant count a complete BFS must
    reach (default: all ``n`` nodes of the block; the per-colour-class
    DHC2 batch passes class sizes).  ``live`` masks trials to skip
    entirely — their root entry may be garbage and their block keeps
    depth -1 with ``ok`` False.
    """
    total = batch * n
    roots = np.asarray(roots, dtype=np.int64)
    expect = (np.full(batch, n, dtype=np.int64) if expect is None
              else np.asarray(expect, dtype=np.int64))
    live = (np.ones(batch, dtype=bool) if live is None
            else np.asarray(live, dtype=bool))
    depth = np.full(total, -1, dtype=np.int64)
    parent = np.full(total, -1, dtype=np.int64)
    ok = np.zeros(batch, dtype=bool)
    tree_depth = np.zeros(batch, dtype=np.int64)
    _tree_build(np.asarray(indptr, dtype=np.int64), indices, roots, expect,
                live, n, depth, parent, ok, tree_depth)
    return BatchTree(batch, n, roots, ok, depth, parent, tree_depth,
                     indptr, indices)


class BatchWalk:
    """Algorithm 1's rotation walk over a batch of trials.

    Step-for-step identical to running one
    :class:`~repro.engines.arraywalk.ArrayWalk` per trial (each trial's
    draws, edge kills, extension/rotation/closure sequence, round
    accounting, and failure codes are unchanged): :meth:`run` hands
    every live trial to :func:`_walk_steps`, which runs each one to
    completion over the batch's shared state arrays.  Trials are independent streams,
    so trial-at-a-time order consumes every node's stream exactly as
    a serial run does.

    Parameters mirror :class:`~repro.engines.arraywalk.ArrayWalk` with
    the batch axis added: ``initial_heads`` / ``tree_depths`` /
    ``start_rounds`` are per-trial vectors, ``draws`` is the batch's
    :class:`DrawPool` (one stream per global node id; it must be
    exact, since the walk advances its state arrays), and ``live``
    masks trials excluded before the walk starts (e.g. disconnected
    graphs).  By default every trial's participant set is its full
    n-node block; partition walks (the per-colour-class DHC2 batch)
    pass per-trial participant counts via ``sizes`` and a per-trial
    ``step_budget`` vector — closure then requires
    ``plen == sizes[b]``, and blocks may contain non-participant
    nodes as long as the CSR never reaches them (class rows are
    colour-closed).  ``twins`` accepts a precomputed
    :func:`stacked_edge_twins` table so several walks over one
    stacked CSR share the sort.
    """

    __slots__ = ("batch", "size", "sizes", "draws", "step_budget",
                 "success", "fail_code", "steps", "rotations",
                 "extensions", "round", "end_round", "flood_initiator",
                 "plen", "head", "_indptr", "_indices", "_twins", "_wp32",
                 "_bits", "_alive_count", "_buf", "_bpos",
                 "_tail", "_live", "_rotation_cost", "_budgets")

    def __init__(self, *, indptr, indices, draws, batch, size,
                 initial_heads, step_budget, tree_depths, start_rounds,
                 live=None, sizes=None, twins=None):
        self.batch = batch
        self.size = size
        self.sizes = (np.full(batch, size, dtype=np.int64) if sizes is None
                      else np.asarray(sizes, dtype=np.int64).copy())
        self.draws = draws
        self.step_budget = step_budget
        budgets = np.asarray(step_budget, dtype=np.int64)
        self._budgets = (np.full(batch, budgets) if budgets.ndim == 0
                         else budgets.copy())

        heads = np.asarray(initial_heads, dtype=np.int64)
        self.success = np.zeros(batch, dtype=bool)
        self.fail_code = np.zeros(batch, dtype=np.int64)
        self.steps = np.zeros(batch, dtype=np.int64)
        self.rotations = np.zeros(batch, dtype=np.int64)
        self.extensions = np.zeros(batch, dtype=np.int64)
        self.round = np.asarray(start_rounds, dtype=np.int64).copy()
        self.end_round = self.round.copy()
        self.flood_initiator = heads.copy()
        self.plen = np.zeros(batch, dtype=np.int64)
        self.head = heads.copy()

        self._indptr = indptr
        degs = np.diff(indptr)
        self._alive_count = degs.astype(np.int64)
        self._indices = np.asarray(indices, dtype=np.int32)
        self._twins = (stacked_edge_twins(indptr, indices, batch, size)
                       if twins is None else twins)
        # Live edges, one bit per directed slot: row r owns words
        # [wptr[r], wptr[r+1]) — bit j of the run is local slot j.
        nwords = (degs + 63) >> 6
        wptr = np.zeros(degs.size + 1, dtype=np.int64)
        np.cumsum(nwords, out=wptr[1:])
        self._wp32 = wptr.astype(np.int32)
        bits = np.full(int(wptr[-1]), ~_U0, dtype=np.uint64)
        rem = degs & 63
        partial = np.flatnonzero(rem)
        bits[wptr[1:][partial] - 1] = \
            (_U1 << rem[partial].astype(np.uint64)) - _U1
        self._bits = bits

        # Path rows: trial b's path in order in _buf[b, :plen[b]], and
        # each on-path node's position in _bpos (-1 off the path).
        self._buf = np.zeros((batch, max(size, 1)), dtype=np.int32)
        self._bpos = np.full(batch * size, -1, dtype=np.int32)
        self._tail = heads.copy()
        self._live = (np.ones(batch, dtype=bool) if live is None
                      else np.asarray(live, dtype=bool).copy())

        self._rotation_cost = 2 * np.asarray(tree_depths, dtype=np.int64) + 3
        started = np.flatnonzero(self._live)
        self._buf[started, 0] = heads[started]
        if size:
            self._bpos[heads[started]] = 0
        self.plen[started] = 1

    def cycle(self, b: int) -> list[int]:
        """Trial ``b``'s path in *local* node ids."""
        return (self._buf[b, :self.plen[b]] - b * self.size).tolist()

    def run(self) -> None:
        """Walk every live trial to completion (:func:`_walk_steps`)."""
        from repro.core.rotation import FAIL_BUDGET, FAIL_NO_EDGES, FAIL_TOO_SMALL

        pool = self.draws
        if not pool.exact:
            raise ValueError("BatchWalk needs an exact DrawPool: the walk "
                             "advances the pool's PCG64 state arrays")
        small = np.flatnonzero(self._live & (self.sizes < 3))
        if small.size:
            self.fail_code[small] = FAIL_TOO_SMALL
            self.end_round[small] = self.round[small]
            self._live[small] = False
        order = np.flatnonzero(self._live)
        if order.size == 0:
            return
        # uint64 wraparound is the LCG arithmetic itself; silence the
        # numpy-2 scalar overflow warning.
        with np.errstate(over="ignore"):
            _walk_steps(order, np.asarray(self._indptr, dtype=np.int64),
                        self._indices, self._twins, self._wp32, self._bits,
                        self._alive_count,
                        pool._sh, pool._sl, pool._ih, pool._il,
                        pool._word, pool._pend,
                        self._buf.reshape(-1), self._bpos, self._tail,
                        self.sizes, self._budgets, self._rotation_cost,
                        self.head, self.plen, self.round, self.steps,
                        self.rotations, self.extensions,
                        self.success, self.fail_code, self.end_round,
                        self.flood_initiator, self._live,
                        self.size, FAIL_BUDGET, FAIL_NO_EDGES)


def _walk_steps(order, ip, idx, twins, wp, bits, alive,
                sh, sl, ih, il, word, pend,
                buf, bpos, tails, sizes, budgets, rot_costs,
                head, plen, rounds, steps, rotations, extensions,
                success, fail_code, end_round, flood, live,
                stride, fail_budget, fail_no_edges):
    """Run every listed trial's rotation walk to completion, in place.

    :meth:`BatchWalk.run`'s kernel, trial by trial, step for step as
    :class:`~repro.engines.arraywalk.ArrayWalk`: budget gate,
    cornered-before-draw failure, one
    bounded draw per step from the head's own PCG64 stream
    (``sh``/``sl``/``ih``/``il``/``word``/``pend`` are the
    ``DrawPool``'s state arrays, advanced exactly as ``DrawPool.draw``
    would), the draw-th live bit of the head row, a twin-table edge
    kill, then extension / closure / rotation applied eagerly to the
    path row.  ``bpos`` holds *path* positions (rotations reverse the
    suffix in place), so each trial's path is left in order in its
    row of ``buf``.
    """
    for t in range(order.size):
        b = order[t]
        h = head[b]
        row0 = b * stride
        step = 1
        while True:
            if step > budgets[b]:
                fail_code[b] = fail_budget
                flood[b] = h
                end_round[b] = rounds[b]
                live[b] = False
                break
            cnt = alive[h]
            if cnt == 0:
                fail_code[b] = fail_no_edges
                flood[b] = h
                end_round[b] = rounds[b]
                live[b] = False
                break
            # One bounded draw from node h's half-word stream (Lemire
            # multiply-shift with rejection; bound 1 consumes nothing).
            if cnt == 1:
                draw = 0
            else:
                c = np.uint64(cnt)
                threshold = (_RANGE32 - c) % c
                while True:
                    if pend[h]:
                        half = word[h] >> _U32
                        pend[h] = False
                    else:
                        lo_ = sl[h]
                        hi_ = sh[h]
                        al = lo_ & _MASK32
                        ah = lo_ >> _U32
                        mid1 = ah * _PCG_ML_LO
                        mid2 = al * _PCG_ML_HI
                        spill = ((al * _PCG_ML_LO >> _U32)
                                 + (mid1 & _MASK32)
                                 + (mid2 & _MASK32)) >> _U32
                        mulhi = (ah * _PCG_ML_HI + (mid1 >> _U32)
                                 + (mid2 >> _U32) + spill)
                        nlo = lo_ * _PCG_ML
                        nhi = mulhi + lo_ * _PCG_MH + hi_ * _PCG_ML
                        out_lo = nlo + il[h]
                        out_hi = nhi + ih[h]
                        if out_lo < nlo:
                            out_hi = out_hi + _U1
                        sl[h] = out_lo
                        sh[h] = out_hi
                        x = out_hi ^ out_lo
                        rot = out_hi >> _U58
                        w64 = (x >> rot) | (x << ((_U64 - rot) & _U63))
                        word[h] = w64
                        half = w64 & _MASK32
                        pend[h] = True
                    m = half * c
                    if (m & _MASK32) >= threshold:
                        draw = np.int64(m >> _U32)
                        break
            # The draw-th live bit of row h: word by popcount prefix,
            # then an LSB-first in-word scan (the draw-th live slot in
            # sorted row order).
            w = np.int64(wp[h])
            rem = draw
            base = 0
            wv = _U0
            while True:
                wv = bits[w]
                pc = 0
                tmp = wv
                while tmp != _U0:
                    pc += 1
                    tmp &= tmp - _U1
                if rem < pc:
                    break
                rem -= pc
                w += 1
                base += 64
            j = 0
            while True:
                if wv & _U1:
                    if rem == 0:
                        break
                    rem -= 1
                wv >>= _U1
                j += 1
            off = base + j
            slot = ip[h] + off
            target = np.int64(idx[slot])
            # Kill the used edge in both directions.
            toff = np.int64(twins[slot]) - ip[target]
            bits[w] &= ~(_U1 << np.uint64(j))
            bits[np.int64(wp[target]) + (toff >> 6)] &= \
                ~(_U1 << np.uint64(toff & 63))
            alive[h] -= 1
            alive[target] -= 1
            steps[b] = step

            tp = np.int64(bpos[target])
            if tp < 0:
                length = plen[b]
                bpos[target] = length
                buf[row0 + length] = target
                plen[b] = length + 1
                h = target
                rounds[b] += 1
                extensions[b] += 1
            elif target == tails[b] and plen[b] == sizes[b]:
                success[b] = True
                flood[b] = target
                end_round[b] = rounds[b] + 1
                live[b] = False
                break
            else:
                # Rotation: reverse the path suffix after the target;
                # the new head is the target's old path successor.
                lo2 = tp + 1
                hi2 = np.int64(plen[b])
                i = row0 + lo2
                j2 = row0 + hi2 - 1
                while i < j2:
                    tmpv = buf[i]
                    buf[i] = buf[j2]
                    buf[j2] = tmpv
                    i += 1
                    j2 -= 1
                for cpos in range(lo2, hi2):
                    bpos[buf[row0 + cpos]] = cpos
                h = np.int64(buf[row0 + hi2 - 1])
                rounds[b] += rot_costs[b]
                rotations[b] += 1
            step += 1
        head[b] = h


def _tree_build(ip, idx, roots, expect, live, stride,
                depth, parent, ok, tree_depth):
    """Per-trial min-id BFS trees over the stacked CSR, in place.

    :func:`build_batch_tree`'s kernel: a queue BFS from each live
    trial's root (level structure —
    hence every depth — is visit-order independent), then the min-id
    parent rule as each reached non-root's *first* one-level-up
    neighbour in sorted row order.  ``expect`` is the trial's
    participant count (``n`` for full blocks, the colour-class size
    for partition walks); ``ok`` records whether the BFS reached all
    of them.  Skipped (non-live) trials keep depth -1 everywhere.
    """
    for b in range(roots.size):
        if not live[b]:
            continue
        queue = np.empty(stride, dtype=np.int64)
        base = b * stride
        r = np.int64(roots[b])
        depth[r] = 0
        queue[0] = r
        qh = 0
        qt = 1
        reached = 1
        maxd = 0
        while qh < qt:
            v = queue[qh]
            qh += 1
            dnext = depth[v] + 1
            for e in range(ip[v], ip[v + 1]):
                w = np.int64(idx[e])
                if depth[w] < 0:
                    depth[w] = dnext
                    if dnext > maxd:
                        maxd = dnext
                    queue[qt] = w
                    qt += 1
                    reached += 1
        ok[b] = reached == expect[b]
        tree_depth[b] = maxd
        for v in range(base, base + stride):
            dv = depth[v]
            if dv <= 0:
                continue
            for e in range(ip[v], ip[v + 1]):
                w = np.int64(idx[e])
                if depth[w] == dv - 1:
                    parent[v] = w
                    break
