"""Batch-major state for B same-n trials: stacked CSRs, exact RNG pools.

:mod:`repro.engines.arraywalk` runs one trial's walk; this module
holds the state that lets one engine call run a *batch* of B same-n
trials, each with its own sampled graph, in one disjoint-union CSR
(trial ``b``'s node ``v`` becomes global id ``b * n + v``).

Who batches on it
-----------------
DRA and DHC2 batch only through the fused walk and tree kernels of
:mod:`repro.engines._jit` (``REPRO_JIT=1`` with numba):
:class:`BatchWalk` and :func:`build_batch_tree` hand whole trials to
them.  Without a compiled kernel the ``fast-batch`` runners of those
two algorithms run each trial on per-trial ``fast`` instead — a numpy
batch-major walk costs more per lane-step than
:class:`~repro.engines.arraywalk.ArrayWalk` and never pays back.  (CRE
and Turau always run per trial, for the same reason.)  Only the walk
and the tree build are batch-specific: :class:`BatchTree` times its
trees with the per-trial engine's
:func:`~repro.engines.arraywalk.tree_completion_times` and
:func:`~repro.engines.arraywalk.tree_eccentricities`, and winners are
checked by :func:`~repro.verify.hamiltonicity.verify_cycle`.

Layout
------
* **stacked CSR** (:func:`stack_graph_csrs`): the B per-trial CSRs
  concatenated with node ids offset by ``b * n`` — one ``indptr`` of
  length ``B*n + 1`` and one int32 ``indices`` array (components never
  touch, so all single-trial CSR invariants hold per block).  Two
  per-edge tables come along for the walk: a **twin table** — CSR
  order is (src, dst)-lexicographic and reversal is an
  order-preserving bijection onto (dst, src) order, so one stable
  argsort of ``indices`` *is* the reverse-edge permutation — and a
  **live-edge bitmask**, one bit per directed edge packed into per-row
  uint64 words;
* **flat node state**: path positions, live-edge counts, and RNG
  states are flat ``B*n`` arrays indexed by global id;
* **per-trial walk state**: length-B vectors for path length, head,
  round, step, and outcome.

RNG parity across the batch axis
--------------------------------
Trial ``b`` draws from its own per-node streams (the same
``SeedSequence(seed_b).spawn(n)`` tree as ``engine="fast"``) in the
same decision order — one draw per step, on the same remaining-edge
count, in the same sorted CSR row order.  Trials are independent
streams, so interleaving or serialising their draws across the batch
changes nothing; that is the whole parity argument, and it is why
batched results are seed-for-seed identical to serial
(``tests/test_engine_parity.py::TestFastBatchParity`` and the
registry parity gate enforce it).

What *is* batched is the mechanics of drawing: :class:`DrawPool`
replicates the whole numpy stack below ``Generator.integers(bound)``
in whole-array arithmetic — the SeedSequence entropy-pool hash that
seeds every spawned child (children differ only in their spawn-key
word, so one vector pass per parent seed yields all n child states),
the PCG64 LCG advance and XSL-RR output (128-bit multiply-add in
64-bit limbs), and the buffered Lemire bounded-integer reduction over
32-bit half-words.  No per-node ``SeedSequence`` / ``PCG64`` /
``Generator`` objects are ever constructed on the hot path.  The
replication is verified against real numpy objects at first pool
construction; if a numpy build ever disagrees, pools transparently
fall back to per-draw ``integers`` calls on real per-node generators,
which is slower but definitionally exact (and DRA/DHC2 then run per
trial, since the fused kernel advances the pool's state arrays).

The per-trial engines (``fast``, ``kmachine``) draw one value at a
time, so they take the scalar form of the same replication:
:func:`node_streams` seeds a trial's n children in one vector pass,
which also prefetches each child's first raw words as 32-bit halves.
It keeps those half queues and the LCG state columns, and builds a
node's small Python-int PCG64 stream (:class:`_NodeStream`, whose
``integers(bound)`` is bit-identical to the Generator's) only when
``rngs[v]`` is first asked for: on a refill, a draw the walk leaves
to the stream, or one of Turau's merge-phase or DHC1's draws.  The
rotation walk takes its common draw straight from the queue
(:class:`~repro.engines.arraywalk.ArrayWalk`'s inlined accept test),
and :func:`first_draws` applies the same test to every node at once
for the draws that open a trial: Phase 1's colours and Turau's
proposals.  :func:`trial_stream` gives CRE's single ``default_rng(seed)``
stream, its first words prefetched by one ``random_raw`` call.  Both
share the pools' self-check verdict, and fall back to real Generators
with them.

Dispatch looks the compiled kernels up on :mod:`repro.engines._jit`
at call time, so a host can toggle them within one process.  The
PCG64 and uint64 constants come from there too, one copy for the
vector replication here and the compiled walk.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.engines import _jit
from repro.engines._jit import (
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
)
from repro.engines.arraywalk import tree_completion_times, tree_eccentricities

__all__ = [
    "BatchTree",
    "BatchWalk",
    "DrawPool",
    "build_batch_tree",
    "first_draws",
    "node_streams",
    "stack_graph_csrs",
    "stacked_edge_twins",
    "trial_stream",
]


def stack_graph_csrs(graphs) -> tuple[np.ndarray, np.ndarray]:
    """The disjoint-union CSR of B same-n graphs (ids offset by ``b*n``).

    ``indices`` comes back int32: global ids and edge offsets both fit
    comfortably (the chunker caps directed entries well below 2**31),
    and the stacked row contents are what every kernel pass gathers —
    half-width entries are half the memory traffic.
    """
    n = graphs[0].n
    indptrs = np.stack([np.asarray(g.indptr, dtype=np.int64) for g in graphs])
    edge_off = np.concatenate(
        ([0], np.cumsum(indptrs[:, -1], dtype=np.int64)))
    if edge_off[-1] >= 2**31 or len(graphs) * n >= 2**31:
        raise ValueError(
            "stacked batch exceeds int32 id space; lower "
            "REPRO_BATCH_EDGE_BUDGET so chunks stay below 2**31 entries")
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


# -- exact batched replication of Generator.integers -----------------------


# SeedSequence entropy-pool hash constants (numpy bit_generator).
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_L = 0xCA01F9DD
_SS_MIX_R = 0x4973F715
_SS_XSHIFT = np.uint32(16)
_M32 = 0xFFFFFFFF

#: Lazily-established verdict of the replication self-checks.
_EXACT: bool | None = None

# The same constants as Python ints, for the scalar per-node streams.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_TWO32 = 1 << 32
#: Raw words per node that :func:`node_streams`' vector pass prefetches,
#: that :func:`trial_stream` draws up front, and that a
#: :class:`_NodeStream` computes per scalar refill.
_PREFETCH_WORDS = 8
_TRIAL_PREFETCH_WORDS = 64
_REFILL_WORDS = 4


def _entropy_words(seed: int) -> list[int]:
    """``seed`` as little-endian uint32 words (SeedSequence's coercion)."""
    words = []
    while seed:
        words.append(seed & _M32)
        seed >>= 32
    return words or [0]


def _spawned_pcg_states(seeds, n: int) -> np.ndarray:
    """PCG64 seed material of every spawn child, one vector pass per seed.

    Row ``s * n + i`` is ``SeedSequence(seeds[s]).spawn(n)[i]
    .generate_state(4, uint64)``.  A child's assembled entropy is the
    parent's entropy words zero-padded to the pool size (4) plus the
    child index, so the entropy-pool state after the scalar prefix is
    shared by all n children; only the final four spawn-key mixes and
    the eight ``generate_state`` hashes see the index, and those
    vectorise over ``arange(n)``.
    """
    out = np.empty((len(seeds) * n, 4), dtype=np.uint64)
    iv = np.arange(n, dtype=np.uint32)
    for s_at, seed in enumerate(seeds):
        words = _entropy_words(int(seed))
        if len(words) < 4:
            words = words + [0] * (4 - len(words))
        hc = _SS_INIT_A

        def hashmix(value: int) -> int:
            nonlocal hc
            value = (value ^ hc) & _M32
            hc = (hc * _SS_MULT_A) & _M32
            value = (value * hc) & _M32
            return value ^ (value >> 16)

        def mix(x: int, y: int) -> int:
            r = (x * _SS_MIX_L - y * _SS_MIX_R) & _M32
            return r ^ (r >> 16)

        pool = [hashmix(w) for w in words[:4]]
        for i_src in range(4):
            for i_dst in range(4):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
        for w in words[4:]:
            for i_dst in range(4):
                pool[i_dst] = mix(pool[i_dst], hashmix(w))
        # Spawn key (the child index): the one vector word, mixed last.
        poolv = []
        for i_dst in range(4):
            v = iv ^ np.uint32(hc)
            hc = (hc * _SS_MULT_A) & _M32
            v = v * np.uint32(hc)
            v ^= v >> _SS_XSHIFT
            r = np.uint32((pool[i_dst] * _SS_MIX_L) & _M32) \
                - v * np.uint32(_SS_MIX_R)
            r ^= r >> _SS_XSHIFT
            poolv.append(r)
        hc2 = _SS_INIT_B
        halves = []
        for i_dst in range(8):
            d = poolv[i_dst % 4] ^ np.uint32(hc2)
            hc2 = (hc2 * _SS_MULT_B) & _M32
            d = d * np.uint32(hc2)
            d ^= d >> _SS_XSHIFT
            halves.append(d.astype(np.uint64))
        rows = out[s_at * n:(s_at + 1) * n]
        for k in range(4):
            rows[:, k] = halves[2 * k] | (halves[2 * k + 1] << _U32)
    return out


def _pcg_mult_add(lo, hi, inc_lo, inc_hi):
    """One 128-bit LCG step ``state * MULT + inc`` in 64-bit limbs."""
    al = lo & _MASK32
    ah = lo >> _U32
    mid1 = ah * _PCG_ML_LO
    mid2 = al * _PCG_ML_HI
    spill = ((al * _PCG_ML_LO >> _U32) + (mid1 & _MASK32)
             + (mid2 & _MASK32)) >> _U32
    mulhi = ah * _PCG_ML_HI + (mid1 >> _U32) + (mid2 >> _U32) + spill
    nlo = lo * _PCG_ML
    nhi = mulhi + lo * _PCG_MH + hi * _PCG_ML
    out_lo = nlo + inc_lo
    out_hi = nhi + inc_hi + (out_lo < nlo)
    return out_lo, out_hi


def _pcg_out(hi, lo):
    """The XSL-RR output of a (stepped) 128-bit state."""
    x = hi ^ lo
    rot = hi >> _U58
    return (x >> rot) | (x << ((_U64 - rot) & _U63))


def _pcg_srandom(states: np.ndarray):
    """PCG64's seeding, vectorised: seed material -> (sh, sl, ih, il)."""
    ish, isl = states[:, 0], states[:, 1]
    qh, ql = states[:, 2], states[:, 3]
    ih = (qh << _U1) | (ql >> _U63)
    il = (ql << _U1) | _U1
    # state = 0 stepped once is just the increment; add the init state,
    # step again.
    sl = il + isl
    sh = ih + ish + (sl < isl)
    sl, sh = _pcg_mult_add(sl, sh, il, ih)
    return sh, sl, ih, il


def _replication_self_check() -> bool:
    """Does the half-word Lemire replication match this numpy's Generator?

    Drains PCG64 streams twice — through real ``Generator`` objects
    and through :class:`_NodeStream` objects seeded with the same
    state, which apply the half-word buffering and Lemire reduction
    :class:`DrawPool` vectorises — over a bound mix that exercises the
    no-consumption ``bound == 1`` case, small and large bounds, the
    rejection path (``2**31 + 1`` rejects ~50% of halves) and the
    full-width ``2**32``.  One stream is built as :func:`trial_stream`
    builds one (:func:`_raw_prefetched_stream`), two more as
    :func:`node_streams` builds them (:func:`_prefetched_streams`),
    drawn interleaved and well past their prefetched halves into the
    scalar refills.  Any numpy whose bounded-integer
    algorithm or buffering differs, or a wrong split of prefetched
    words into halves, fails this check and demotes every pool and
    every :func:`node_streams` call to real generators, keeping parity
    unconditional.
    """
    ss = np.random.SeedSequence(0xBA7C4ED)
    ref = np.random.default_rng(ss)
    stream = _raw_prefetched_stream(np.random.PCG64(ss))
    bounds = [1, 2, 3, 7, 1, 100, 4096, 2**31 + 1, 1, 5, 12,
              1000003, 2**31 + 1, 64, 1, 2, 2**32] * 4
    if not all(stream.integers(c) == int(ref.integers(c)) for c in bounds):
        return False
    children = np.random.SeedSequence(0xBA7C4ED).spawn(2)
    refs = [np.random.default_rng(c) for c in children]
    streams = _prefetched_streams(np.stack(
        [c.generate_state(4, np.uint64) for c in children]))
    return all(streams[i % 2].integers(c) == int(refs[i % 2].integers(c))
               for i, c in enumerate(bounds))


def _vector_seed_self_check() -> bool:
    """Do the vectorised SeedSequence + PCG64 replications match numpy?

    Reconstructs a few parents' spawn children end to end — seed
    material, seeded LCG state, and the first raw words — against the
    real objects, over one-word, multi-word (> 32-bit) and > 128-bit
    entropy.  Any mismatch demotes every pool and every
    :func:`node_streams` call to real generators, keeping parity
    unconditional.
    """
    for seed in (0, 1, 0xBA7C4ED, (1 << 40) + 7, (1 << 130) + 5):
        k = 3
        try:
            states = _spawned_pcg_states([seed], k)
        except Exception:
            return False
        sh, sl, ih, il = _pcg_srandom(states)
        sh, sl = sh.copy(), sl.copy()
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(k)):
            bg = np.random.PCG64(child)
            st = bg.state["state"]
            if ((int(sh[i]) << 64) | int(sl[i])) != st["state"]:
                return False
            if ((int(ih[i]) << 64) | int(il[i])) != st["inc"]:
                return False
            want = [int(w) for w in bg.random_raw(4)]
            got = []
            for _ in range(4):
                lo, hi = _pcg_mult_add(sl[i:i + 1], sh[i:i + 1],
                                       il[i:i + 1], ih[i:i + 1])
                sl[i:i + 1], sh[i:i + 1] = lo, hi
                got.append(int(_pcg_out(hi, lo)[0]))
            if got != want:
                return False
    return True


def _exact() -> bool:
    """The once-per-process verdict of both replication self-checks."""
    global _EXACT
    if _EXACT is None:
        _EXACT = _replication_self_check() and _vector_seed_self_check()
    return _EXACT


class _NodeStream:
    """One node's ``Generator(PCG64(child)).integers`` stream, in Python ints.

    The scalar twin of a :class:`DrawPool` lane: the 128-bit LCG state
    and increment plus a queue of raw 32-bit halves not yet consumed.
    A ``Generator`` serves bounded draws from 32-bit halves of its raw
    64-bit words, low half first, through Lemire's multiply-shift with
    rejection, for bounds up to ``2**32``; ``bound == 1`` consumes
    nothing.  Here the queue holds those halves in reverse draw order,
    so the common draw is one ``list.pop`` and one multiply.  The queue
    starts with the words :func:`node_streams` prefetched in its
    vector pass, or those :func:`trial_stream` took from one
    ``random_raw`` call; when it runs dry, :meth:`_refill` steps the
    LCG :data:`_REFILL_WORDS` times in Python ints and queues the next
    chunk.  ``_state`` is always the LCG state after the last queued
    word.  :meth:`integers` is the reference draw: the one shortcut,
    :class:`~repro.engines.arraywalk.ArrayWalk`'s inlined accept test,
    pops a half only where this method would return it at once.
    """

    __slots__ = ("_state", "_inc", "_halves")

    def __init__(self, state: int, inc: int, halves: list):
        self._state = state
        self._inc = inc
        self._halves = halves

    def _refill(self) -> int:
        """Queue the next chunk of halves; return (and consume) the first."""
        s, inc = self._state, self._inc
        words = []
        for _ in range(_REFILL_WORDS):
            s = (s * _PCG_MULT + inc) & _M128
            x = ((s >> 64) ^ s) & _M64
            words.append((((x << 64) | x) >> (s >> 122)) & _M64)  # XSL-RR
        self._state = s
        halves = self._halves
        for word in reversed(words):
            halves.append(word >> 32)
            halves.append(word & _M32)
        return halves.pop()

    def integers(self, bound) -> int:
        """A uniform draw from ``range(bound)``, ``1 <= bound <= 2**32``."""
        if bound.__class__ is not int:
            bound = operator.index(bound)
        if not 1 < bound <= _TWO32:
            if bound == 1:
                return 0
            raise ValueError(f"bound must lie in [1, 2**32], got {bound}")
        halves = self._halves
        m = (halves.pop() if halves else self._refill()) * bound
        if m & _M32 < bound:  # threshold < bound: almost never taken
            threshold = (_TWO32 - bound) % bound
            while m & _M32 < threshold:
                m = (halves.pop() if halves else self._refill()) * bound
        return m >> 32


def _replicable(seed) -> bool:
    """Whether ``seed``'s streams may come from the replication.

    Needs both self-checks to pass on this numpy and ``seed`` to be a
    non-negative integer (anything else keeps numpy's own coercion and
    errors); otherwise callers fall back to real Generators.
    """
    return (_exact() and isinstance(seed, (int, np.integer))
            and seed >= 0)


def trial_stream(seed):
    """One trial's ``default_rng(seed)`` stream as a :class:`_NodeStream`.

    One ``PCG64(seed).random_raw`` call queues the stream's first
    :data:`_TRIAL_PREFETCH_WORDS` raw words as halves
    (:func:`_raw_prefetched_stream`), so a CRE trial at n = 64 draws
    without stepping the LCG in Python ints; ``integers(bound)`` is
    bit-identical to the Generator's.  Falls back to
    ``default_rng(seed)`` under the same rule as :func:`node_streams`.
    Callers may only call ``integers``.
    """
    if not _replicable(seed):
        return np.random.default_rng(seed)
    return _raw_prefetched_stream(np.random.PCG64(seed))


def _raw_prefetched_stream(bitgen: np.random.PCG64) -> "_NodeStream":
    """A :class:`_NodeStream` that continues ``bitgen``, words prefetched.

    Queues the bit generator's next :data:`_TRIAL_PREFETCH_WORDS` raw
    words as halves and takes the LCG state from it afterwards.
    """
    words = bitgen.random_raw(_TRIAL_PREFETCH_WORDS)
    state = bitgen.state["state"]
    return _NodeStream(state["state"], state["inc"], _queued_halves(words))


def _queued_halves(words: np.ndarray) -> list:
    """Raw words (last axis in draw order) as ``pop``-ordered half queues.

    ``Generator.integers`` consumes each word low half first; a queue
    holds the halves in reverse draw order (the last word's high half
    first).  Splitting by shift and mask keeps this right on any byte
    order.  A 1-D ``words`` gives one queue, a 2-D one a queue per row.
    """
    late_first = words[..., ::-1]
    queues = np.empty(late_first.shape[:-1] + (2 * late_first.shape[-1],),
                      dtype=np.uint64)
    queues[..., 0::2] = late_first >> _U32
    queues[..., 1::2] = late_first & _MASK32
    return queues.tolist()


def node_streams(seed, n: int):
    """The per-node random streams of one trial, indexed by node id.

    Element ``v`` draws exactly as ``default_rng(SeedSequence(seed)
    .spawn(n)[v])`` would — every per-trial engine's per-node
    randomness — but costs no ``SeedSequence`` / ``Generator``
    objects: the children's PCG64 states come from the same vector
    seeding replication :class:`DrawPool` uses, and that vector pass
    also prefetches every node's first :data:`_PREFETCH_WORDS` raw
    words (see :func:`_prefetched_streams`).  What comes back is a
    :class:`_NodeStreams`, which builds a node's :class:`_NodeStream`
    only when ``rngs[v]`` is first asked for; the rotation walk draws
    most of its values from the prefetched halves without one.
    Callers may only index (or iterate) it and call ``integers``.
    When the self-checks find this numpy disagreeing (or ``seed`` is
    not a non-negative integer), a list of the real Generators comes
    back instead; ``n == 0`` gives ``[]``.
    """
    if n == 0:
        return []
    if not _replicable(seed):
        return [np.random.default_rng(s)
                for s in np.random.SeedSequence(seed).spawn(n)]
    return _prefetched_streams(_spawned_pcg_states([seed], n))


def _prefetched_streams(states: np.ndarray) -> "_NodeStreams":
    """:class:`_NodeStreams` over rows of PCG64 seed material.

    Seeds every row's LCG (:func:`_pcg_srandom`), steps all of them
    :data:`_PREFETCH_WORDS` times in one array pass each, and queues
    every row's XSL-RR output words as halves (:func:`_queued_halves`).
    The LCG states after the last prefetched word stay uint64 columns
    until a node's stream is built.
    """
    sh, sl, ih, il = _pcg_srandom(states)
    words = np.empty((_PREFETCH_WORDS, states.shape[0]), dtype=np.uint64)
    for k in range(_PREFETCH_WORDS):
        sl, sh = _pcg_mult_add(sl, sh, il, ih)
        words[k] = _pcg_out(sh, sl)
    return _NodeStreams(_queued_halves(words.T), (sh, sl, ih, il))


class _NodeStreams:
    """One trial's per-node streams, each built on first use.

    ``halves[v]`` is node ``v``'s queue of prefetched 32-bit halves in
    reverse draw order, as :class:`_NodeStream` keeps it.
    :class:`~repro.engines.arraywalk.ArrayWalk` pops the common draw
    straight from it.  ``streams[v]`` builds node ``v``'s
    :class:`_NodeStream` the first time it is asked for, from the
    uint64 state columns and sharing ``halves[v]``.  Until then nothing
    has refilled that queue, so the columns still hold the LCG state
    after its last word, as the stream requires.  Iterating builds
    every stream.
    """

    __slots__ = ("halves", "_columns", "_built")

    def __init__(self, halves: list, columns: tuple):
        self.halves = halves
        self._columns = columns  # (state hi, state lo, inc hi, inc lo)
        self._built: list = [None] * len(halves)

    def __getitem__(self, v) -> _NodeStream:
        stream = self._built[v]
        if stream is None:
            sh, sl, ih, il = self._columns
            stream = self._built[v] = _NodeStream(
                (sh.item(v) << 64) | sl.item(v),
                (ih.item(v) << 64) | il.item(v), self.halves[v])
        return stream

    def __iter__(self):
        return map(self.__getitem__, range(len(self.halves)))


def first_draws(rngs, bounds) -> np.ndarray:
    """Every node's ``rngs[v].integers(bounds[v])``, drawn as one vector.

    Phase 1's colour draw and Turau's proposal round make one draw per
    node before anything else draws.  Node ``v`` with ``bounds[v] == 0``
    draws nothing and ``bounds[v] == 1`` draws ``0`` without consuming
    (as ``integers(1)`` does); both read ``0``.  Otherwise this applies
    :class:`~repro.engines.arraywalk.ArrayWalk`'s inlined accept test to
    all nodes at once: where the node's half queue (``rngs.halves``) is
    not empty and ``(half * k) mod 2**32 >= k``, it pops that half and
    draws ``(half * k) >> 32``.  Every other node (an empty queue reads
    as a zero half, which fails the test), and every node of a list of
    real Generators, draws through ``rngs[v].integers(k)``.  The nodes'
    streams are independent, so the order across nodes is free, and
    lazy streams stay unbuilt for the accepted nodes.  Bounds are at
    most ``2**32``, as :meth:`_NodeStream.integers` requires.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    out = np.zeros(bounds.size, dtype=np.int64)
    rest = np.flatnonzero(bounds > 1)
    queues = getattr(rngs, "halves", None)
    if queues is not None and rest.size:
        pending = [queues[v] for v in rest.tolist()]
        tops = np.array([q[-1] if q else 0 for q in pending], dtype=np.uint64)
        k = bounds[rest].astype(np.uint64)
        m = tops * k
        accept = (m & _MASK32) >= k
        hit = rest[accept]
        out[hit] = m[accept] >> _U32
        for v in hit.tolist():
            queues[v].pop()
        rest = rest[~accept]
    for v in rest.tolist():
        out[v] = rngs[v].integers(bounds.item(v))
    return out


class DrawPool:
    """Per-node bounded-integer streams, drawn for a whole pass at once.

    One pool owns the ``B*n`` node streams of a batch — the exact
    ``SeedSequence(seed_b).spawn(n)`` children that ``engine="fast"``
    draws from through :func:`node_streams` — and serves
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

    The replication is self-checked once per process against real
    ``SeedSequence`` / ``PCG64`` / ``Generator`` objects; on mismatch
    every pool runs per-draw ``integers`` calls instead (exact by
    definition, no longer vectorised).
    """

    __slots__ = ("exact", "_children", "_gens", "_sh", "_sl", "_ih",
                 "_il", "_word", "_pend")

    def __init__(self, seeds, n: int):
        self.exact = _exact()
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
    disjoint-union CSR: the fused tree kernel grows each trial's tree
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
    BFS is the fused tree kernel of :mod:`repro.engines._jit` —
    compiled when one is built, its plain-Python source otherwise.

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
    kern = _jit.tree_kernel
    if kern is None:
        kern = _jit.tree_build_impl
    kern(np.asarray(indptr, dtype=np.int64), indices, roots, expect, live, n,
         depth, parent, ok, tree_depth)
    return BatchTree(batch, n, roots, ok, depth, parent, tree_depth,
                     indptr, indices)


class BatchWalk:
    """Algorithm 1's rotation walk over a batch of trials, fused.

    Step-for-step identical to running one
    :class:`~repro.engines.arraywalk.ArrayWalk` per trial (each trial's
    draws, edge kills, extension/rotation/closure sequence, round
    accounting, and failure codes are unchanged): :meth:`run` hands
    every live trial to the fused walk kernel of
    :mod:`repro.engines._jit`, which runs each one to completion over
    the batch's shared state arrays.  Trials are independent streams,
    so trial-at-a-time order consumes every node's stream exactly as
    a serial run does.

    Parameters mirror :class:`~repro.engines.arraywalk.ArrayWalk` with
    the batch axis added: ``initial_heads`` / ``tree_depths`` /
    ``start_rounds`` are per-trial vectors, ``draws`` is the batch's
    :class:`DrawPool` (one stream per global node id; it must be
    exact, since the kernel advances its state arrays), and ``live``
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
        """Walk every live trial to completion through the fused kernel.

        Uses the compiled ``_jit.walk_kernel`` when one is built and
        its plain-Python source otherwise (exact, only slow).
        """
        from repro.core.rotation import FAIL_BUDGET, FAIL_NO_EDGES, FAIL_TOO_SMALL

        pool = self.draws
        if not pool.exact:
            raise ValueError("BatchWalk needs an exact DrawPool: the fused "
                             "kernel advances the pool's PCG64 state arrays")
        small = np.flatnonzero(self._live & (self.sizes < 3))
        if small.size:
            self.fail_code[small] = FAIL_TOO_SMALL
            self.end_round[small] = self.round[small]
            self._live[small] = False
        order = np.flatnonzero(self._live)
        if order.size == 0:
            return
        kern = _jit.walk_kernel
        if kern is None:
            kern = _jit.walk_steps_impl
        # uint64 wraparound is the LCG arithmetic itself; silence the
        # numpy-2 scalar overflow warning for the uncompiled source.
        with np.errstate(over="ignore"):
            kern(order, np.asarray(self._indptr, dtype=np.int64),
                 self._indices, self._twins, self._wp32, self._bits,
                 self._alive_count,
                 pool._sh, pool._sl, pool._ih, pool._il,
                 pool._word, pool._pend,
                 self._buf.reshape(-1), self._bpos, self._tail, self.sizes,
                 self._budgets, self._rotation_cost,
                 self.head, self.plen, self.round, self.steps,
                 self.rotations, self.extensions,
                 self.success, self.fail_code, self.end_round,
                 self.flood_initiator, self._live,
                 self.size, FAIL_BUDGET, FAIL_NO_EDGES)
