"""Per-node random streams: numpy's seeding and bounded draws, replicated.

Every per-trial engine (``fast``, ``kmachine``) gives node ``v`` of a
trial seeded ``seed`` the stream ``default_rng(SeedSequence(seed)
.spawn(n)[v])``, and CRE gives a trial the single stream
``default_rng(seed)``.  Building those objects costs more than a small
trial's walk, so this module replicates the numpy stack below
``Generator.integers(bound)`` instead, bit for bit:

* the SeedSequence entropy-pool hash that seeds every spawned child
  (children differ only in their spawn-key word, so one vector pass
  per parent seed yields all n child states,
  :func:`_spawned_pcg_states`);
* PCG64's seeding, its 128-bit LCG advance in 64-bit limbs and its
  XSL-RR output (:func:`_pcg_srandom`, :func:`_pcg_mult_add`,
  :func:`_pcg_out`);
* the buffered Lemire bounded-integer reduction over 32-bit
  half-words (:meth:`_NodeStream.integers`).

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
stream, its first words prefetched by one ``random_raw`` call.

The replication is verified against real numpy objects once per
process (:func:`_exact`, the verdict of two self-checks).  If a numpy
build ever disagrees, every stream falls back to real Generators,
which is slower but exact by definition.

All uint64 arithmetic sticks to uint64-typed constants: mixing signed
ints into uint64 expressions raises under numpy 2's scalar rules.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["first_draws", "node_streams", "trial_stream"]

# -- uint64 constants (kept typed: see the module docstring) ---------------

_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U32 = np.uint64(32)
_U58 = np.uint64(58)
_U63 = np.uint64(63)
_U64 = np.uint64(64)
_MASK32 = np.uint64(0xFFFFFFFF)
_RANGE32 = np.uint64(1 << 32)
# PCG64's 128-bit LCG multiplier in 64-bit limbs (low limb split again
# into 32-bit halves for the mulhi decomposition).
_PCG_MH = np.uint64(0x2360ED051FC65DA4)
_PCG_ML = np.uint64(0x4385DF649FCCF645)
_PCG_ML_LO = np.uint64(0x9FCCF645)
_PCG_ML_HI = np.uint64(0x4385DF64)

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
    state, which apply the half-word buffering and Lemire reduction —
    over a bound mix that exercises the
    no-consumption ``bound == 1`` case, small and large bounds, the
    rejection path (``2**31 + 1`` rejects ~50% of halves) and the
    full-width ``2**32``.  One stream is built as :func:`trial_stream`
    builds one (:func:`_raw_prefetched_stream`), two more as
    :func:`node_streams` builds them (:func:`_prefetched_streams`),
    drawn interleaved and well past their prefetched halves into the
    scalar refills.  Any numpy whose bounded-integer
    algorithm or buffering differs, or a wrong split of prefetched
    words into halves, fails this check and demotes every stream to
    real generators, keeping parity unconditional.
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
    entropy.  Any mismatch demotes every stream to real generators,
    keeping parity unconditional.
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

    The 128-bit LCG state and increment plus a queue of raw 32-bit
    halves not yet consumed.
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
    objects: the children's PCG64 states come from one vector seeding
    pass (:func:`_spawned_pcg_states`), which also prefetches every node's first :data:`_PREFETCH_WORDS` raw
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
