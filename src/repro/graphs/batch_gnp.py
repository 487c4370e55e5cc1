"""Batched ``G(n, p)`` generation: one build for a whole trial batch.

``fast-batch`` sweeps sample B same-``n`` graphs in one call and then
run each trial on the per-trial ``fast`` engine; only the generation
is pooled.  Generating those graphs one
:func:`~repro.graphs.gnp.gnp_random_graph` call at a time pays B
rounds of numpy dispatch.  :func:`batch_gnp` samples them from one
pooled pair set, and :meth:`GnpBatch.stacked` can still emit their
disjoint-union CSR (node ``v`` of trial ``b`` becomes global id
``b*n + v``) and twin table *directly* from it, although no engine
reads that form any more:

* per-trial ``Binomial(C(n,2), p)`` edge counts drawn from each
  trial's own Generator,
* distinct-pair sampling with the expensive non-stream work pooled —
  one keyed sorted unique over every sparse trial's rejection draws
  instead of B separate uniques,
* a per-trial pair decode of each trial's sorted index run (the
  sorted-input decode of :mod:`repro.graphs._sampling`: one
  ``searchsorted`` of the ``n`` row starts per trial, not one
  bisection per pair), and one concatenated ``lexsort`` CSR build for
  the whole batch, with the twin (reverse-edge) table read off the
  sort permutation for free.

**Determinism contract:** every call that consumes a trial's random
stream (``binomial``, ``integers``, the top-up loop, ``choice``,
``permutation``) is made on that trial's own ``default_rng(seed)`` in
exactly the order :func:`gnp_random_graph` makes it, and per-trial
control flow depends only on that trial's own draws — so the sampled
edge sets are seed-for-seed identical to the per-trial generator.
Only order-insensitive set algebra (the sorted unique, the CSR sort)
is pooled.  Like ``DrawPool``, the pooled path
self-checks against :func:`gnp_random_graph` once per process
(:func:`pooled_sampling_exact`) and falls back to literal per-trial
:func:`~repro.graphs._sampling.sample_distinct` calls — still exact by
construction — if the check ever fails.  The rarely-taken top-up
branch is pinned by unit tests with scripted generators
(``tests/test_batch_gnp.py``).

:class:`GnpBatch` quacks enough like a list of
:class:`~repro.graphs.adjacency.Graph` for the batch runners:
``len(batch)``, ``batch[b]`` (trial ``b``'s ``Graph``, built on each
access and not kept, so a batch holds only its pair arrays),
contiguous ``batch[lo:hi]`` slices (zero-copy views over the shared
pair arrays, for edge-budget chunking), and iteration.
``batch.stacked()`` returns ``(indptr, indices, twins)`` bit-identical
to ``stack_graph_csrs`` + ``stacked_edge_twins`` over the
materialised graphs.
"""

from __future__ import annotations

import numpy as np

from repro.graphs._sampling import (
    decode_pair_indices,
    pair_count,
    sample_distinct,
    top_up_distinct,
)
from repro.graphs.adjacency import Graph, sorted_unique
from repro.graphs.gnp import gnp_random_graph

__all__ = ["GnpBatch", "batch_gnp", "pooled_sampling_exact"]

#: Lazily established verdict of the pooled-sampling self-check
#: (None = not yet run).  Monkeypatch to False to force the
#: per-trial fallback in tests.
_EXACT: bool | None = None

_EMPTY = np.empty(0, dtype=np.int64)


class GnpBatch:
    """B same-``n`` ``G(n, p)`` trials as one shared pair-array pool.

    Construction is internal (:func:`batch_gnp`); the public surface
    is the list-of-graphs protocol described in the module docstring
    plus :meth:`stacked` and the per-trial :attr:`edge_counts`.
    """

    __slots__ = ("n", "p", "_lo", "_hi", "_offsets", "_stacked")

    def __init__(self, n: int, p: float, lo: np.ndarray, hi: np.ndarray,
                 offsets: np.ndarray):
        self.n = int(n)
        self.p = float(p)
        self._lo = lo
        self._hi = hi
        self._offsets = offsets  # absolute int64 offsets into lo/hi, len B+1
        self._stacked: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return self._offsets.size - 1

    def __repr__(self) -> str:
        return f"GnpBatch(n={self.n}, p={self.p}, trials={len(self)})"

    @property
    def edge_counts(self) -> np.ndarray:
        """Per-trial undirected edge counts (length B)."""
        return np.diff(self._offsets)

    @property
    def directed_counts(self) -> np.ndarray:
        """Per-trial directed CSR entry counts (length B) — ``2 m_b``."""
        return 2 * self.edge_counts

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self))
            if step != 1:
                raise ValueError("GnpBatch slices must be contiguous (step 1)")
            stop = max(stop, start)
            return GnpBatch(self.n, self.p, self._lo, self._hi,
                            self._offsets[start:stop + 1])
        b = int(key)
        if b < 0:
            b += len(self)
        if not 0 <= b < len(self):
            raise IndexError("trial index out of range")
        s, e = int(self._offsets[b]), int(self._offsets[b + 1])
        return Graph.from_sorted_pairs(self.n, self._lo[s:e], self._hi[s:e])

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The batch as one disjoint-union CSR: ``(indptr, indices, twins)``.

        One global ``lexsort`` over the doubled, block-offset edge list
        replaces B per-graph CSR builds plus the stacking copy: block
        offsets make the sort keys strictly ordered between trials, so
        the global sort *is* the concatenation of the per-graph sorts
        and the result is bit-identical to ``stack_graph_csrs`` over
        the materialised graphs.  ``twins`` (the reverse-edge slot
        table ``stacked_edge_twins`` would build with a second
        argsort) falls out of the same permutation: the pre-sort twin
        of doubled entry ``e`` is ``(e + m) % 2m``, so
        ``twins = inv[(order + m) % 2m]``.  Cached.
        """
        if self._stacked is None:
            batch = len(self)
            n = self.n
            rows = batch * n
            start, end = int(self._offsets[0]), int(self._offsets[-1])
            lo = self._lo[start:end]
            hi = self._hi[start:end]
            shift = np.repeat(np.arange(batch, dtype=np.int64) * n,
                              self.edge_counts)
            glo = lo + shift
            ghi = hi + shift
            m = glo.size
            if 2 * m >= 2**31 or rows >= 2**31:
                raise ValueError(
                    "stacked batch exceeds int32 CSR addressing; "
                    "lower the batch size")
            src = np.concatenate((glo, ghi))
            dst = np.concatenate((ghi, glo))
            order = np.lexsort((dst, src))
            node_counts = np.bincount(src, minlength=rows)
            indptr = np.zeros(rows + 1, dtype=np.int64)
            np.cumsum(node_counts, out=indptr[1:])
            indices = dst[order].astype(np.int32)
            if m:
                inv = np.empty(2 * m, dtype=np.int64)
                inv[order] = np.arange(2 * m, dtype=np.int64)
                twins = inv[(order + m) % (2 * m)].astype(np.int32)
            else:
                twins = np.empty(0, dtype=np.int32)
            self._stacked = (indptr, indices, twins)
        return self._stacked


def pooled_sampling_exact() -> bool:
    """Whether the pooled sampler reproduces ``gnp_random_graph`` here.

    Runs the self-check on first call and caches the verdict for the
    process, exactly like ``DrawPool``'s stream-replication check.
    """
    global _EXACT
    if _EXACT is None:
        _EXACT = _self_check()
    return _EXACT


def batch_gnp(n: int, p: float, seeds) -> GnpBatch:
    """Sample B = ``len(seeds)`` graphs ``G(n, p)`` as one :class:`GnpBatch`.

    Seed-for-seed identical to ``[gnp_random_graph(n, p, seed=s) for s
    in seeds]`` (see the module docstring for the contract and the
    fallback).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if n < 0:
        raise ValueError(f"node count must be non-negative, got {n}")
    return _generate(n, p, list(seeds), pooled=pooled_sampling_exact())


def _generate(n: int, p: float, seeds: list, *, pooled: bool) -> GnpBatch:
    batch = len(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    total = pair_count(n)
    counts = np.zeros(batch, dtype=np.int64)
    if total and p > 0:
        for b, rng in enumerate(rngs):
            counts[b] = int(rng.binomial(total, p))
    offsets = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    if offsets[-1] == 0:
        return GnpBatch(n, p, _EMPTY, _EMPTY, offsets)
    # Each trial's run is decoded straight into the pool arrays, so no
    # batch-sized index array or list of runs is built and freed on the
    # way; the sparse trials' pooled unique is done before the pool
    # arrays exist.
    runs = _trial_runs(rngs, total, counts, pooled=pooled)
    lo = np.empty(int(offsets[-1]), dtype=np.int64)
    hi = np.empty_like(lo)
    for b, run in runs:
        s, e = int(offsets[b]), int(offsets[b + 1])
        lo[s:e], hi[s:e] = decode_pair_indices(n, run)
    return GnpBatch(n, p, lo, hi, offsets)


def _trial_runs(rngs: list, upper: int, counts: np.ndarray, *, pooled: bool):
    """An iterator of ``(b, run)``: trial ``b``'s distinct pair indices, sorted.

    Trials with no edges yield nothing; dense trials come first, in
    trial order, then the sparse ones.  Mirrors :func:`sample_distinct`
    trial by trial; when ``pooled``, the sparse-regime first-round
    deduplication — the dominant cost — is one keyed
    :func:`~repro.graphs.adjacency.sorted_unique` across all sparse
    trials (key = ``slot * upper + value``, collision-free and
    overflow-guarded).  That unique runs here, before the iterator is
    returned, so its temporaries are gone before the caller allocates
    the pool; each run is drawn only when the iterator reaches it.
    Every trial draws from its own Generator, so neither order changes
    any draw.
    """
    dense: list[int] = []
    sparse: list[int] = []
    draws: list[np.ndarray] = []
    pooled = pooled and len(rngs) * max(upper, 1) < 2**62
    for b, rng in enumerate(rngs):
        k = int(counts[b])
        if k == 0:
            continue
        if k * 3 >= upper or not pooled:
            dense.append(b)
        else:
            draws.append(rng.integers(0, upper, size=int(k * 1.1) + 16,
                                      dtype=np.int64))
            sparse.append(b)
    pool = bounds = _EMPTY
    if sparse:
        sizes = np.array([d.size for d in draws], dtype=np.int64)
        base = np.repeat(np.arange(len(draws), dtype=np.int64) * upper, sizes)
        pool = sorted_unique(np.concatenate(draws) + base)
        del draws, base
        bounds = np.searchsorted(
            pool, np.arange(len(sparse) + 1, dtype=np.int64) * upper)

    def runs():
        for b in dense:
            yield b, sample_distinct(rngs[b], upper, int(counts[b]))
        for slot, b in enumerate(sparse):
            chosen = pool[bounds[slot]:bounds[slot + 1]] - slot * upper
            yield b, top_up_distinct(rngs[b], upper, int(counts[b]), chosen)

    return runs()


def _self_check() -> bool:
    """Pooled generation vs :func:`gnp_random_graph` on a small grid.

    Covers the sparse pooled-unique regime (with its common
    downsample branch), the dense permutation regime, and the
    zero-edge degenerate cases.
    """
    grid = [
        (16, 0.25, 4),   # sparse: pooled unique + choice downsample
        (40, 0.12, 4),   # sparse, larger rows
        (10, 0.95, 3),   # dense: per-trial permutation
        (12, 0.0, 2),    # no edges drawn at all
        (1, 0.5, 2),     # no pairs exist
    ]
    try:
        for n, p, trials in grid:
            seeds = list(range(trials))
            got = _generate(n, p, seeds, pooled=True)
            for b, seed in enumerate(seeds):
                if got[b] != gnp_random_graph(n, p, seed=seed):
                    return False
    except Exception:  # pragma: no cover - only on exotic numpy builds
        return False
    return True
