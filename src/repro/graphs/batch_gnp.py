"""Batched ``G(n, p)`` generation: B same-``n`` trials in one pair pool.

``fast-batch`` sweeps hand each engine call a :class:`GnpBatch` of B
same-``n`` trials, then run every trial on the per-trial ``fast``
engine.  :func:`batch_gnp` samples each trial with exactly the calls
:func:`~repro.graphs.gnp.gnp_random_graph` makes, in the same order,
on that trial's own ``default_rng(seed)``: ``binomial`` for the edge
count, :func:`~repro.graphs._sampling.sample_distinct` for the sorted
pair indices, :func:`~repro.graphs._sampling.decode_pair_indices` for
the pairs.  The batch's graphs therefore equal the per-trial
generator's by construction, seed for seed.

What the batch adds is where the pairs land.  All edge counts are
drawn first, so one ``lo``/``hi`` pair of arrays sized for the whole
batch is allocated once, and each trial's pairs are decoded straight
into its slice of them.  Those two arrays are the only batch-sized
allocation.  The pool is kept because it measurably pays: on
``dhc2-batch-n512`` (2-core host, Python 3.11, numpy 2.4), one
``gnp_random_graph`` call per seed instead read about 10% fewer
trials/s and took about 30,000-38,000 minor page faults per 50-trial
sweep against about 1,700.  The likely cause is glibc's heap
trimming: freeing the pool's large arrays raises malloc's dynamic
mmap and trim thresholds, so each trial's temporaries then stay on
the heap instead of being mapped and unmapped again.

:class:`GnpBatch` quacks enough like a list of
:class:`~repro.graphs.adjacency.Graph` for the batch runners:
``len(batch)``, ``batch[b]`` (trial ``b``'s ``Graph``, negative
indices included, built on each access and not kept, so a batch holds
only its pair arrays) and iteration.  ``batch.stacked()`` returns
``(indptr, indices, twins)`` bit-identical to ``stack_graph_csrs`` +
``stacked_edge_twins`` over the materialised graphs; no engine reads
that form, only the benchmark's ledger and E15 time it.
"""

from __future__ import annotations

import numpy as np

from repro.graphs._sampling import (
    decode_pair_indices,
    pair_count,
    sample_distinct,
)
from repro.graphs.adjacency import Graph

__all__ = ["GnpBatch", "batch_gnp", "pooled_sampling_exact"]


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
        self._offsets = offsets  # int64 offsets into lo/hi, len B+1
        self._stacked: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return self._offsets.size - 1

    def __repr__(self) -> str:
        return f"GnpBatch(n={self.n}, p={self.p}, trials={len(self)})"

    @property
    def edge_counts(self) -> np.ndarray:
        """Per-trial undirected edge counts (length B)."""
        return np.diff(self._offsets)

    def __getitem__(self, key):
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
    """Always ``True``: every trial is sampled by ``sample_distinct`` itself.

    No replicated sampler is left to check against
    :func:`~repro.graphs.gnp.gnp_random_graph`.  The name stays only
    because the benchmark's setup probe (``perfbench/probe_setup.py``)
    calls it.
    """
    return True


def batch_gnp(n: int, p: float, seeds) -> GnpBatch:
    """Sample B = ``len(seeds)`` graphs ``G(n, p)`` as one :class:`GnpBatch`.

    Equal to ``[gnp_random_graph(n, p, seed=s) for s in seeds]`` by
    construction: each trial makes the same calls on its own
    ``default_rng(seed)``, in the same order.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    if n < 0:
        raise ValueError(f"node count must be non-negative, got {n}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    total = pair_count(n)
    offsets = np.zeros(len(rngs) + 1, dtype=np.int64)
    if total and p > 0:
        for b, rng in enumerate(rngs):
            offsets[b + 1] = int(rng.binomial(total, p))
    np.cumsum(offsets, out=offsets)
    lo = np.empty(int(offsets[-1]), dtype=np.int64)
    hi = np.empty_like(lo)
    for b, rng in enumerate(rngs):
        s, e = int(offsets[b]), int(offsets[b + 1])
        if s < e:
            lo[s:e], hi[s:e] = decode_pair_indices(
                n, sample_distinct(rng, total, e - s))
    return GnpBatch(n, p, lo, hi, offsets)
