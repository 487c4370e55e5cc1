"""Shared sampling helpers for the random-graph generators.

The generators in this package all reduce to "sample ``k`` distinct
unordered node pairs uniformly".  Pairs ``(i, j)`` with ``0 <= i < j < n``
are indexed row-major in the upper triangle:

    index(i, j) = i*n - i*(i+1)/2 + (j - i - 1)

which lets us sample pair *indices* as plain integers and decode them in
vectorised numpy, keeping generation O(m) regardless of density.

**Sorted-input contract:** :func:`sample_distinct` returns its indices
sorted ascending on every branch, and :func:`decode_pair_indices`
requires sorted input: it reads each row's pair count off one
``searchsorted`` of the ``n`` row starts into the indices instead of
bisecting the row starts once per pair.  Sorting is free of any
randomness (it follows every RNG call), and a graph depends only on
its edge set, so the sampled graphs are unchanged by it.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.adjacency import sorted_unique

__all__ = ["pair_count", "sample_distinct", "top_up_distinct",
           "decode_pair_indices", "encode_pairs"]


def pair_count(n: int) -> int:
    """Number of unordered node pairs in an ``n``-node graph."""
    return n * (n - 1) // 2


def sample_distinct(rng: np.random.Generator, upper: int, k: int) -> np.ndarray:
    """Sample ``k`` distinct integers uniformly from ``[0, upper)``, sorted.

    Uses rejection (sample with replacement, deduplicate, top up) which is
    O(k) in expectation for the sparse regimes we care about, and falls
    back to a full permutation when ``k`` is a large fraction of ``upper``.
    Both branches return the values in ascending order, as
    :func:`decode_pair_indices` requires; the sort comes after the last
    draw, so the stream is consumed exactly as before.
    """
    if k < 0:
        raise ValueError("sample size must be non-negative")
    if k > upper:
        raise ValueError(f"cannot sample {k} distinct values from a range of {upper}")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k * 3 >= upper:
        # Dense regime: a permutation is cheaper than repeated rejection.
        return np.sort(rng.permutation(upper)[:k]).astype(np.int64, copy=False)

    return top_up_distinct(rng, upper, k, sorted_unique(
        rng.integers(0, upper, size=int(k * 1.1) + 16, dtype=np.int64)))


def top_up_distinct(rng: np.random.Generator, upper: int, k: int,
                    chosen: np.ndarray) -> np.ndarray:
    """The tail of :func:`sample_distinct` after its first-round dedup.

    ``chosen`` is the sorted unique of the first rejection draw.  Tops
    it up to ``k`` values, then downsamples an overshoot uniformly;
    both consume ``rng`` in :func:`sample_distinct`'s call order.  The
    result stays sorted: the kept positions are taken in order.
    """
    while chosen.size < k:
        extra = rng.integers(0, upper, size=k - chosen.size + 16, dtype=np.int64)
        chosen = sorted_unique(np.concatenate((chosen, extra)))
    if chosen.size > k:
        keep = rng.choice(chosen.size, size=k, replace=False)
        chosen = chosen[np.sort(keep)]
    return chosen


def decode_pair_indices(n: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode *sorted* linear pair indices into ``(lo, hi)`` with ``lo < hi``.

    The inverse of :func:`encode_pairs` on ascending ``indices`` (as
    :func:`sample_distinct` returns them); unsorted input decodes
    wrongly.  Rows of the upper triangle start at offsets
    ``row_start(i) = i*n - i*(i+1)/2``.  One ``searchsorted`` of the row
    starts into ``indices`` gives every row's pair count; ``lo`` and each
    pair's row offset are those counts' run-length expansions.  Exact
    integers, O(n log m + m), and the pairs come out ordered by
    ``(lo, hi)``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    row_starts = rows * n - rows * (rows + 1) // 2  # row_starts[n-1] == pair_count(n)
    counts = np.diff(np.searchsorted(indices, row_starts))  # row n-1 holds no pair
    lo = np.repeat(rows[:-1], counts)
    hi = indices - np.repeat(row_starts[:-1] - rows[:-1] - 1, counts)
    return lo, hi


def encode_pairs(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Encode pairs ``lo < hi`` into linear upper-triangle indices."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    return lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)
