"""Immutable undirected simple-graph data structure.

All algorithms in this library operate on :class:`Graph`, a compressed
sparse row (CSR) adjacency structure over nodes ``0 .. n-1``.  The CSR
layout keeps neighbour iteration allocation-free (numpy slices) and edge
queries logarithmic (binary search within a sorted neighbour slice),
which matters because the CONGEST simulator touches adjacency on every
message delivery.

The structure is immutable by design: every generator in
:mod:`repro.graphs` builds the full edge set first and then freezes it,
mirroring how the paper treats the input graph (the topology never
changes during an execution).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Graph", "csr_gather", "csr_sources", "sorted_unique"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` for integer arrays via sort + neighbour diff.

    Identical output, but avoids ``np.unique`` itself: on current
    numpy builds its integer path costs 10-50x a plain ``np.sort``,
    from the ~30k rejection draws of one ``G(n, p)`` sample up to the
    million-element pooled batch samples.
    """
    if values.size == 0:
        return values
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def csr_sources(indptr: np.ndarray) -> np.ndarray:
    """Source node of every directed CSR entry (parallel to ``indices``)."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64),
                     np.diff(indptr))


def csr_gather(indptr: np.ndarray, indices: np.ndarray,
               nodes: np.ndarray) -> np.ndarray:
    """Concatenated CSR row slices of ``nodes`` (a multi-row gather).

    Equivalent to ``np.concatenate([indices[indptr[v]:indptr[v+1]]
    for v in nodes])`` without the per-row Python loop; the workhorse
    of the vectorised BFS and walk kernels.
    """
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    # Per-block arange: global arange minus each block's start offset.
    block_starts = np.repeat(np.cumsum(counts) - counts, counts)
    flat = np.repeat(indptr[nodes], counts) + (np.arange(total) - block_starts)
    return indices[flat]


class Graph:
    """An undirected simple graph on nodes ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of nodes.
    edges:
        Array-like of shape ``(m, 2)`` with one row per undirected edge.
        Self-loops are rejected; duplicate rows (in either orientation)
        are collapsed to a single edge.

    Examples
    --------
    >>> g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> g.degree(0)
    2
    >>> g.neighbor_list(1)
    [0, 2]
    >>> g.has_edge(0, 2)
    False
    """

    __slots__ = ("_n", "_m", "_indptr", "_indices", "__weakref__")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                                dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array of node pairs")
        if edge_array.size and (edge_array.min() < 0 or edge_array.max() >= n):
            raise ValueError("edge endpoint out of range")
        if np.any(edge_array[:, 0] == edge_array[:, 1]):
            raise ValueError("self-loops are not allowed in a simple graph")

        lo = np.minimum(edge_array[:, 0], edge_array[:, 1])
        hi = np.maximum(edge_array[:, 0], edge_array[:, 1])
        if lo.size:
            keys = lo * np.int64(n) + hi
            keys = sorted_unique(keys)
            lo, hi = keys // n, keys % n

        self._n = int(n)
        self._m = int(lo.size)
        self._indptr, self._indices = _build_csr(n, lo, hi)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_sorted_pairs(cls, n: int, lo: np.ndarray, hi: np.ndarray) -> "Graph":
        """Build a graph from pre-validated distinct pairs with ``lo < hi``.

        Fast path used by the random-graph generators, which already
        guarantee distinctness and orientation.  No validation is done.
        The pairs must come in ascending ``(lo, hi)`` order, as every
        generator emits them: the CSR build then orders only the
        reverse orientation (see ``_build_csr``).
        """
        graph = cls.__new__(cls)
        graph._n = int(n)
        graph._m = int(lo.size)
        graph._indptr, graph._indices = _build_csr(n, lo, hi)
        return graph

    # -- basic queries --------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return self._m

    @property
    def indptr(self) -> np.ndarray:
        """Raw CSR row-pointer array (length ``n + 1``, read-only).

        ``indices[indptr[v]:indptr[v + 1]]`` is the sorted neighbour
        slice of ``v``.  Exposed for array-native kernels
        (:mod:`repro.engines.arraywalk`) that operate on the CSR buffers
        directly instead of going through per-node accessors.
        """
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Raw CSR column-index array (length ``2 m``, read-only).

        One directed entry per edge orientation; each row slice is
        sorted ascending.  See :attr:`indptr`.
        """
        return self._indices

    def nodes(self) -> range:
        """The node ids, ``0 .. n-1``."""
        return range(self._n)

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Vector of all node degrees (length ``n``)."""
        return np.diff(self._indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of ``v`` as a read-only numpy view."""
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def neighbor_list(self, v: int) -> list[int]:
        """Neighbours of ``v`` as a plain Python list of ints."""
        return self.neighbors(v).tolist()

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` is present."""
        if u == v:
            return False
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < row.size and row[pos] == v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over edges as ``(u, v)`` with ``u < v``."""
        for u in range(self._n):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array with ``u < v`` per row."""
        src = csr_sources(self._indptr)
        mask = src < self._indices
        return np.column_stack((src[mask], self._indices[mask]))

    # -- derived graphs -------------------------------------------------------

    def subgraph(self, nodes: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on ``nodes``.

        Returns the subgraph (relabelled to ``0 .. len(nodes)-1`` in the
        order given) and the mapping from original id to new id.
        """
        node_list = [int(v) for v in nodes]
        mapping = {v: i for i, v in enumerate(node_list)}
        if len(mapping) != len(node_list):
            raise ValueError("duplicate node in subgraph selection")
        # Membership mask over the (u < v) edge array: one vectorised
        # pass instead of a per-node Python pair loop.
        new_id = np.full(self._n, -1, dtype=np.int64)
        new_id[node_list] = np.arange(len(node_list), dtype=np.int64)
        edge_arr = self.edge_array()
        mu, mv = new_id[edge_arr[:, 0]], new_id[edge_arr[:, 1]]
        keep = (mu >= 0) & (mv >= 0)
        lo = np.minimum(mu[keep], mv[keep])
        hi = np.maximum(mu[keep], mv[keep])
        order = np.argsort(lo * np.int64(len(node_list)) + hi)
        sub = Graph.from_sorted_pairs(len(node_list), lo[order], hi[order])
        return sub, mapping

    # -- dunder ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self._n

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self._n == other._n
                and np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))

    def __hash__(self) -> int:  # immutable, so hashable
        return hash((self._n, self._m, self._indices.tobytes()))


def _build_csr(n: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build (indptr, indices) CSR arrays from distinct pairs with lo < hi.

    Each directed entry is one int64 key ``src*n + dst``.  The pairs
    come in ascending ``(lo, hi)`` order, so the forward keys are
    already one sorted run: only the reverse keys need a sort, and the
    stable (merge) sort of both runs is then one linear merge.
    Unordered pairs still give the right CSR, through a full sort.
    The row starts are a ``searchsorted`` of the row keys, and each
    row's key offset is subtracted in place to leave the ``dst``s.
    """
    m = lo.size
    keys = np.empty(2 * m, dtype=np.int64)
    forward, reverse = keys[:m], keys[m:]
    np.multiply(lo, n, out=forward)
    forward += hi
    np.multiply(hi, n, out=reverse)
    reverse += lo
    reverse.sort()
    keys.sort(kind="stable")
    row_keys = np.arange(n + 1, dtype=np.int64) * n
    indptr = np.searchsorted(keys, row_keys)
    keys -= np.repeat(row_keys[:-1], np.diff(indptr))
    return indptr, keys
