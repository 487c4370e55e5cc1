"""Hamiltonian-cycle verification.

The paper's output convention (end of Section I-A): "each node will know
which of its incident edges belong to the HC (exactly two of them)".
Our distributed algorithms therefore report their result as a successor
map (node -> next node on the cycle); this module checks such maps, and
plain node sequences, against the input graph.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.graphs.adjacency import Graph, csr_sources

__all__ = [
    "CycleViolation",
    "verify_cycle",
    "verified_cycle",
    "is_hamiltonian_cycle",
    "is_hamiltonian_path",
    "cycle_from_successors",
]


class CycleViolation(ValueError):
    """The proposed cycle is not a Hamiltonian cycle of the graph."""


def verify_cycle(graph: Graph, cycle: Sequence[int]) -> None:
    """Raise :class:`CycleViolation` unless ``cycle`` is a Hamiltonian cycle.

    ``cycle`` lists the nodes in traversal order; the closing edge
    ``cycle[-1] -> cycle[0]`` is implied.  Graphs with fewer than three
    nodes have no Hamiltonian cycle.
    """
    n = graph.n
    if n < 3:
        raise CycleViolation(f"no Hamiltonian cycle exists on {n} < 3 nodes")
    if len(cycle) != n:
        raise CycleViolation(f"cycle visits {len(cycle)} nodes, expected {n}")
    nodes = _integer_nodes(cycle)
    if not _is_permutation(nodes, n):
        # Name the first offender in traversal order.
        seen = set()
        for v in nodes.tolist():
            if not 0 <= v < n:
                raise CycleViolation(f"node {v} out of range")
            if v in seen:
                raise CycleViolation(f"node {v} visited twice")
            seen.add(v)
    nodes = nodes.astype(np.int64, copy=False)
    successors = np.empty_like(nodes)
    successors[:-1] = nodes[1:]
    successors[-1] = nodes[0]
    i = _first_non_edge(graph, nodes, successors)
    if i >= 0:
        a, b = cycle[i], cycle[(i + 1) % n]
        raise CycleViolation(f"({a}, {b}) is not an edge of the graph")


def verified_cycle(
    graph: Graph, cycle: "Sequence[int] | Mapping[int, int] | None",
) -> list[int] | None:
    """``cycle`` as a verified node sequence, or ``None`` if it is not one.

    The one success test every runner applies to its output: ``cycle``
    is a node sequence, a successor map (flattened from node 0 by
    :func:`cycle_from_successors`) or ``None`` (no candidate, passed
    through).  A candidate that is not a Hamiltonian cycle of ``graph``
    yields ``None``; a verified one comes back as a list of Python ints
    (the input itself when it already is one), so a tuple, an ndarray
    or ``np.int64`` ids never reach a JSON store.
    """
    if cycle is None:
        return None
    try:
        if isinstance(cycle, Mapping):
            cycle = cycle_from_successors(cycle)
        verify_cycle(graph, cycle)
    except CycleViolation:
        return None
    if cycle.__class__ is list and all(v.__class__ is int for v in cycle):
        return cycle
    return np.asarray(cycle).tolist()


def _integer_nodes(nodes: Sequence[int]) -> np.ndarray:
    """``nodes`` as one flat array; :class:`CycleViolation` unless integral.

    A float id such as ``1.5`` would otherwise pass the range and
    duplicate checks and then truncate silently to a real node, and a
    nested sequence would reach them as rows instead of ids.
    """
    try:
        arr = np.asarray(nodes)
    except ValueError:  # ragged nesting
        raise CycleViolation("node ids must form a flat sequence") from None
    if arr.ndim != 1:
        raise CycleViolation(
            f"node ids must form a flat sequence, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise CycleViolation(f"node ids must be integers, got {arr.dtype}")
    return arr


def _is_permutation(nodes: np.ndarray, n: int) -> bool:
    """Whether the ``n`` integer ids in ``nodes`` are ``0..n-1``, each once."""
    if nodes.min() < 0 or nodes.max() >= n:
        return False
    marks = np.zeros(n, dtype=bool)
    marks[nodes] = True
    return bool(marks.all())


def _first_non_edge(graph: Graph, a: np.ndarray, b: np.ndarray) -> int:
    """Index of the first pair ``(a[i], b[i])`` that is not an edge, or -1.

    One ``searchsorted`` over the CSR's directed entries encoded as
    ``src*n + dst`` keys, which the sorted rows already order.
    """
    n = graph.n
    keys = csr_sources(graph.indptr) * n + graph.indices
    want = a * n + b
    at = np.searchsorted(keys, want)
    found = at < keys.size
    found[found] = keys[at[found]] == want[found]
    missing = np.flatnonzero(~found)
    return int(missing[0]) if missing.size else -1


def is_hamiltonian_cycle(graph: Graph, cycle: Sequence[int]) -> bool:
    """Boolean form of :func:`verify_cycle`."""
    try:
        verify_cycle(graph, cycle)
    except CycleViolation:
        return False
    return True


def is_hamiltonian_path(graph: Graph, path: Sequence[int]) -> bool:
    """Whether ``path`` visits every node exactly once along graph edges."""
    n = graph.n
    if len(path) != n or n == 0:
        return False
    try:
        nodes = _integer_nodes(path)
    except CycleViolation:
        return False
    if not _is_permutation(nodes, n):
        return False
    nodes = nodes.astype(np.int64, copy=False)
    return _first_non_edge(graph, nodes[:-1], nodes[1:]) < 0


def cycle_from_successors(successors: Mapping[int, int], *, start: int = 0) -> list[int]:
    """Flatten a successor map into a node sequence starting at ``start``.

    Raises :class:`CycleViolation` if the map does not describe a single
    cycle covering all its keys.
    """
    if start not in successors:
        raise CycleViolation(f"start node {start} has no successor entry")
    cycle = [start]
    v = successors[start]
    while v != start:
        if len(cycle) > len(successors):
            raise CycleViolation("successor map does not close into one cycle")
        if v not in successors:
            raise CycleViolation(f"node {v} has no successor entry")
        cycle.append(v)
        v = successors[v]
    if len(cycle) != len(successors):
        raise CycleViolation(
            f"successor map splits into multiple cycles "
            f"({len(cycle)} of {len(successors)} nodes reached)"
        )
    return cycle
