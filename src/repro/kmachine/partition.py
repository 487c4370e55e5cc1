"""Random vertex partition — the k-machine model's input distribution.

In the k-machine model of [16], the ``n``-node input graph is handed to
the ``k`` machines via the *random-vertex-partition* (RVP): each vertex
(together with its incident edges) is assigned to a machine chosen
uniformly and independently at random.  Every balance property the
Conversion Theorem relies on (Lemma 4.1 of [16]) follows from this
distribution, so the partition is a first-class object here rather than
an implementation detail of the simulation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VertexPartition"]


class VertexPartition:
    """An assignment of graph nodes ``0 .. n-1`` to machines ``0 .. k-1``.

    Parameters
    ----------
    machine_of:
        Array of length ``n``; ``machine_of[v]`` is the machine hosting
        graph node ``v``.
    k:
        Number of machines (must exceed every entry of ``machine_of``).

    Examples
    --------
    >>> part = VertexPartition.random(8, k=2, seed=0)
    >>> part.n, part.k
    (8, 2)
    >>> sorted(part.hosted(0)) == sorted(
    ...     v for v in range(8) if part.machine_of[v] == 0)
    True
    """

    __slots__ = ("machine_of", "k", "_hosted")

    def __init__(self, machine_of: np.ndarray, k: int):
        machine_of = np.asarray(machine_of, dtype=np.int64)
        if machine_of.ndim != 1:
            raise ValueError("machine_of must be a 1-d array")
        if k < 1:
            raise ValueError(f"need at least one machine, got k={k}")
        if machine_of.size and (machine_of.min() < 0 or machine_of.max() >= k):
            raise ValueError("machine assignment out of range")
        self.machine_of = machine_of
        self.k = int(k)
        self._hosted: list[list[int]] | None = None

    @classmethod
    def random(cls, n: int, k: int, *, seed: int = 0) -> "VertexPartition":
        """The RVP of [16]: each node picks a machine uniformly at random.

        Both k-machine paths draw their partition here, so a machine
        count below 1 is rejected here, by its keyword's name.
        """
        if k < 1:
            raise ValueError(f"k_machines must be at least 1, got {k}")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        return cls(rng.integers(0, k, size=n), k)

    @classmethod
    def round_robin(cls, n: int, k: int) -> "VertexPartition":
        """Deterministic balanced partition (tests and worst-case probes)."""
        return cls(np.arange(n, dtype=np.int64) % k, k)

    # -- queries ---------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of graph nodes partitioned."""
        return int(self.machine_of.size)

    def machine(self, v: int) -> int:
        """The machine hosting graph node ``v``."""
        return int(self.machine_of[v])

    def hosted(self, machine: int) -> list[int]:
        """The graph nodes hosted by ``machine`` (ascending ids)."""
        if self._hosted is None:
            buckets: list[list[int]] = [[] for _ in range(self.k)]
            for v, m in enumerate(self.machine_of.tolist()):
                buckets[m].append(v)
            self._hosted = buckets
        return list(self._hosted[machine])

    def loads(self) -> np.ndarray:
        """Nodes per machine (length ``k``)."""
        return np.bincount(self.machine_of, minlength=self.k)

    def load_imbalance(self) -> float:
        """Max/expected nodes-per-machine ratio (1.0 = perfectly even).

        Lemma 4.1 of [16] promises ``O~(n/k)`` nodes per machine whp;
        this is the measured counterpart.
        """
        if self.n == 0:
            return 1.0
        expected = self.n / self.k
        return float(self.loads().max()) / expected

    def crosses(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` spans two machines."""
        return bool(self.machine_of[u] != self.machine_of[v])

    def link(self, u: int, v: int) -> tuple[int, int] | None:
        """The machine link an edge ``{u, v}`` maps to, or ``None`` if local."""
        a, b = int(self.machine_of[u]), int(self.machine_of[v])
        if a == b:
            return None
        return (a, b) if a < b else (b, a)

    def __repr__(self) -> str:
        return f"VertexPartition(n={self.n}, k={self.k})"
