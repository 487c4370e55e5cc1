"""Batched ``G(n, p)`` generation: B same-``n`` trials, built as they run.

``fast-batch`` sweeps hand each engine call a :class:`GnpBatch` of B
same-``n`` trials, then run every trial on the per-trial ``fast``
engine.  A batch keeps only ``n``, ``p`` and the trials' seeds:
``batch[b]`` is ``gnp_random_graph(n, p, seed=seeds[b])``, built when
the trial runs and not kept, so the batch's graphs equal the
per-trial generator's by construction, seed for seed, and a batch
never holds more than the one graph its caller is using.

An earlier version drew every trial's pairs up front into one pooled
pair array, and measured faster than one ``gnp_random_graph`` call
per seed.  The cause was glibc, not the pool: a dense trial's
transient arrays (the permutation of all C(n, 2) pair indices, the
CSR keys) were each mapped and unmapped again, 757 minor page faults
per trial on a per-trial DHC2 n = 512 sweep.  The harness now keeps
them on the heap instead (``repro.harness.runner``), which took that
sweep to about 24 faults per trial over 8 trials, nearly all in the
first, so the pool and its memory (about 36 MB at that point) are
gone.

:class:`GnpBatch` quacks enough like a list of
:class:`~repro.graphs.adjacency.Graph` for the batch runners:
``len(batch)``, ``batch[b]`` (negative indices included) and
iteration.  ``batch.edge_counts`` is each trial's edge count, its
stream's first ``binomial`` draw.  ``batch.stacked()`` returns
``(indptr, indices, twins)`` from ``stack_graph_csrs`` +
``stacked_edge_twins`` over the built graphs; no engine reads that
form; only the benchmark's traced ledger (``perfbench/``) times it.
"""

from __future__ import annotations

import numpy as np

from repro.graphs._sampling import pair_count
from repro.graphs.gnp import gnp_random_graph

__all__ = ["GnpBatch", "batch_gnp", "pooled_sampling_exact"]


class GnpBatch:
    """B same-``n`` ``G(n, p)`` trials, each sampled when it is read.

    The public surface is the list-of-graphs protocol described in the
    module docstring plus :meth:`stacked` and the per-trial
    :attr:`edge_counts`.
    """

    __slots__ = ("n", "p", "seeds", "_stacked")

    def __init__(self, n: int, p: float, seeds):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability must be in [0, 1], got {p}")
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        self.n = int(n)
        self.p = float(p)
        self.seeds = tuple(seeds)
        self._stacked: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.seeds)

    def __repr__(self) -> str:
        return f"GnpBatch(n={self.n}, p={self.p}, trials={len(self)})"

    @property
    def edge_counts(self) -> np.ndarray:
        """Per-trial undirected edge counts (length B)."""
        total = pair_count(self.n)
        return np.array([np.random.default_rng(seed).binomial(total, self.p)
                         for seed in self.seeds], dtype=np.int64)

    def __getitem__(self, key):
        return gnp_random_graph(self.n, self.p, seed=self.seeds[int(key)])

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The batch as one disjoint-union CSR: ``(indptr, indices, twins)``.

        ``stack_graph_csrs`` + ``stacked_edge_twins`` over the built
        graphs.  Cached.
        """
        if self._stacked is None:
            from repro.engines.batchwalk import (
                stack_graph_csrs,
                stacked_edge_twins,
            )

            if len(self):
                indptr, indices = stack_graph_csrs(list(self))
            else:
                indptr = np.zeros(1, dtype=np.int64)
                indices = np.empty(0, dtype=np.int32)
            twins = stacked_edge_twins(indptr, indices, len(self), self.n)
            self._stacked = (indptr, indices, twins)
        return self._stacked


def pooled_sampling_exact() -> bool:
    """Always ``True``: every trial is sampled by ``gnp_random_graph`` itself.

    No replicated sampler is left to check against
    :func:`~repro.graphs.gnp.gnp_random_graph`.  The name stays only
    because the benchmark's setup probe (``perfbench/probe_setup.py``)
    calls it.
    """
    return True


def batch_gnp(n: int, p: float, seeds) -> GnpBatch:
    """B = ``len(seeds)`` graphs ``G(n, p)`` as one :class:`GnpBatch`.

    Equal to ``[gnp_random_graph(n, p, seed=s) for s in seeds]`` by
    construction; each graph is sampled when it is read.
    """
    return GnpBatch(n, p, seeds)
