"""Cost accounting for the k-machine conversion engine.

The k-machine model charges per *machine link* per round: each of the
``k(k-1)/2`` pairwise links carries at most ``W`` words (``O(polylog n)``
bits) per round.  Converting a CONGEST execution therefore means, for
every CONGEST round, packing that round's cross-machine messages onto
the links and charging enough k-machine rounds to drain the most loaded
link.  These are the counters that come out of that accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["KMachineMetrics"]


@dataclass
class KMachineMetrics:
    """Counters a :class:`~repro.kmachine.ledger.LinkLedger` accumulates,
    for the converted simulator and the native engine alike.

    Attributes
    ----------
    k:
        Number of machines.
    congest_rounds:
        Rounds the underlying CONGEST execution took (the paper's cost).
    kmachine_rounds:
        Rounds after conversion — the headline k-machine cost.
    cross_words / local_words:
        Total message words that crossed a machine link vs. stayed
        machine-local (local delivery is free in the model).
    link_words:
        ``k x k`` upper-triangular matrix of total words per link.
    recv_words_per_machine:
        Total words received by each machine (length ``k``).
    max_round_link_words:
        The largest single-round single-link load seen — the quantity
        whose ceiling against the link bandwidth drives the conversion.
    """

    k: int
    congest_rounds: int = 0
    kmachine_rounds: int = 0
    cross_words: int = 0
    local_words: int = 0
    link_words: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int64))
    recv_words_per_machine: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    max_round_link_words: int = 0

    @classmethod
    def empty(cls, k: int) -> "KMachineMetrics":
        return cls(
            k=k,
            link_words=np.zeros((k, k), dtype=np.int64),
            recv_words_per_machine=np.zeros(k, dtype=np.int64),
        )

    def busiest_link(self) -> tuple[int, int, int]:
        """``(machine_a, machine_b, words)`` of the most loaded link overall."""
        if self.link_words.size == 0 or self.link_words.max() == 0:
            return (0, 0, 0)
        a, b = np.unravel_index(int(self.link_words.argmax()), self.link_words.shape)
        return int(a), int(b), int(self.link_words[a, b])

    def link_imbalance(self) -> float:
        """Max/mean words per link, the mean over all ``k(k-1)/2`` links.

        1.0 means even; idle links count in the mean, so a run whose
        traffic used one link scores ``k(k-1)/2``.  The Conversion
        Theorem's efficiency rests on RVP spreading each round's
        traffic evenly over the links; this measures how true that is
        for a finished run.  A run with no cross-machine traffic
        scores 1.0.
        """
        if self.k < 2:
            return 1.0
        upper = self.link_words[np.triu_indices(self.k, k=1)]
        mean = float(upper.mean())
        return float(upper.max()) / mean if mean > 0 else 1.0

    def speedup(self) -> float:
        """CONGEST rounds per k-machine round (> 1 means conversion won)."""
        if self.kmachine_rounds <= 0:
            return 0.0
        return self.congest_rounds / self.kmachine_rounds

    def summary(self) -> dict[str, float]:
        """Headline numbers for tables and benches."""
        return {
            "k": float(self.k),
            "congest_rounds": float(self.congest_rounds),
            "kmachine_rounds": float(self.kmachine_rounds),
            "cross_words": float(self.cross_words),
            "local_words": float(self.local_words),
            "max_round_link_words": float(self.max_round_link_words),
            "link_imbalance": self.link_imbalance(),
            "speedup": self.speedup(),
        }
