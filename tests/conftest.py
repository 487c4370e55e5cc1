"""Shared fixtures and graph builders for the test suite."""

from __future__ import annotations

import contextlib
import math

import pytest

from repro.graphs import Graph, gnp_random_graph


def ring(n: int) -> Graph:
    """A cycle graph — the smallest Hamiltonian structure."""
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def dense_gnp(n: int, c: float = 8.0, seed: int = 0) -> Graph:
    """G(n, p) comfortably above the Hamiltonicity threshold."""
    return gnp_random_graph(n, min(1.0, c * math.log(n) / n), seed=seed)


@contextlib.contextmanager
def generator_fallback(monkeypatch):
    """Force every replicated stream onto real Generators, and check it.

    Patches :mod:`repro.engines.streams`' self-check verdict to False
    and records each ``_replicable`` answer the engines get, so a
    patch on a module the engines no longer read fails here instead of
    passing silently.  Yields the recorded answers.
    """
    from repro.engines import streams

    verdicts: list[bool] = []
    replicable = streams._replicable

    def recording(seed) -> bool:
        verdicts.append(replicable(seed))
        return verdicts[-1]

    with monkeypatch.context() as m:
        m.setattr(streams, "_EXACT", False)
        m.setattr(streams, "_replicable", recording)
        yield verdicts
    assert verdicts and not any(verdicts), "the Generator route was not taken"


@pytest.fixture
def small_ring() -> Graph:
    return ring(8)


@pytest.fixture
def small_complete() -> Graph:
    return complete(7)
