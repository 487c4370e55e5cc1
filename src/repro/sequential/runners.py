"""RunResult front ends for the sequential solvers.

The sequential walks (:func:`~repro.sequential.angluin_valiant.angluin_valiant_cycle`
and its restarting wrapper :func:`~repro.sequential.posa.posa_cycle`)
return bare node lists; these front ends adapt them to the
library-standard :class:`~repro.engines.results.RunResult` so the
registry can dispatch to them like any distributed engine.  ``rounds``
is 0 — a sequential solver holds the whole graph, there is nothing
distributed to account for — which is exactly what makes them useful as
comparators and test oracles.
"""

from __future__ import annotations

from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.sequential.angluin_valiant import angluin_valiant_cycle
from repro.sequential.posa import posa_cycle
from repro.verify.hamiltonicity import verified_cycle

__all__ = ["run_posa", "run_angluin_valiant"]


def _as_result(graph: Graph, algorithm: str, cycle: list[int] | None) -> RunResult:
    cycle = verified_cycle(graph, cycle)
    return RunResult(algorithm=algorithm, success=cycle is not None,
                     cycle=cycle, rounds=0, engine="sequential")


def run_posa(graph: Graph, *, seed: int = 0, restarts: int = 8,
             step_budget: int | None = None) -> RunResult:
    """Rotation–extension with restarts, as a registry-dispatchable runner."""
    neighbors = {v: graph.neighbor_list(v) for v in range(graph.n)}
    cycle = posa_cycle(graph.n, neighbors, rng=seed, restarts=restarts,
                       step_budget=step_budget)
    return _as_result(graph, "posa", cycle)


def run_angluin_valiant(graph: Graph, *, seed: int = 0,
                        step_budget: int | None = None) -> RunResult:
    """One Angluin–Valiant walk, as a registry-dispatchable runner."""
    cycle = angluin_valiant_cycle(graph.n, graph=graph, rng=seed,
                                  step_budget=step_budget)
    return _as_result(graph, "angluin-valiant", cycle)
