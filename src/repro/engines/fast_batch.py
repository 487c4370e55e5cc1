"""The ``fast-batch`` engine: a batch of trials per engine call.

Batch runners for the four fast engines —
:func:`repro.engines.fast._dra_fast`,
:func:`repro.engines.fast_cre._cre_fast`,
:func:`repro.engines.fast_dhc2._dhc2_fast`, and
:func:`repro.engines.fast_turau._turau_fast`.  A
``run_batch(graphs, seeds=...)`` call executes B independent same-n
trials — each with its own sampled graph and its own seed — and
returns one :class:`~repro.engines.results.RunResult` per trial that
is seed-for-seed identical to what ``engine="fast"`` would have
produced for that (graph, seed) pair.  The single-graph wrappers
(``*_one``) make the same code reachable through the ordinary
:func:`repro.run` path, which is what the registry parity gate
exercises.

Every runner runs each trial on per-trial ``fast`` and tags the
result ``engine="fast-batch"``.  No batch-major kernel beat that on a
measured host: the numpy batch walks of DRA, DHC2, CRE and Turau each
lost to per-trial ``fast`` in time, and most in memory too.  What
the engine still batches is where the graphs live: the sweep harness
hands over a :class:`~repro.graphs.batch_gnp.GnpBatch`, which holds
every trial's sampled edges in one pair pool, and each trial's
:class:`~repro.graphs.adjacency.Graph` is built from it as the trial
runs.  :func:`auto_batch_size` sizes those batches.
"""

from __future__ import annotations

from repro.engines.fast import _dra_fast
from repro.engines.fast_cre import _cre_fast
from repro.engines.fast_dhc2 import _dhc2_fast
from repro.engines.results import RunResult
from repro.graphs.batch_gnp import GnpBatch

__all__ = ["_dra_fast_batch", "_cre_fast_batch",
           "_dhc2_fast_batch", "_turau_fast_batch",
           "_dra_fast_batch_one", "_cre_fast_batch_one",
           "_dhc2_fast_batch_one", "_turau_fast_batch_one",
           "auto_batch_size"]

#: Directed edge entries one batch may hold in total: the pair pool
#: keeps every trial's pairs at once.
_EDGE_BUDGET = 80_000_000


def auto_batch_size(n: int, p: float | None = None, *,
                    cap: int = 1024) -> int:
    """Largest sensible batch for same-n trials under the edge budget.

    Sizes one harness batch so its expected directed entries
    (``n * (n-1) * p`` per trial) fill, but do not exceed,
    :data:`_EDGE_BUDGET`: the pair pool holds every trial's pairs at
    once, so the budget bounds its memory.  Without a known
    density the complete graph is assumed.  Capped and floored at 1.
    """
    density = 1.0 if p is None else min(1.0, max(0.0, float(p)))
    per_trial = max(1.0, float(n) * max(1.0, (n - 1) * density))
    return int(max(1, min(cap, _EDGE_BUDGET / per_trial)))


def _per_trial(run, graphs, seeds, **kwargs) -> list[RunResult]:
    """``run`` (a per-trial ``fast`` runner) over every (graph, seed) pair.

    ``graphs`` is a list of graphs or a ``GnpBatch`` (whose trials
    are built one at a time from its pair pool, same n by
    construction); a list must hold same-n graphs.  Either way there
    must be exactly one seed per graph.
    """
    if not isinstance(graphs, GnpBatch):
        graphs = list(graphs)
        for i, g in enumerate(graphs):
            if g.n != graphs[0].n:
                raise ValueError(
                    f"fast-batch requires same-n graphs; graph 0 has "
                    f"n={graphs[0].n} but graph {i} has n={g.n}")
    seeds = list(seeds)
    if len(seeds) != len(graphs):
        raise ValueError(
            f"run_batch needs one seed per graph: {len(graphs)} graphs, "
            f"{len(seeds)} seeds")
    results = []
    for b, seed in enumerate(seeds):
        result = run(graphs[b], seed=seed, **kwargs)
        result.engine = "fast-batch"
        results.append(result)
    return results


def _dra_fast_batch(graphs, *, seeds, step_budget: int | None = None,
                    ) -> list[RunResult]:
    """Algorithm 1 over a batch: per-trial ``fast`` on every trial."""
    return _per_trial(_dra_fast, graphs, seeds, step_budget=step_budget)


def _dra_fast_batch_one(graph, *, seed: int = 0,
                        step_budget: int | None = None) -> RunResult:
    """Registry runner: a batch of one (``repro.run(..., engine="fast-batch")``)."""
    return _dra_fast_batch([graph], seeds=[seed], step_budget=step_budget)[0]


def _cre_fast_batch(graphs, *, seeds, step_budget: int | None = None,
                    ) -> list[RunResult]:
    """The CRE solver over a batch: per-trial ``fast`` on every trial."""
    return _per_trial(_cre_fast, graphs, seeds, step_budget=step_budget)


def _cre_fast_batch_one(graph, *, seed: int = 0,
                        step_budget: int | None = None) -> RunResult:
    """Registry runner: a batch of one (``repro.run(..., engine="fast-batch")``)."""
    return _cre_fast_batch([graph], seeds=[seed], step_budget=step_budget)[0]


def _dhc2_fast_batch(graphs, *, seeds, delta: float = 0.5,
                     k: int | None = None) -> list[RunResult]:
    """Algorithm 3 over a batch: per-trial ``fast`` on every trial."""
    return _per_trial(_dhc2_fast, graphs, seeds, delta=delta, k=k)


def _dhc2_fast_batch_one(graph, *, seed: int = 0, delta: float = 0.5,
                         k: int | None = None) -> RunResult:
    """Registry runner: a batch of one (``repro.run(..., engine="fast-batch")``)."""
    return _dhc2_fast_batch([graph], seeds=[seed], delta=delta, k=k)[0]


def _turau_fast_batch(graphs, *, seeds,
                      phase_budget: int | None = None) -> list[RunResult]:
    """Turau path merging over a batch: per-trial ``fast`` on every trial."""
    from repro.engines.fast_turau import _turau_fast

    return _per_trial(_turau_fast, graphs, seeds, phase_budget=phase_budget)


def _turau_fast_batch_one(graph, *, seed: int = 0,
                          phase_budget: int | None = None) -> RunResult:
    """Registry runner: a batch of one (``repro.run(..., engine="fast-batch")``)."""
    return _turau_fast_batch([graph], seeds=[seed],
                             phase_budget=phase_budget)[0]
