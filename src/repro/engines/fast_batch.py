"""The ``fast-batch`` engine: a batch of trials per engine call.

The registry derives one ``fast-batch`` entry from the ``fast`` entry
of each batched algorithm (DRA, CRE, DHC2 and Turau) and names its
runners ``_<algorithm>_fast_batch`` and ``_<algorithm>_fast_batch_one``
in this module; both are generated when first looked up.  A
``run_batch(graphs, seeds=...)`` call executes B independent same-n
trials — each with its own sampled graph and its own seed — and
returns one :class:`~repro.engines.results.RunResult` per trial that
is seed-for-seed identical to what ``engine="fast"`` would have
produced for that (graph, seed) pair.  The single-graph runner
(``*_one``, a batch of one) makes the same code reachable through the
ordinary :func:`repro.run` path, which is what the registry parity
gate exercises.

Every runner runs each trial on per-trial ``fast`` and tags the
result ``engine="fast-batch"``.  No batch-major kernel beat that on a
measured host: the numpy batch walks of DRA, DHC2, CRE and Turau each
lost to per-trial ``fast`` in time, and most in memory too.  What is
left of the batch is one engine call per group of trials: the sweep
harness hands over a :class:`~repro.graphs.batch_gnp.GnpBatch`, which
holds only the group's seeds, and each trial's
:class:`~repro.graphs.adjacency.Graph` is sampled as the trial runs.
:func:`auto_batch_size` sizes those groups.
"""

from __future__ import annotations

# Imported with this module (which ``repro.cli`` imports), so the sweep
# workers a CLI process forks inherit the fast engines instead of each
# importing them again.  Turau's is imported on its first call.
import repro.engines.fast  # noqa: F401
import repro.engines.fast_cre  # noqa: F401
import repro.engines.fast_dhc2  # noqa: F401
from repro.engines.results import RunResult
from repro.graphs.batch_gnp import GnpBatch

__all__ = ["auto_batch_size"]

#: Expected directed edge entries of one batch's trials together.  A
#: batch holds one graph at a time, so this no longer bounds memory;
#: it only sets how many trials share one engine call.
_EDGE_BUDGET = 80_000_000


def auto_batch_size(n: int, p: float | None = None, *,
                    cap: int = 1024) -> int:
    """Trials per batch for same-n trials under the edge budget.

    Sizes one harness batch so its expected directed entries
    (``n * (n-1) * p`` per trial) fill, but do not exceed,
    :data:`_EDGE_BUDGET`.  Without a known density the complete graph
    is assumed.  Capped and floored at 1.
    """
    density = 1.0 if p is None else min(1.0, max(0.0, float(p)))
    per_trial = max(1.0, float(n) * max(1.0, (n - 1) * density))
    return int(max(1, min(cap, _EDGE_BUDGET / per_trial)))


def _per_trial(run, graphs, seeds, **kwargs) -> list[RunResult]:
    """``run`` (a per-trial ``fast`` runner) over every (graph, seed) pair.

    ``graphs`` is a list of graphs or a ``GnpBatch`` (whose trials
    are sampled one at a time, same n by construction); a list must
    hold same-n graphs.  Either way there
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


def __getattr__(name: str):
    """The generated ``_<algorithm>_fast_batch`` runner or its ``_one`` form."""
    stem = name.removesuffix("_one")
    algorithm = stem.removeprefix("_").removesuffix("_fast_batch")
    from repro.engines.registry import REGISTRY

    if (f"_{algorithm}_fast_batch" != stem
            or (algorithm, "fast-batch") not in REGISTRY):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    fast = REGISTRY.get(algorithm, "fast")

    def run_batch(graphs, *, seeds, **kwargs) -> list[RunResult]:
        return _per_trial(fast.load(), graphs, seeds, **kwargs)

    def run_one(graph, *, seed: int = 0, **kwargs) -> RunResult:
        return run_batch([graph], seeds=[seed], **kwargs)[0]

    for runner, runner_name in ((run_batch, stem), (run_one, f"{stem}_one")):
        runner.__name__ = runner.__qualname__ = runner_name
        globals()[runner_name] = runner
    return globals()[name]
