"""Registry entry points for ``engine="async"``.

The registry derives one ``async`` entry from each ``congest`` entry
that takes ``network`` and names its runner ``_<algorithm>_async`` in
this module.  Each runner is generated when first looked up: it forces
the run's :class:`~repro.congest.model.NetworkModel` into
``mode="async"`` (building the default asynchronous substrate — unit
latency, no faults — when none is given) and delegates to the
algorithm's congest runner, which dispatches to the async mode of
:class:`~repro.congest.network.Network` via
:func:`~repro.congest.model.run_protocol`.  The engine choice thus
lives in the registry key: ``repro.run(g, "dra", engine="async")``
never silently falls back to synchronous rounds, and a sync-mode model
passed to the async engine is upgraded rather than rejected (the
model's other fields — bandwidth, fault plan — carry over unchanged).
"""

from __future__ import annotations

from repro.congest.model import async_network_model
from repro.engines.results import RunResult


def __getattr__(name: str):
    """The generated ``_<algorithm>_async`` runner."""
    algorithm = name.removeprefix("_").removesuffix("_async")
    from repro.engines.registry import REGISTRY

    if f"_{algorithm}_async" != name or (algorithm, "async") not in REGISTRY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    congest = REGISTRY.get(algorithm, "congest").load()

    def runner(graph, *, seed: int = 0, network=None, **kwargs) -> RunResult:
        return congest(graph, seed=seed,
                       network=async_network_model(network).as_async(),
                       **kwargs)

    runner.__name__ = runner.__qualname__ = name
    globals()[name] = runner
    return runner
