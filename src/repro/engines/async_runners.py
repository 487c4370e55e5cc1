"""Registry entry points for ``engine="async"``.

Each wrapper forces the run's :class:`~repro.congest.model.NetworkModel`
into ``mode="async"`` (building the default asynchronous substrate —
unit latency, no faults — when none is given) and delegates to the
algorithm's congest runner, which dispatches to
the async mode of :class:`~repro.congest.network.Network` via
:func:`~repro.congest.model.run_protocol`.  The wrappers exist so the
engine choice lives in the registry key: ``repro.run(g, "dra",
engine="async")`` never silently falls back to synchronous rounds, and
a sync-mode model passed to the async engine is upgraded rather than
rejected (the model's other fields — bandwidth, fault plan — carry
over unchanged).
"""

from __future__ import annotations

import json

from repro.congest.model import NetworkModel
from repro.core.dhc1 import run_dhc1
from repro.core.dhc2 import run_dhc2
from repro.core.dra import run_dra
from repro.core.turau import run_turau
from repro.engines.results import RunResult

__all__ = ["_dra_async", "_dhc1_async", "_dhc2_async", "_turau_async"]


def _as_async_model(network) -> NetworkModel:
    if network is None:
        return NetworkModel(mode="async")
    if isinstance(network, NetworkModel):
        return network.as_async()
    if isinstance(network, str):
        network = json.loads(network)
    if isinstance(network, dict):
        # Default the mode *before* construction: a latency or churn
        # field in a JSON document without an explicit mode would
        # otherwise be rejected by the sync-mode validator.
        network = {"mode": "async", **network}
    return NetworkModel.from_json(network).as_async()


def _dra_async(graph, *, seed: int = 0, network=None, **kwargs) -> RunResult:
    return run_dra(graph, seed=seed, network=_as_async_model(network), **kwargs)


def _dhc1_async(graph, *, seed: int = 0, network=None, **kwargs) -> RunResult:
    return run_dhc1(graph, seed=seed, network=_as_async_model(network), **kwargs)


def _dhc2_async(graph, *, seed: int = 0, network=None, **kwargs) -> RunResult:
    return run_dhc2(graph, seed=seed, network=_as_async_model(network), **kwargs)


def _turau_async(graph, *, seed: int = 0, network=None, **kwargs) -> RunResult:
    return run_turau(graph, seed=seed, network=_as_async_model(network), **kwargs)
