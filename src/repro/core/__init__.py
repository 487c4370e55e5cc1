"""The paper's algorithms (DRA, DHC1, DHC2, Upcast, the trivial
baseline) plus the absorbed related-work solvers (Turau path merging,
Alon–Krivelevich CRE)."""

from repro.core.cre import run_cre
from repro.core.dhc1 import Dhc1Protocol, default_sqrt_colors, run_dhc1
from repro.core.dhc2 import Dhc2Protocol, default_color_count, run_dhc2
from repro.core.dra import DraProtocol, run_dra
from repro.core.rotation import RotationWalk, VirtualEdge
from repro.core.turau import TurauProtocol, run_turau
from repro.core.upcast import UpcastProtocol, run_trivial, run_upcast, upcast_sample_size
from repro.engines.registry import REGISTRY
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph

__all__ = [
    "run_dra",
    "run_dhc1",
    "run_dhc2",
    "run_upcast",
    "run_trivial",
    "run_turau",
    "run_cre",
    "find_hamiltonian_cycle",
    "DraProtocol",
    "Dhc1Protocol",
    "Dhc2Protocol",
    "UpcastProtocol",
    "TurauProtocol",
    "RotationWalk",
    "VirtualEdge",
    "RunResult",
    "default_color_count",
    "default_sqrt_colors",
    "upcast_sample_size",
]

def find_hamiltonian_cycle(graph: Graph, *, algorithm: str = "dhc2",
                           seed: int = 0, **kwargs) -> RunResult:
    """Run ``algorithm`` on its reference engine.

    The reference is ``congest`` where one is registered, else
    ``sequential`` (``EngineRegistry.reference``): ``dra``, ``dhc1``,
    ``dhc2`` (default — the paper's general fully-distributed
    algorithm), ``upcast``, ``trivial`` and ``turau`` in the
    message-level simulator, ``cre`` as its scalar solver.  Extra
    keyword arguments flow to the runner; an unknown algorithm raises
    ``ValueError``.
    """
    runner = REGISTRY.reference(algorithm).load()
    return runner(graph, seed=seed, **kwargs)
