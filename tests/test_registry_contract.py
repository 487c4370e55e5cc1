"""The contract every registered (algorithm, engine) pair obeys.

Success means a verified Hamiltonian cycle, failure carries no cycle,
and no input raises outside the declared
:class:`~repro.congest.errors.CongestError` family.  The inputs are the
degenerate graphs the engines special-case (n < 3, edgeless,
disconnected, complete) plus the seed forms the registry accepts.
"""

import numpy as np
import pytest

from repro.congest.errors import CongestError
from repro.engines.registry import REGISTRY
from repro.graphs import Graph
from repro.verify import is_hamiltonian_cycle

from tests.conftest import complete, path_graph, ring

GRAPHS = {
    "n0": Graph(0, []),
    "n1": Graph(1, []),
    "n2": Graph(2, [(0, 1)]),
    "triangle": ring(3),
    "edgeless5": Graph(5, []),
    "star6": Graph(6, [(0, v) for v in range(1, 6)]),
    "path6": path_graph(6),
    "two-triangles": Graph(6, [(0, 1), (1, 2), (0, 2),
                               (3, 4), (4, 5), (3, 5)]),
    "K6": complete(6),
    "C7": ring(7),
}
SEEDS = (0, np.int64(5), 2**40)


@pytest.mark.parametrize("spec", sorted(REGISTRY, key=lambda s: s.key),
                         ids=lambda s: f"{s.algorithm}-{s.engine}")
def test_contract_on_degenerate_inputs(spec):
    machines = (1, 40) if spec.engine == "kmachine" else (None,)
    for name, graph in GRAPHS.items():
        for seed in SEEDS:
            for k_machines in machines:
                kwargs = {} if k_machines is None else {"k_machines": k_machines}
                case = f"{name} seed={seed!r} {kwargs}"
                try:
                    result = spec.call(graph, seed=seed, **kwargs)
                except CongestError:
                    continue
                if result.success:
                    assert is_hamiltonian_cycle(graph, result.cycle), case
                else:
                    assert result.cycle is None, case


COLOUR_PAIRS = sorted((s for s in REGISTRY if s.algorithm in ("dhc1", "dhc2")),
                      key=lambda s: s.key)


@pytest.mark.parametrize("k", [0, -2])
@pytest.mark.parametrize("spec", COLOUR_PAIRS,
                         ids=lambda s: f"{s.algorithm}-{s.engine}")
def test_colour_count_below_one_is_rejected_by_name(spec, k):
    # Every DHC1/DHC2 engine resolves its colour count in one place, so
    # a k with no colour to draw fails the same way on all of them.
    with pytest.raises(ValueError, match=f"colour count k must be at least 1, got {k}"):
        spec.call(complete(6), seed=1, k=k)


def test_colour_count_below_one_is_rejected_by_the_batch_kernel(monkeypatch):
    from repro.engines import _jit
    from repro.engines.fast_batch import batch_kernel_active

    monkeypatch.setattr(_jit, "walk_kernel", _jit.walk_steps_impl)
    monkeypatch.setattr(_jit, "tree_kernel", _jit.tree_build_impl)
    assert batch_kernel_active("dhc2")
    spec = REGISTRY.get("dhc2", "fast-batch")
    with pytest.raises(ValueError, match="colour count k must be at least 1, got 0"):
        spec.call_batch([complete(6), complete(6)], seeds=[1, 2], k=0)
