"""Bring a fresh interpreter to ready-to-run for one workload, then exit.

Usage: ``python3 perfbench/probe_setup.py ALGORITHM ENGINE batched|single``
with ``src`` on ``PYTHONPATH``.  The benchmark times whole runs of this
script: interpreter start, importing ``repro.cli``, registry resolution,
the engine's lazy imports, and for batched engines the first-call
self-checks of ``DrawPool`` and ``pooled_sampling_exact``.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    algorithm, engine, mode = argv
    import repro.cli  # noqa: F401  (the sweep entry point and its imports)
    from repro.engines.registry import REGISTRY

    spec = REGISTRY.resolve(algorithm, engine)
    spec.load()
    if mode == "batched":
        from repro.engines.batchwalk import DrawPool
        from repro.graphs.batch_gnp import pooled_sampling_exact

        spec.load_batch()
        pooled_sampling_exact()
        DrawPool([0], 3)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
