"""Execution engines: the registry, the engine contract, result types.

Six ways to execute the library's algorithms:

* the message-level CONGEST engine, ``congest`` (:mod:`repro.congest`)
  — every message simulated, every model rule enforced;
* ``async``, derived from ``congest`` — the same runner on an
  asynchronous network model (latency, loss, reordering, churn);
* the step-level fast engine, ``fast`` — identical algorithmic
  decisions and RNG streams, with rounds advanced by the
  deterministic schedule the CONGEST protocol follows.  Used for
  large-n scaling experiments; cross-validated by integration tests.
  It runs on the array-native CSR kernel
  (:mod:`repro.engines.arraywalk`); the pure-Python walker it replaced
  (the retired ``fast-py`` engine) lives outside the package, in
  ``tests/oracles.py``, as the parity suite's oracle;
* ``fast-batch``, derived from ``fast`` — the same runner per trial
  over a batch of trials;
* the native k-machine engine, ``kmachine`` — machine-level rounds
  over a random vertex partition;
* the sequential engine, ``sequential`` (:mod:`repro.sequential`) —
  centralized solvers used as oracles and comparators.

All of them are reached through one dispatch table,
:data:`repro.engines.registry.REGISTRY`, keyed by ``(algorithm,
engine)`` and exposed as :func:`repro.run`.  See
``docs/ARCHITECTURE.md`` for the layering and how to register a new
algorithm or engine.
"""

from repro.engines.api import ENGINE_PRIORITY, Engine, EngineSpec
from repro.engines.registry import REGISTRY, EngineRegistry, run
from repro.engines.results import RunResult

__all__ = [
    "RunResult",
    "Engine",
    "EngineSpec",
    "EngineRegistry",
    "REGISTRY",
    "ENGINE_PRIORITY",
    "run",
]
