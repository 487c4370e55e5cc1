"""The execution-layer contract: what it means to be an engine.

Every algorithm in this library can be executed by one or more
*engines* — interchangeable back ends that make different
fidelity/speed trade-offs while returning the same
:class:`~repro.engines.results.RunResult` shape:

``congest``
    The message-level simulator (:mod:`repro.congest`): every message
    materialised, every model rule enforced.  Ground truth, slow.
``fast``
    The step-level replay (:mod:`repro.engines.fast`): identical
    algorithmic decisions and RNG streams, rounds advanced by the
    deterministic schedule the CONGEST protocol follows.  Used for
    large-n sweeps.
``sequential``
    Plain centralized solvers (:mod:`repro.sequential`): no round
    accounting at all, useful as oracles and lower-bound comparators.

An :class:`EngineSpec` is one registered ``(algorithm, engine)`` pair
plus its declared capabilities — which keyword arguments the runner
accepts, whether the execution can be converted to the k-machine model,
whether it can audit per-node memory, and which result fields are
guaranteed seed-for-seed identical to the congest reference.  The
capabilities are what the layers above dispatch on: the CLI filters
flags through ``supported_kwargs``, ``engine="auto"`` resolution picks
the fastest engine that supports everything the caller asked for, and
:mod:`repro.kmachine.simulation` consults ``kmachine_convertible``
instead of an algorithm-name allowlist.

Runners are referenced by dotted path (``"module:attribute"``) and
imported on first call, so building a registry never drags in the whole
simulator substrate.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Protocol, runtime_checkable

from repro.engines.results import RunResult

__all__ = ["Engine", "EngineSpec", "ENGINE_PRIORITY"]

#: ``engine="auto"`` preference order (higher wins): the array-kernel
#: step-level engine when it can honour the request, the batch-major
#: kernel just below it (a single-trial ``repro.run`` call gains
#: nothing from batching, so ``auto`` prefers plain ``fast``; the
#: harness opts into ``fast-batch`` explicitly via ``batch_size``),
#: the message-level simulator when full CONGEST fidelity (or a
#: capability only it has, e.g. ``audit_memory`` / ``network``) is
#: needed, the native k-machine simulator when the caller asks for
#: machine-model accounting (``k_machines`` / ``link_words`` steer
#: onto it), and sequential solvers as a last resort.
ENGINE_PRIORITY = {"fast": 30, "fast-batch": 25, "congest": 20,
                   "async": 17, "kmachine": 15, "sequential": 10}


@runtime_checkable
class Engine(Protocol):
    """A callable that executes one algorithm on one graph."""

    def __call__(self, graph, *, seed: int = 0, **kwargs: Any) -> RunResult:
        ...


@dataclass(frozen=True)
class EngineSpec:
    """One registered ``(algorithm, engine)`` pair with capabilities.

    Attributes
    ----------
    algorithm / engine:
        The registry key, e.g. ``("dhc2", "fast")``.
    runner:
        The :class:`Engine` callable, or a lazy ``"module:attribute"``
        dotted path resolved on first use.
    batch_runner:
        Optional batched entry point ``run_batch(graphs, *, seeds,
        **kwargs) -> list[RunResult]`` (callable or dotted path)
        executing many independent same-n trials in shared kernel
        passes.  Declaring one is the ``batched`` capability the
        harness dispatches on; results must be seed-for-seed identical
        to calling ``runner`` once per ``(graph, seed)`` pair.
    supported_kwargs:
        Keyword arguments (beyond ``graph`` and ``seed``) the runner
        accepts; anything else raises at dispatch time.
    kmachine_convertible:
        True for fully-distributed CONGEST runners whose ``network``
        model's ``network_hook`` reaches the synchronous simulator —
        the precondition for the Conversion Theorem
        machinery in :mod:`repro.kmachine.simulation`.
    audits_memory:
        True when the runner can record per-node peak state
        (``audit_memory=True``).
    parity:
        Result fields (``"cycle"``, ``"steps"``, ``"rounds"``)
        guaranteed seed-for-seed identical to the algorithm's
        *reference* engine — ``congest`` where one is registered,
        else ``sequential`` — on successful runs (failure paths may
        account partial work differently).  Empty for reference
        engines themselves and for engines with no reference
        counterpart; every non-empty declaration is enforced by
        ``tests/test_engine_parity.py``'s registry parity gate.
    async_capable:
        True when the runner can execute on the asynchronous
        event-queue engine (:mod:`repro.congest.async_engine`) via a
        ``NetworkModel`` with ``mode="async"`` — latency
        distributions, message loss/reordering, churn.  Declaring it
        carries a contract: at unit latency with no faults and no
        churn the async execution must be seed-for-seed identical to
        the synchronous congest reference
        (``tests/test_async_engine.py``'s registry gate enforces it).
    jit:
        True when the runner dispatches through the optional compiled
        kernels in :mod:`repro.engines._jit` under ``REPRO_JIT=1``
        (results stay bitwise identical to the numpy path either way;
        purely informational — ``repro engines`` lists it).
    threads:
        True when the runner's compiled kernels have prange-over-lanes
        variants that ``REPRO_JIT_THREADS=N`` runs on N cores (implies
        ``jit``; results stay bitwise identical — see the threading
        section of :mod:`repro.engines._jit`).  The CLI's sweep
        parallelism rule consults it: an active threaded kernel makes
        auto-batching beat process fan-out.
    priority:
        ``engine="auto"`` preference (higher wins); defaults to
        :data:`ENGINE_PRIORITY` for the standard engine names.
    summary:
        One line for ``repro engines`` style listings and docs.
    """

    algorithm: str
    engine: str
    runner: Callable[..., RunResult] | str
    batch_runner: Callable[..., list[RunResult]] | str | None = None
    supported_kwargs: frozenset[str] = frozenset()
    kmachine_convertible: bool = False
    audits_memory: bool = False
    parity: frozenset[str] = frozenset()
    async_capable: bool = False
    jit: bool = False
    threads: bool = False
    priority: int = field(default=-1)
    summary: str = ""

    def __post_init__(self):
        if not isinstance(self.supported_kwargs, frozenset):
            object.__setattr__(
                self, "supported_kwargs", frozenset(self.supported_kwargs))
        if not isinstance(self.parity, frozenset):
            object.__setattr__(self, "parity", frozenset(self.parity))
        if self.priority < 0:
            object.__setattr__(
                self, "priority", ENGINE_PRIORITY.get(self.engine, 0))

    @property
    def key(self) -> tuple[str, str]:
        return (self.algorithm, self.engine)

    @property
    def batched(self) -> bool:
        """Whether this engine can execute many trials per kernel pass."""
        return self.batch_runner is not None

    @staticmethod
    def _import(path: str) -> Callable:
        module_name, _, attr = path.partition(":")
        if not attr:
            raise ValueError(
                f"runner path {path!r} must look like 'module:attribute'")
        return getattr(importlib.import_module(module_name), attr)

    def load(self) -> Callable[..., RunResult]:
        """The runner callable, importing it if registered by path."""
        if callable(self.runner):
            return self.runner
        runner = self._import(self.runner)
        object.__setattr__(self, "runner", runner)  # cache the import
        return runner

    def load_batch(self) -> Callable[..., list[RunResult]]:
        """The batch runner callable, importing it if registered by path."""
        if self.batch_runner is None:
            raise ValueError(
                f"engine {self.engine!r} for algorithm {self.algorithm!r} "
                f"has no batch runner (spec.batched is False)")
        if callable(self.batch_runner):
            return self.batch_runner
        runner = self._import(self.batch_runner)
        object.__setattr__(self, "batch_runner", runner)
        return runner

    def supports(self, names) -> bool:
        """Whether every keyword in ``names`` is accepted."""
        return self.supported_kwargs.issuperset(names)

    def filter_kwargs(self, kwargs: Mapping[str, Any]) -> dict[str, Any]:
        """The subset of ``kwargs`` this runner accepts (soft dispatch)."""
        return {k: v for k, v in kwargs.items() if k in self.supported_kwargs}

    def call(self, graph, *, seed: int = 0, **kwargs: Any) -> RunResult:
        """Execute, rejecting keywords the runner does not declare."""
        unsupported = sorted(set(kwargs) - self.supported_kwargs)
        if unsupported:
            raise TypeError(
                f"engine {self.engine!r} for algorithm {self.algorithm!r} "
                f"does not support: {', '.join(unsupported)} "
                f"(supported: {', '.join(sorted(self.supported_kwargs)) or 'none'})")
        return self.load()(graph, seed=seed, **kwargs)

    def call_batch(self, graphs, *, seeds, **kwargs: Any) -> list[RunResult]:
        """Execute a batch of trials, validating keywords like :meth:`call`."""
        unsupported = sorted(set(kwargs) - self.supported_kwargs)
        if unsupported:
            raise TypeError(
                f"engine {self.engine!r} for algorithm {self.algorithm!r} "
                f"does not support: {', '.join(unsupported)} "
                f"(supported: {', '.join(sorted(self.supported_kwargs)) or 'none'})")
        return self.load_batch()(graphs, seeds=seeds, **kwargs)
