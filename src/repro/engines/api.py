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
#: step-level engine when it can honour the request, the batch engine
#: just below it (it runs each trial on ``fast``, so ``auto`` prefers
#: plain ``fast``; a sweep opts into ``fast-batch`` by name),
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
        executing many independent same-n trials in one call.
        Declaring one is the ``batched`` capability the
        harness dispatches on; results must be seed-for-seed identical
        to calling ``runner`` once per ``(graph, seed)`` pair.
    supported_kwargs:
        Keyword arguments (beyond ``graph`` and ``seed``) the runner
        accepts; anything else raises at dispatch time.
    parity:
        Result fields (``"cycle"``, ``"steps"``, ``"rounds"``)
        guaranteed seed-for-seed identical to the algorithm's
        *reference* engine — ``congest`` where one is registered,
        else ``sequential`` — on successful runs (failure paths may
        account partial work differently).  Empty for reference
        engines themselves and for engines with no reference
        counterpart; every non-empty declaration is enforced by
        ``tests/test_engine_parity.py``'s registry parity gate.
    priority:
        ``engine="auto"`` preference (higher wins); defaults to
        :data:`ENGINE_PRIORITY` for the standard engine names.
    summary:
        One line for ``repro engines`` style listings and docs.

    The capabilities ``kmachine_convertible``, ``audits_memory`` and
    ``async_capable`` are derived from ``engine`` and
    ``supported_kwargs`` (read-only properties below), so a spec cannot
    restate them inconsistently.
    """

    algorithm: str
    engine: str
    runner: Callable[..., RunResult] | str
    batch_runner: Callable[..., list[RunResult]] | str | None = None
    supported_kwargs: frozenset[str] = frozenset()
    parity: frozenset[str] = frozenset()
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
        """Whether this engine can execute many trials per call."""
        return self.batch_runner is not None

    @property
    def kmachine_convertible(self) -> bool:
        """Whether :mod:`repro.kmachine.simulation` may convert this run.

        True for the congest runners that take a ``network`` model: its
        ``network_hook`` reaches the synchronous simulator, the
        precondition for the Conversion Theorem machinery.
        """
        return self.engine == "congest" and "network" in self.supported_kwargs

    @property
    def audits_memory(self) -> bool:
        """Whether the runner can record per-node peak state (``audit_memory``)."""
        return "audit_memory" in self.supported_kwargs

    @property
    def async_capable(self) -> bool:
        """Whether the runner executes in the message core's async mode.

        An ``async`` engine runs on :class:`~repro.congest.network.Network`
        with a ``mode="async"`` model (latency, loss, reordering, churn).
        It carries a contract: at unit latency with no faults and no
        churn it must be seed-for-seed identical to the synchronous
        congest reference (``tests/test_async_engine.py``'s registry
        gate enforces it).
        """
        return self.engine == "async"

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

    def _check_kwargs(self, kwargs: dict[str, Any]) -> None:
        """Reject keywords the runner does not declare."""
        unsupported = sorted(set(kwargs) - self.supported_kwargs)
        if unsupported:
            raise TypeError(
                f"engine {self.engine!r} for algorithm {self.algorithm!r} "
                f"does not support: {', '.join(unsupported)} "
                f"(supported: {', '.join(sorted(self.supported_kwargs)) or 'none'})")

    def call(self, graph, *, seed: int = 0, **kwargs: Any) -> RunResult:
        """Execute, rejecting keywords the runner does not declare."""
        self._check_kwargs(kwargs)
        return self.load()(graph, seed=seed, **kwargs)

    def call_batch(self, graphs, *, seeds, **kwargs: Any) -> list[RunResult]:
        """Execute a batch of trials, validating keywords like :meth:`call`."""
        self._check_kwargs(kwargs)
        return self.load_batch()(graphs, seeds=seeds, **kwargs)
