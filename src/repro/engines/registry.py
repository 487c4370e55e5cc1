"""The unified algorithm x engine registry and ``repro.run``.

One table maps every ``(algorithm, engine)`` pair to its runner with
declared capabilities (see :mod:`repro.engines.api`).  Everything above
the execution layer — the CLI, the k-machine conversion, the harness,
the benchmarks and examples — dispatches through this table, so adding
an algorithm or engine is one :meth:`EngineRegistry.register` call
instead of a dozen call-site edits.

>>> import repro
>>> g = repro.gnp_random_graph(64, 0.5, seed=1)
>>> repro.run(g, "dra", engine="fast", seed=1).success
True

``engine="auto"`` picks the highest-priority engine that supports every
requested keyword: a plain run lands on the step-level fast engine when
one exists, while e.g. ``audit_memory=True`` steers the same call onto
the message-level congest simulator (the only engine that can audit).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.engines.api import EngineSpec
from repro.engines.results import RunResult

__all__ = ["EngineRegistry", "REGISTRY", "run"]

#: Keywords shared by the fully-distributed congest and async front
#: ends.  ``network`` is the whole substrate description (a
#: :class:`~repro.congest.model.NetworkModel` or its JSON form) —
#: bandwidth, fault plan, latency, churn in one object — so sweeps mix
#: fault scenarios without importing ``repro.congest.faults`` at call
#: sites (and ``engine="auto"`` steers such runs onto the simulator,
#: the only engine that can inject).
_CONGEST_COMMON = ("max_rounds", "audit_memory", "network")

#: Keywords shared by the native k-machine engine entries: machine
#: count, per-link word budget (the model's ``W``), and an RVP stream
#: override (defaults to the run seed — the converted path's
#: convention, so both engines draw the identical partition).
_KMACHINE_COMMON = ("k_machines", "link_words", "partition_seed")


def _builtin_specs() -> list[EngineSpec]:
    """The library's shipped algorithms, referenced lazily by path."""
    return [
        # -- the paper's fully-distributed algorithms --------------------------
        EngineSpec("dra", "congest", "repro.core:run_dra",
                   supported_kwargs=("step_budget", *_CONGEST_COMMON),
                   summary="Algorithm 1 in the message-level simulator"),
        EngineSpec("dra", "async", "repro.engines.async_runners:_dra_async",
                   supported_kwargs=("step_budget", *_CONGEST_COMMON),
                   summary="Algorithm 1 on the asynchronous event-queue "
                           "engine (latency, loss, reordering, churn)"),
        EngineSpec("dra", "fast", "repro.engines.fast:_dra_fast",
                   supported_kwargs=("step_budget",),
                   parity=("cycle", "steps", "rounds"),
                   summary="Algorithm 1, step-level replay on the array kernel"),
        EngineSpec("dra", "fast-batch",
                   "repro.engines.fast_batch:_dra_fast_batch_one",
                   batch_runner="repro.engines.fast_batch:_dra_fast_batch",
                   supported_kwargs=("step_budget",),
                   parity=("cycle", "steps", "rounds"),
                   summary="Algorithm 1, per-trial fast on each trial of "
                           "the batch"),
        EngineSpec("dra", "kmachine", "repro.engines.kmachine_engine:_dra_kmachine",
                   supported_kwargs=("step_budget", "k", *_KMACHINE_COMMON),
                   parity=("cycle", "steps", "rounds"),
                   summary="Algorithm 1 on the native k-machine engine "
                           "(k is an alias for k_machines here)"),
        EngineSpec("dhc1", "congest", "repro.core:run_dhc1",
                   supported_kwargs=("k", *_CONGEST_COMMON),
                   summary="Algorithm 2 in the message-level simulator"),
        EngineSpec("dhc1", "async", "repro.engines.async_runners:_dhc1_async",
                   supported_kwargs=("k", *_CONGEST_COMMON),
                   summary="Algorithm 2 on the asynchronous event-queue "
                           "engine"),
        EngineSpec("dhc1", "kmachine", "repro.engines.kmachine_dhc1:_dhc1_kmachine",
                   supported_kwargs=("k", *_KMACHINE_COMMON),
                   parity=("cycle", "steps"),
                   summary="Algorithm 2 on the native k-machine engine "
                           "(first step-level DHC1 replay)"),
        EngineSpec("dhc2", "congest", "repro.core:run_dhc2",
                   supported_kwargs=("delta", "k", *_CONGEST_COMMON),
                   summary="Algorithm 3 in the message-level simulator"),
        EngineSpec("dhc2", "async", "repro.engines.async_runners:_dhc2_async",
                   supported_kwargs=("delta", "k", *_CONGEST_COMMON),
                   summary="Algorithm 3 on the asynchronous event-queue "
                           "engine"),
        EngineSpec("dhc2", "fast", "repro.engines.fast_dhc2:_dhc2_fast",
                   supported_kwargs=("delta", "k"),
                   parity=("cycle", "steps"),
                   summary="Algorithm 3, step-level replay on the array kernel"),
        EngineSpec("dhc2", "fast-batch",
                   "repro.engines.fast_batch:_dhc2_fast_batch_one",
                   batch_runner="repro.engines.fast_batch:_dhc2_fast_batch",
                   supported_kwargs=("delta", "k"),
                   parity=("cycle", "steps"),
                   summary="Algorithm 3, per-trial fast on each trial of "
                           "the batch"),
        EngineSpec("dhc2", "kmachine", "repro.engines.kmachine_engine:_dhc2_kmachine",
                   supported_kwargs=("delta", "k", *_KMACHINE_COMMON),
                   parity=("cycle", "steps"),
                   summary="Algorithm 3 on the native k-machine engine"),
        # The pure-Python walkers that preceded the array kernel served
        # one release as registered "fast-py" engines; they now live in
        # tests/oracles.py as the parity suite's oracles and are no
        # longer dispatch targets.
        # -- related-work algorithms (ROADMAP: absorbed as registry entries) ----
        EngineSpec("turau", "congest", "repro.core.turau:run_turau",
                   supported_kwargs=("phase_budget", *_CONGEST_COMMON),
                   summary="Turau path merging (arXiv:1805.06728) in the "
                           "message-level simulator"),
        EngineSpec("turau", "async", "repro.engines.async_runners:_turau_async",
                   supported_kwargs=("phase_budget", *_CONGEST_COMMON),
                   summary="Turau path merging on the asynchronous "
                           "event-queue engine"),
        EngineSpec("turau", "fast", "repro.engines.fast_turau:_turau_fast",
                   supported_kwargs=("phase_budget",),
                   parity=("cycle", "steps"),
                   summary="Turau path merging replayed on link arrays"),
        EngineSpec("turau", "fast-batch",
                   "repro.engines.fast_batch:_turau_fast_batch_one",
                   batch_runner="repro.engines.fast_batch:_turau_fast_batch",
                   supported_kwargs=("phase_budget",),
                   parity=("cycle", "steps"),
                   summary="Turau path merging, per-trial fast on each "
                           "trial of the batch"),
        EngineSpec("turau", "kmachine", "repro.engines.kmachine_engine:_turau_kmachine",
                   supported_kwargs=("phase_budget", *_KMACHINE_COMMON),
                   parity=("cycle", "steps"),
                   summary="Turau path merging on the native k-machine engine"),
        EngineSpec("cre", "sequential", "repro.core.cre:run_cre",
                   supported_kwargs=("step_budget",),
                   summary="Alon-Krivelevich CRE solver (arXiv:1903.03007), "
                           "scalar reference"),
        EngineSpec("cre", "fast", "repro.engines.fast_cre:_cre_fast",
                   supported_kwargs=("step_budget",),
                   parity=("cycle", "steps"),
                   summary="Alon-Krivelevich CRE solver on CSR position "
                           "arrays"),
        EngineSpec("cre", "fast-batch",
                   "repro.engines.fast_batch:_cre_fast_batch_one",
                   batch_runner="repro.engines.fast_batch:_cre_fast_batch",
                   supported_kwargs=("step_budget",),
                   parity=("cycle", "steps"),
                   summary="Alon-Krivelevich CRE solver, per-trial fast on "
                           "each trial of the batch"),
        # -- the paper's centralized algorithms --------------------------------
        EngineSpec("upcast", "congest", "repro.core:run_upcast",
                   supported_kwargs=("c_prime", "solver_restarts",
                                     "max_rounds", "audit_memory"),
                   summary="Section III-A sampling upcast"),
        EngineSpec("trivial", "congest", "repro.core:run_trivial",
                   supported_kwargs=("solver_restarts", "max_rounds",
                                     "audit_memory"),
                   summary="collect-everything O(m) baseline"),
        # -- distributed baselines ---------------------------------------------
        EngineSpec("levy", "fast", "repro.baselines:run_levy",
                   supported_kwargs=("seeds_count", "patch_attempts"),
                   summary="Levy-Louchard-Petit [18] reconstruction"),
        EngineSpec("local", "fast", "repro.baselines:run_local_collect",
                   supported_kwargs=("restarts",),
                   summary="LOCAL-model topology collection (footnote 6)"),
        # -- sequential solvers ------------------------------------------------
        EngineSpec("posa", "sequential", "repro.sequential.runners:run_posa",
                   supported_kwargs=("restarts", "step_budget"),
                   summary="Posa rotation-extension with restarts"),
        EngineSpec("angluin-valiant", "sequential",
                   "repro.sequential.runners:run_angluin_valiant",
                   supported_kwargs=("step_budget",),
                   summary="classical O(n log^2 n) sequential walk"),
    ]


class EngineRegistry:
    """Mutable mapping ``(algorithm, engine) -> EngineSpec``.

    The module-level :data:`REGISTRY` holds the shipped algorithms;
    downstream code registers its own entries (or builds a private
    registry) to plug new algorithms into the CLI, harness, and
    k-machine conversion without touching them.
    """

    def __init__(self, specs: Iterable[EngineSpec] = ()):
        self._specs: dict[tuple[str, str], EngineSpec] = {}
        for spec in specs:
            self.register(spec)

    @classmethod
    def with_builtins(cls) -> "EngineRegistry":
        return cls(_builtin_specs())

    # -- registration ----------------------------------------------------------

    def register(self, spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
        """Add one spec; re-registering a key needs ``replace=True``."""
        if spec.key in self._specs and not replace:
            raise ValueError(
                f"{spec.key} already registered; pass replace=True to override")
        self._specs[spec.key] = spec
        return spec

    # -- lookup ----------------------------------------------------------------

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def get(self, algorithm: str, engine: str) -> EngineSpec:
        """The exact ``(algorithm, engine)`` spec, or ``ValueError``."""
        try:
            return self._specs[(algorithm, engine)]
        except KeyError:
            if not self.engines_for(algorithm):
                raise ValueError(
                    f"unknown algorithm {algorithm!r}; choose from "
                    f"{self.algorithms()}") from None
            raise ValueError(
                f"algorithm {algorithm!r} has no {engine!r} engine; "
                f"available: {sorted(self.engines_for(algorithm))}") from None

    def algorithms(self) -> list[str]:
        """All registered algorithm names, sorted."""
        return sorted({a for a, _ in self._specs})

    def engines_for(self, algorithm: str) -> dict[str, EngineSpec]:
        """``engine name -> spec`` for one algorithm."""
        return {e: s for (a, e), s in self._specs.items() if a == algorithm}

    def engine_names(self) -> list[str]:
        """All registered engine names, sorted."""
        return sorted({e for _, e in self._specs})

    def resolve(self, algorithm: str, engine: str = "auto",
                require: Iterable[str] = ()) -> EngineSpec:
        """Pick the spec for ``algorithm``.

        With an explicit ``engine`` this is :meth:`get` (the ``require``
        check still applies, so capability errors surface here rather
        than deep in a runner).  With ``engine="auto"`` the
        highest-priority engine whose ``supported_kwargs`` cover
        ``require`` wins.
        """
        need = frozenset(require)
        if engine != "auto":
            spec = self.get(algorithm, engine)
            missing = sorted(need - spec.supported_kwargs)
            if missing:
                raise ValueError(
                    f"engine {engine!r} for algorithm {algorithm!r} does not "
                    f"support: {', '.join(missing)}")
            return spec
        candidates = self.engines_for(algorithm)
        if not candidates:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{self.algorithms()}")
        usable = [s for s in candidates.values() if s.supports(need)]
        if not usable:
            raise ValueError(
                f"no engine for algorithm {algorithm!r} supports "
                f"{sorted(need)}; available: "
                + "; ".join(f"{e}: {sorted(s.supported_kwargs)}"
                            for e, s in sorted(candidates.items())))
        return max(usable, key=lambda s: (s.priority, s.engine))

    def convertible_algorithms(self) -> list[str]:
        """Algorithms whose congest runner admits k-machine conversion."""
        return sorted(s.algorithm for s in self._specs.values()
                      if s.kmachine_convertible)


#: The default registry holding the library's shipped algorithms.
REGISTRY = EngineRegistry.with_builtins()


def run(graph, algorithm: str = "dhc2", engine: str = "auto", *,
        seed: int = 0, registry: EngineRegistry | None = None,
        **kwargs: Any) -> RunResult:
    """Run ``algorithm`` on ``graph`` — the library's one entry point.

    Parameters
    ----------
    graph:
        A :class:`~repro.graphs.adjacency.Graph`.
    algorithm:
        A registered algorithm name (``repro.REGISTRY.algorithms()``).
    engine:
        ``"auto"`` (default — fastest engine that supports the given
        keywords), or an explicit engine name such as ``"congest"``,
        ``"fast"``, or ``"sequential"``.
    seed:
        Master seed for the run's RNG streams.
    registry:
        Dispatch table override (defaults to :data:`REGISTRY`).
    **kwargs:
        Runner options, validated against the chosen spec's declared
        ``supported_kwargs`` — e.g. ``delta=0.5``, ``k=8``,
        ``audit_memory=True``.
    """
    table = REGISTRY if registry is None else registry
    spec = table.resolve(algorithm, engine, require=kwargs)
    return spec.call(graph, seed=seed, **kwargs)
