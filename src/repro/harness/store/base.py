"""The trial-store backend contract and canonical record ordering.

A *store backend* persists completed :class:`~repro.harness.runner.Trial`
records and replays them for resume.  The contract is append-only:
``append`` must be durable per record (a crash loses at most the record
being written), ``load`` must tolerate a torn final record per storage
unit, and ``clear`` resets the store for a fresh sweep.

Canonical order
---------------
Serial and parallel runs write one store in schedule order, but
sharded sweeps write to several files at once, so *file* order across
a sharded store is an execution detail.  The deterministic,
execution-independent order of a sweep's records is
:func:`canonical_order`: sorted by ``Trial.key()`` — ``(sorted point
items, trial_index)``.  For a grid whose points enumerate in ascending
axis order (the common case, e.g. ``--sizes 64,128,256``) this
coincides with grid order, so a serial or parallel run's JSONL file is
already canonical.

Backends register in :data:`STORE_BACKENDS` so the CLI's
``--store-backend`` choices and :func:`make_store` stay in sync with
the implementations without the CLI importing each one.

Metrics sidecar
---------------
A file-backed store can carry one *metrics sidecar* — the versioned
JSON payload of a :class:`~repro.harness.metrics.MetricsCollector` —
next to its trial records (``<store>.metrics.json``).  The sidecar is
observability data *about* a sweep, not part of the trial record
stream: ``load``/``merge``/resume never read it, and rewriting it
never perturbs canonical records.  Backends opt in by overriding
:meth:`TrialStore.metrics_path`; see ``docs/OBSERVABILITY.md`` for
the schema.
"""

from __future__ import annotations

import abc
import json
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.harness.runner import Trial

__all__ = ["TrialStore", "STORE_BACKENDS", "canonical_order", "make_store"]


def canonical_order(trials: Iterable["Trial"]) -> list["Trial"]:
    """Trials sorted into the deterministic cross-backend order.

    Sorting key is :meth:`Trial.key` — ``(sorted point items,
    trial_index)`` — so any job count/store/shard combination of the
    same sweep canonicalises to the same sequence.
    """
    return sorted(trials, key=lambda t: t.key())


class TrialStore(abc.ABC):
    """Abstract append-only store of :class:`~repro.harness.runner.Trial`.

    Concrete backends: :class:`~repro.harness.store.JsonlStore` (one
    JSONL file, the historical format), :class:`~repro.harness.store.
    ShardedStore` (one append-only shard file per writer under a
    directory), and :class:`~repro.harness.store.MemoryStore` (tests).
    """

    @abc.abstractmethod
    def append(self, trial: "Trial") -> None:
        """Durably record one completed trial."""

    @abc.abstractmethod
    def load(self) -> list["Trial"]:
        """All stored trials; a torn final record (crash) is skipped."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Delete the stored records (for tests and fresh sweeps)."""

    def load_canonical(self) -> list["Trial"]:
        """:meth:`load` re-ordered into :func:`canonical_order`."""
        return canonical_order(self.load())

    def metrics_path(self) -> "Path | None":
        """Where this store's metrics sidecar lives (``None`` = none).

        File-backed stores derive it from their own path
        (``sweep.jsonl`` -> ``sweep.metrics.json``); backends without
        durable storage return ``None`` and the sidecar methods become
        no-ops.
        """
        return None

    def write_metrics(self, payload: dict) -> "Path | None":
        """Write the metrics sidecar (overwriting), return its path.

        ``payload`` is a :meth:`~repro.harness.metrics.
        MetricsCollector.payload` dict (any JSON-safe mapping is
        accepted; the versioned schema is validated on *read*, where
        version skew can actually occur).  Returns ``None`` for
        backends without a sidecar location.
        """
        path = self.metrics_path()
        if path is None:
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path

    def load_metrics(self) -> dict | None:
        """The validated metrics sidecar payload, or ``None`` if absent."""
        from repro.harness.metrics import validate_metrics_payload

        path = self.metrics_path()
        if path is None or not path.exists():
            return None
        return validate_metrics_payload(
            json.loads(path.read_text(encoding="utf-8")))

    def __len__(self) -> int:
        return len(self.load())


#: ``--store-backend`` name -> factory taking the CLI ``--store`` path.
STORE_BACKENDS: dict[str, Callable[..., TrialStore]] = {}


def register_backend(name: str):
    """Class decorator adding a backend to :data:`STORE_BACKENDS`."""

    def decorate(cls):
        STORE_BACKENDS[name] = cls
        return cls

    return decorate


def make_store(backend: str, path, **kwargs) -> TrialStore:
    """Instantiate a registered backend by name (the CLI's entry)."""
    try:
        factory = STORE_BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown store backend {backend!r}; choose from "
            f"{sorted(STORE_BACKENDS)}") from None
    return factory(path, **kwargs)
