"""Trial persistence backends.

The store layer separates *what* a sweep records (append-only
:class:`~repro.harness.runner.Trial` streams with resume) from *where*
the records live:

* :class:`JsonlStore` — one JSONL file, the historical format,
  unchanged on disk;
* :class:`ShardedStore` — one append-only shard file per writer/host
  under a directory, lock-free writes, deterministic merge on load;
* :class:`MemoryStore` — in-process, for tests.

``TrialStore`` is the abstract contract.  :func:`canonical_order` is
the deterministic cross-backend record order (see
:mod:`repro.harness.store.base`), and :func:`make_store` /
:data:`STORE_BACKENDS` map CLI backend names to implementations.
"""

from repro.harness.store.base import (
    STORE_BACKENDS,
    TrialStore,
    canonical_order,
    make_store,
)
from repro.harness.store.jsonl import JsonlStore
from repro.harness.store.memory import MemoryStore
from repro.harness.store.sharded import ShardedStore

__all__ = [
    "TrialStore",
    "JsonlStore",
    "ShardedStore",
    "MemoryStore",
    "STORE_BACKENDS",
    "canonical_order",
    "make_store",
]
