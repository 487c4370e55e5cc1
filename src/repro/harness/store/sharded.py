"""Directory-of-shards backend: lock-free multi-writer persistence.

A :class:`ShardedStore` is a directory holding one append-only JSONL
shard file per writer — one per host in a ``--shard I/N`` sweep, or
one per runner otherwise.  Writers never touch each other's files, so
no locking is needed anywhere: every ``append`` goes to this store's
own shard, while ``load`` merges *all* shards in the directory.

The merge on ``load()`` is deterministic regardless of filesystem
enumeration order or interleaved completion order across hosts:
shards are read in sorted filename order, duplicate trial identities
are dropped (reruns are bit-identical by construction, so any copy is
authoritative), and the result is re-canonicalised with
:func:`~repro.harness.store.base.canonical_order`.  Each shard
tolerates its own torn tail line, so a crash on one host never
corrupts another host's records.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.harness.runner import Trial
from repro.harness.store.base import TrialStore, canonical_order, register_backend
from repro.harness.store.jsonl import (
    append_record,
    count_complete_lines,
    drop_torn_tail,
    parse_jsonl_lines,
)

__all__ = ["ShardedStore"]


@register_backend("sharded")
class ShardedStore(TrialStore):
    """One shard file per writer under ``directory``; merged on load.

    Parameters
    ----------
    directory:
        The store root.  Created on first append.
    shard:
        This writer's shard label; appends go to
        ``directory/shard-<label>.jsonl``.  Defaults to the process id,
        which is unique per concurrently-writing runner on one host;
        sharded sweeps pass their ``I of N`` label so reruns resume
        into the same file.
    """

    def __init__(self, directory: str | Path, shard: str | None = None):
        self.directory = Path(directory)
        self.shard = str(shard) if shard is not None else str(os.getpid())
        self.path = self.directory / f"shard-{self.shard}.jsonl"
        self._tail_checked = False

    def append(self, trial: Trial) -> None:
        """Append to this writer's own shard (no cross-writer locking).

        The first append cuts a crash's torn final line off the shard,
        as :meth:`JsonlStore.append` does.
        """
        if not self._tail_checked:
            drop_torn_tail(self.path)
            self._tail_checked = True
        append_record(self.path, trial)

    def metrics_path(self) -> Path:
        """Per-writer sidecar: ``shard-<label>.metrics.json``.

        Each writer observes only its own slice of the sweep, so —
        exactly like the trial records — sidecars are lock-free
        per-writer files.  (``shard_paths`` matches ``shard-*.jsonl``
        only, so sidecars never pollute the record merge.)
        """
        return self.directory / f"shard-{self.shard}.metrics.json"

    def shard_paths(self) -> list[Path]:
        """Every shard file present, in sorted (deterministic) order."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("shard-*.jsonl"))

    def load(self) -> list[Trial]:
        """Deterministic merge of every shard: dedup + canonical order."""
        merged: dict[tuple, Trial] = {}
        for path in self.shard_paths():
            with path.open("r", encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh]
            for trial in parse_jsonl_lines([ln for ln in lines if ln]):
                merged.setdefault(trial.key(), trial)
        return canonical_order(merged.values())

    def clear(self) -> None:
        """Delete every shard file (and the directory if then empty)."""
        for path in self.shard_paths():
            os.unlink(path)
        if self.directory.is_dir() and not any(self.directory.iterdir()):
            self.directory.rmdir()

    def __len__(self) -> int:
        """Complete-line count over all shards, no JSON decoded.

        Cross-shard duplicates (possible when overlapping slices were
        run) are counted per copy; ``load()`` is the deduplicating
        view.
        """
        return sum(count_complete_lines(path) for path in self.shard_paths())
