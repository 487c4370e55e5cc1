"""The single-file JSONL backend (the historical ``TrialStore`` format).

Long sweeps (hours at large n) must survive interruption: every
completed trial is appended as one JSON line, and a rerun of the same
sweep skips trials whose (point, trial index) already appear.  JSONL
keeps the file append-only — a crash can at worst truncate the final
line, which :meth:`JsonlStore.load` tolerates by skipping it and
which the resumed sweep's first append cuts off.

The on-disk format is unchanged from the pre-backend ``TrialStore``:
one ``json.dumps(trial.to_json(), sort_keys=True)`` per line.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.harness.runner import Trial
from repro.harness.store.base import TrialStore, register_backend

__all__ = ["JsonlStore"]


@register_backend("jsonl")
class JsonlStore(TrialStore):
    """Append-only JSONL store of :class:`~repro.harness.runner.Trial`.

    Examples
    --------
    >>> import tempfile, os
    >>> tmp = tempfile.TemporaryDirectory()
    >>> store = JsonlStore(os.path.join(tmp.name, "trials.jsonl"))
    >>> store.append(Trial(point={"n": 8}, trial_index=0, seed=1,
    ...                    success=True, metrics={"rounds": 12.0}))
    >>> [t.metrics["rounds"] for t in store.load()]
    [12.0]
    >>> tmp.cleanup()
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._tail_checked = False

    def append(self, trial: Trial) -> None:
        """Append one trial (creates the file and parents on first use).

        This store's first append cuts off a torn final line left by a
        crash (:func:`drop_torn_tail`), so a resumed sweep's first
        record starts a line of its own.
        """
        if not self._tail_checked:
            drop_torn_tail(self.path)
            self._tail_checked = True
        append_record(self.path, trial)

    def metrics_path(self) -> Path:
        """Sidecar next to the store file: ``sweep.jsonl`` ->
        ``sweep.metrics.json`` (observability data about the sweep;
        never read by ``load``/resume)."""
        return self.path.with_name(self.path.stem + ".metrics.json")

    def load(self) -> list[Trial]:
        """All stored trials; a torn final line (crash) is skipped."""
        if not self.path.exists():
            return []
        with self.path.open("r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
        return parse_jsonl_lines([ln for ln in lines if ln])

    def clear(self) -> None:
        """Delete the store file (for tests and fresh sweeps)."""
        if self.path.exists():
            os.unlink(self.path)

    def __len__(self) -> int:
        """Record count without decoding any JSON.

        Counts complete (newline-terminated, non-blank) lines — O(file
        bytes) instead of the O(file) *JSON decode* a full ``load()``
        costs.  A torn tail line from a crash has no terminator and is
        excluded, matching what ``load()`` would return.
        """
        return count_complete_lines(self.path)


def append_record(path: Path, trial: Trial) -> None:
    """Append ``trial`` to the JSONL file at ``path`` in one write.

    The line is encoded once and written by one ``os.write`` on an
    ``O_APPEND`` descriptor that is closed again at once, so each
    record is as durable as a closed file and no descriptor outlives
    the call.  The parent directory is created only when the open
    finds it missing.  The file-backed stores' shared ``append``.
    """
    data = (json.dumps(trial.to_json(), sort_keys=True) + "\n").encode()
    flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        while data:  # a regular file takes it all in one write
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def drop_torn_tail(path: Path) -> None:
    """Cut the torn final line a crash left in the JSONL file at ``path``.

    :meth:`JsonlStore.load` skips such a line, but a record appended
    after it would join it into one undecodable line in mid-file.  The
    cut keeps every newline-terminated line; a missing file, or one
    that ends in a newline, is left as it is.
    """
    try:
        fh = path.open("r+b")
    except FileNotFoundError:
        return
    with fh:
        end = fh.seek(0, os.SEEK_END)
        if end:
            fh.seek(end - 1)
            if fh.read(1) == b"\n":
                return
        while end:
            start = max(0, end - 65536)
            fh.seek(start)
            at = fh.read(end - start).rfind(b"\n")
            if at >= 0:
                fh.truncate(start + at + 1)
                return
            end = start
        fh.truncate(0)


def count_complete_lines(path) -> int:
    """Complete (newline-terminated, non-blank) lines of a JSONL file.

    The cheap-``__len__`` primitive shared by the file-backed stores;
    0 for a nonexistent file.
    """
    if not path.exists():
        return 0
    count = 0
    with path.open("rb") as fh:
        for line in fh:
            if line.endswith(b"\n") and line.strip():
                count += 1
    return count


def parse_jsonl_lines(lines: list[str]) -> list[Trial]:
    """Decode stripped JSONL lines, tolerating only a torn final line."""
    out: list[Trial] = []
    for index, line in enumerate(lines):
        try:
            out.append(Trial.from_json(json.loads(line)))
        except (json.JSONDecodeError, KeyError, ValueError):
            if index == len(lines) - 1:
                break  # torn tail from a crash mid-append
            raise  # mid-file corruption is worth surfacing
    return out
