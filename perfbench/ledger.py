"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions and methods at each layer
boundary of the ``repro sweep`` path (module globals everywhere they
were imported, class attributes for methods) and aggregates spans in
memory as they close: per span name the call count, total duration
and *self time* — the duration minus the part covered by child spans.
Nothing under ``src/repro`` is edited; :meth:`Tracer.uninstall`
restores every patched attribute.

Worker processes forked by ``--jobs`` inherit the patches.  Their span
totals cannot return through the harness, so the benchmark's trial
wrapper calls :meth:`Tracer.flush` after each trial: in a worker that
appends the totals gathered since the last flush to a per-process file
that :meth:`Tracer.collect` folds back in the parent.

:func:`layer_metrics` turns the totals of one traced sweep into the
benchmark's per-layer metrics.  A layer whose work runs inside a call
that cannot be wrapped from outside is reported as its parent span's
self time and labelled ``residual``; a layer the workload never enters
reads 0 and is labelled ``n/a``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import weakref
from pathlib import Path
from typing import Any, Callable

__all__ = ["Tracer", "LAYER_METRICS", "layer_metrics", "patch", "unpatch"]

#: Per-layer metric name -> unit.  BENCHMARK.json's ``per_layer`` list.
LAYER_METRICS: dict[str, str] = {
    "graphs.gen_s": "s",
    "graphs.csr_s": "s",
    "graphs.edges": "count",
    "engines.call_s": "s",
    "engines.walk_s": "s",
    "engines.tree_s": "s",
    "engines.setup_s": "s",
    "engines.merge_s": "s",
    "engines.steps": "count",
    "engines.us_per_step": "us/step",
    "engines.wasted_step_fraction": "fraction",
    "engines.lanes_per_pass": "lanes/pass",
    "congest.run_s": "s",
    "congest.dispatch_s": "s",
    "congest.messages": "count",
    "congest.bits": "count",
    "congest.rounds": "count",
    "congest.us_per_message": "us/message",
    "verify.s": "s",
    "verify.calls": "count",
    "verify.us_per_edge": "us/edge",
    "harness.overhead_s": "s",
    "harness.store_append_s": "s",
    "harness.store_bytes": "bytes",
    "harness.metrics_s": "s",
    "harness.worker_busy_fraction": "fraction",
    "trace.overhead_fraction": "fraction",
}


def _edges_of_graph(args, result) -> dict[str, int]:
    return {"graphs.edges": int(result.m)}


def _edges_of_batch(args, result) -> dict[str, int]:
    return {"graphs.edges": int(result.edge_counts.sum())}


def _cycle_edges(args, result) -> dict[str, int]:
    return {"verify.edges": len(args[1])}


def _array_walk_steps(args, result) -> dict[str, int]:
    return {"walk.steps": int(args[0].steps), "walk.lanes": 1,
            "walk.passes": 1}


def _batch_walk_steps(args, result) -> dict[str, int]:
    steps = args[0].steps
    return {"walk.steps": int(steps.sum()),
            "walk.lanes": int((steps > 0).sum()), "walk.passes": 1}


#: Module-level functions: (module, attribute, span, counter).  Each is
#: replaced in every loaded ``repro`` module that bound it at import.
_FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.graphs.gnp", "gnp_random_graph", "graphs.gen", _edges_of_graph),
    ("repro.graphs.batch_gnp", "batch_gnp", "graphs.gen", _edges_of_batch),
    ("repro.engines.arraywalk", "build_array_tree", "engines.tree", None),
    ("repro.engines.batchwalk", "build_batch_tree", "engines.tree", None),
    ("repro.engines.fast_dhc2", "_phase2", "engines.merge", None),
    ("repro.verify.hamiltonicity", "verify_cycle", "verify", _cycle_edges),
)

#: Methods: (module, class, attribute, span, counter).
_METHODS: tuple[tuple[str, str, str, str, Callable | None], ...] = (
    ("repro.graphs.adjacency", "Graph", "from_sorted_pairs", "graphs.csr", None),
    ("repro.graphs.batch_gnp", "GnpBatch", "stacked", "graphs.csr", None),
    ("repro.engines.api", "EngineSpec", "call", "engines.call", None),
    ("repro.engines.api", "EngineSpec", "call_batch", "engines.call", None),
    ("repro.engines.arraywalk", "ArrayWalk", "run", "engines.walk",
     _array_walk_steps),
    ("repro.engines.batchwalk", "BatchWalk", "run", "engines.walk",
     _batch_walk_steps),
    ("repro.engines.arraywalk", "ArrayTree", "completion_round",
     "engines.tree", None),
    ("repro.engines.arraywalk", "ArrayTree", "eccentricity", "engines.tree",
     None),
    ("repro.engines.batchwalk", "BatchTree", "completion_times",
     "engines.tree", None),
    ("repro.engines.batchwalk", "BatchTree", "eccentricities", "engines.tree",
     None),
    ("repro.congest.network", "Network", "run", "congest.run", None),
    ("repro.primitives.submachine", "SubMachineHost", "dispatch",
     "congest.dispatch", None),
)


class Tracer:
    """In-memory span aggregation plus the patches that feed it."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.owner = os.getpid()
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[Any, str, Any]] = []
        # A forked worker starts with a copy of the parent's totals;
        # drop them so each span is counted in one process only.
        os.register_at_fork(after_in_child=functools.partial(
            _forget_inherited, weakref.ref(self)))

    # -- spans ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             count: Callable | None = None) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        spans, counts, stack = self.spans, self.counts, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                slot = spans.get(name)
                if slot is None:
                    slot = spans[name] = [0, 0.0, 0.0]
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - frame[0]
            if count is not None:
                for key, value in count(args, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def reset(self) -> None:
        """Drop every total (in place: the wrappers hold references)."""
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    # -- patches ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary (call after the warm-up sweep, so
        lazily imported modules and their bindings exist)."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._undo = patch(
            [(module, attr, functools.partial(self.wrap, name=span,
                                              count=count))
             for module, attr, span, count in _FUNCTIONS],
            [(module, cls, attr, functools.partial(self.wrap, name=span,
                                                   count=count))
             for module, cls, attr, span, count in _METHODS])

    def wrap_instance(self, obj: Any, methods, name: str) -> None:
        """Record ``name`` spans around bound methods of one object."""
        for attr in methods:
            bound = getattr(obj, attr)
            self._undo.append((obj, attr, None))
            setattr(obj, attr, self.wrap(bound, name))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        unpatch(self._undo)

    # -- worker hand-off --------------------------------------------------

    def flush(self) -> None:
        """In a worker process, move the totals so far to its span file."""
        if os.getpid() == self.owner or not (self.spans or self.counts):
            return
        line = json.dumps({"spans": self.spans, "counts": self.counts})
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, (line + "\n").encode())
        finally:
            os.close(fd)
        self.reset()

    def collect(self) -> tuple[dict[str, list], dict[str, int]]:
        """This process's totals plus every worker file, then reset all."""
        spans = {k: list(v) for k, v in self.spans.items()}
        counts = dict(self.counts)
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                data = json.loads(line)
                for name, (calls, total, own) in data["spans"].items():
                    slot = spans.setdefault(name, [0, 0.0, 0.0])
                    slot[0] += calls
                    slot[1] += total
                    slot[2] += own
                for key, value in data["counts"].items():
                    counts[key] = counts.get(key, 0) + value
            path.unlink()
        self.reset()
        return spans, counts


def patch(functions, methods, *, strict: bool = True
          ) -> list[tuple[Any, str, Any]]:
    """Wrap program functions and methods from outside; return the undo list.

    ``functions`` holds ``(module, attribute, make)``: the function is
    replaced by ``make(original)`` in every loaded ``repro`` module that
    bound it at import.  ``methods`` holds ``(module, class, attribute,
    make)``: the class attribute is replaced (a classmethod stays one).
    With ``strict`` False a target the program no longer has is skipped.
    """
    undo: list[tuple[Any, str, Any]] = []

    def put(owner: Any, attr: str, value: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def find(module_name: str, *path: str) -> Any:
        try:
            found = importlib.import_module(module_name)
            for attr in path:
                found = (found.__dict__[attr] if isinstance(found, type)
                         else getattr(found, attr))
            return found
        except (ImportError, AttributeError, KeyError):
            if strict:
                raise
            return None

    loaded = [mod for name, mod in list(sys.modules.items())
              if mod is not None and (name == "repro"
                                      or name.startswith("repro."))]
    for module_name, attr, make in functions:
        original = find(module_name, attr)
        if original is None:
            continue
        wrapped = make(original)
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    put(module, key, wrapped)
    for module_name, cls_name, attr, make in methods:
        original = find(module_name, cls_name, attr)
        if original is None:
            continue
        cls = find(module_name, cls_name)
        if isinstance(original, classmethod):
            put(cls, attr, classmethod(make(original.__func__)))
        else:
            put(cls, attr, make(original))
    return undo


def unpatch(undo: list[tuple[Any, str, Any]]) -> None:
    """Restore what :func:`patch` (or an instance wrap) replaced, newest first."""
    while undo:
        owner, attr, original = undo.pop()
        if original is None:
            delattr(owner, attr)  # instance shadow over the class method
        else:
            setattr(owner, attr, original)


def _forget_inherited(ref: "weakref.ref[Tracer]") -> None:
    tracer = ref()
    if tracer is not None:
        tracer.reset()


def layer_metrics(spans: dict[str, list], counts: dict[str, int],
                  records: list, *, harness: dict[str, float],
                  store_bytes: int, overhead_fraction: float
                  ) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced sweep, with a label per metric.

    ``records`` are the sweep's trial records (canonical fields are
    enough); ``harness`` carries ``overhead_s`` and
    ``worker_busy_fraction`` measured on the untraced sweeps.  Labels:
    ``measured`` (span or count at a wrapped boundary), ``records``
    (summed from the program's own trial records), ``residual`` (a
    parent span's self time standing in for an unwrappable call) and
    ``n/a`` (the workload never enters that layer).
    """
    def total(name: str) -> float:
        return spans[name][1] if name in spans else 0.0

    def own(name: str) -> float:
        return spans[name][2] if name in spans else 0.0

    def calls(name: str) -> int:
        return spans[name][0] if name in spans else 0

    values: dict[str, float] = {}
    labels: dict[str, str] = {}

    def put(key: str, value: float, label: str) -> None:
        values[key] = float(value)
        labels[key] = label

    def seen(name: str) -> str:
        return "measured" if name in spans else "n/a"

    def from_records(field: str) -> float:
        return sum(float(t.metrics.get(field, 0.0)) for t in records)

    put("graphs.gen_s", own("graphs.gen"), seen("graphs.gen"))
    put("graphs.csr_s", total("graphs.csr"), seen("graphs.csr"))
    put("graphs.edges", counts.get("graphs.edges", 0), seen("graphs.gen"))

    put("engines.call_s", total("engines.call"), seen("engines.call"))
    walked = "engines.walk" in spans
    congest = "congest.run" in spans
    if walked or congest:
        put("engines.walk_s", total("engines.walk"), seen("engines.walk"))
        put("engines.setup_s", own("engines.call"), "residual")
    else:  # CRE: the walk is inline in the engine call
        put("engines.walk_s", own("engines.call"), "residual")
        put("engines.setup_s", 0.0, "n/a")
    put("engines.tree_s", total("engines.tree"), seen("engines.tree"))
    put("engines.merge_s", own("engines.merge"), seen("engines.merge"))

    record_steps = from_records("steps")
    if walked:
        steps = counts.get("walk.steps", 0)
        put("engines.steps", steps, "measured")
        put("engines.lanes_per_pass",
            counts.get("walk.lanes", 0) / max(1, counts.get("walk.passes", 0)),
            "measured")
    else:
        steps = record_steps
        put("engines.steps", steps, "records")
        put("engines.lanes_per_pass", 1.0 if records else 0.0, "n/a")
    walk_time = values["engines.walk_s"] if not congest else 0.0
    put("engines.us_per_step", 1e6 * walk_time / steps if steps else 0.0,
        labels["engines.walk_s"] if not congest else "n/a")
    wasted = sum(float(t.metrics.get("steps", 0.0)) for t in records
                 if not t.success)
    put("engines.wasted_step_fraction",
        wasted / record_steps if record_steps else 0.0, "records")

    messages = from_records("messages")
    put("congest.run_s", total("congest.run"), seen("congest.run"))
    put("congest.dispatch_s", total("congest.dispatch"),
        seen("congest.dispatch"))
    label = "records" if congest else "n/a"
    put("congest.messages", messages, label)
    put("congest.bits", from_records("bits"), label)
    put("congest.rounds", from_records("rounds") if congest else 0.0, label)
    put("congest.us_per_message",
        1e6 * total("congest.run") / messages if messages else 0.0,
        seen("congest.run"))

    edges = counts.get("verify.edges", 0)
    put("verify.s", total("verify"), seen("verify"))
    put("verify.calls", calls("verify"), seen("verify"))
    put("verify.us_per_edge", 1e6 * total("verify") / edges if edges else 0.0,
        seen("verify"))

    put("harness.overhead_s", harness["overhead_s"], "measured")
    put("harness.store_append_s", total("harness.store_append"),
        seen("harness.store_append"))
    put("harness.store_bytes", store_bytes,
        "measured" if store_bytes else "n/a")
    put("harness.metrics_s", total("harness.metrics"), seen("harness.metrics"))
    put("harness.worker_busy_fraction", harness["worker_busy_fraction"],
        "measured")
    put("trace.overhead_fraction", overhead_fraction, "measured")
    return values, labels
