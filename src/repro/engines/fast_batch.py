"""The ``fast-batch`` engine: hundreds of trials per engine call.

Batched counterparts of the four fast engines —
:func:`repro.engines.fast._dra_fast`,
:func:`repro.engines.fast_cre._cre_fast`,
:func:`repro.engines.fast_dhc2._dhc2_fast`, and
:func:`repro.engines.fast_turau._turau_fast`.  A
``run_batch(graphs, seeds=...)`` call executes B independent same-n
trials — each with its own sampled graph and its own seed — and
returns one :class:`~repro.engines.results.RunResult` per trial that
is seed-for-seed identical to what ``engine="fast"`` would have
produced for that (graph, seed) pair.  The single-graph wrappers
(``*_one``) make the same code reachable through the ordinary
:func:`repro.run` path, which is what the registry parity gate
exercises.

Which trials share whole-array passes depends on the algorithm and on
:func:`batch_kernel_active`:

* CRE and Turau never batch: their runners run each trial on
  per-trial ``fast``.  Their numpy batch kernels measured slower than
  per-trial ``fast`` at every size; Turau's also took an order of
  magnitude more peak memory.
* DRA and DHC2 batch only through the compiled fused walk kernel
  (:mod:`repro.engines._jit`, ``REPRO_JIT=1`` with numba) over an
  exact :class:`~repro.engines.batchwalk.DrawPool`.  Without it they
  run each trial on per-trial ``fast``, which beat the numpy
  batch-major walk this replaced at every measured point, in time and
  memory alike.  With it, DHC2 batches Phase 1 per colour class: one
  pooled colour draw (each node's first stream value, exactly the
  serial order), one stacked colour-filtered CSR shared by every class
  (classes are edge-disjoint within it, so per-class fresh dead-edge
  masks equal the serial shared mask), then one
  :class:`~repro.engines.batchwalk.BatchWalk` per colour over the
  class members of every still-live trial — per-trial ``sizes`` /
  budgets / roots, structural failures recorded at the class where
  serial would have stopped.  Phase 2 is deterministic and runs per
  trial, verbatim from the serial engine.  Each DRA trial's result
  goes through :func:`repro.engines.fast._dra_result`, the per-trial
  engine's own verification and assembly.

Batches are transparently split into memory-bounded chunks (the
stacked CSR, dead-edge bitmask, and draw buffers scale with the
batch's total directed edge count), so callers may hand over
arbitrarily large batches; ``REPRO_BATCH_EDGE_BUDGET`` tunes the
per-chunk cap.  Chunking never changes results — trials are
independent.  :func:`auto_batch_size` sizes batches from the same
budget for the sweep path.

``graphs`` may be a list of :class:`~repro.graphs.adjacency.Graph` or
a :class:`~repro.graphs.batch_gnp.GnpBatch`.  A ``GnpBatch`` is the
zero-copy path the sweep harness ships: the stacked CSR and twin
table come straight from the pooled generator (no per-graph CSR
builds, no stacking copy, no twin argsort), chunking slices the
shared pair arrays without copying, and per-trial ``Graph`` objects
are materialised lazily — only for the result tails that genuinely
need one (cycle verification, DHC2 Phase 2) and for the per-trial
route.
"""

from __future__ import annotations

import functools
import os
from types import SimpleNamespace

import numpy as np

from repro.analysis.bounds import bfs_deadline, class_size_cap, diameter_budget, dra_step_budget
from repro.engines import _jit
from repro.engines.batchwalk import (
    BatchWalk,
    DrawPool,
    _exact,
    build_batch_tree,
    stack_graph_csrs,
    stacked_edge_twins,
)
from repro.engines.fast import _dra_fast, _dra_result
from repro.engines.fast_cre import _cre_fast
from repro.engines.fast_dhc2 import _dhc2_fast
from repro.engines.results import RunResult
from repro.graphs.batch_gnp import GnpBatch

__all__ = ["_dra_fast_batch", "_cre_fast_batch",
           "_dhc2_fast_batch", "_turau_fast_batch",
           "_dra_fast_batch_one", "_cre_fast_batch_one",
           "_dhc2_fast_batch_one", "_turau_fast_batch_one",
           "auto_batch_size", "batch_kernel_active", "AUTO_BATCH_MIN_TRIALS"]

#: Per-chunk cap on the stacked CSR's directed entry count (int32
#: indices, twin table, and padded copy put the default around 1 GB
#: of per-chunk state); env-tunable for small-memory hosts.  Must
#: stay below 2**31 — the stacked ids and edge offsets are int32.
_EDGE_BUDGET = int(os.environ.get("REPRO_BATCH_EDGE_BUDGET", 80_000_000))

#: Fewest queued same-point trials before ``engine="auto"`` prefers
#: ``fast-batch`` over per-trial ``fast`` (below this, batching's
#: setup cost is not worth amortising; the CLI consults it).
AUTO_BATCH_MIN_TRIALS = 100


#: Algorithms whose batch runner needs the fused walk kernel; without
#: it they run each trial on per-trial ``fast``.
_WALK_KERNEL_ALGORITHMS = frozenset({"dra", "dhc2"})


def batch_kernel_active(algorithm: str) -> bool:
    """Whether ``fast-batch`` runs ``algorithm`` through a batch kernel.

    CRE and Turau never do.  DRA and DHC2 do only when the fused walk
    kernel is dispatchable (``_jit.walk_kernel``) and the
    :class:`~repro.engines.batchwalk.DrawPool` is exact, since the
    kernel replays the pool's PCG64 state arrays.  Every other runner
    loops per-trial ``fast``.  The sweep's auto-batching asks the same
    question.
    """
    return (algorithm in _WALK_KERNEL_ALGORITHMS
            and _jit.walk_kernel is not None and _exact())


def _per_trial(run, graphs, seeds, **kwargs) -> list[RunResult]:
    """``run`` (a per-trial ``fast`` runner) over every (graph, seed) pair."""
    results = []
    for b, seed in enumerate(seeds):
        result = run(graphs[b], seed=seed, **kwargs)
        result.engine = "fast-batch"
        results.append(result)
    return results


def auto_batch_size(n: int, p: float | None = None, *,
                    cap: int = 1024) -> int:
    """Largest sensible batch for same-n trials under the edge budget.

    Sizes one harness batch so its stacked chunk (expected directed
    entries ``n * (n-1) * p`` per trial) fills — but does not exceed —
    ``REPRO_BATCH_EDGE_BUDGET``; without a known density the complete
    graph is assumed.  Capped (batches past the cache sweet spot
    regress; see the E15 batch lane) and floored at 1.
    """
    density = 1.0 if p is None else min(1.0, max(0.0, float(p)))
    per_trial = max(1.0, float(n) * max(1.0, (n - 1) * density))
    return int(max(1, min(cap, _EDGE_BUDGET / per_trial)))


def _as_trials(graphs):
    """Normalise the batch argument (``GnpBatch`` passes through)."""
    return graphs if isinstance(graphs, GnpBatch) else list(graphs)


def _batch_n(graphs) -> int:
    return graphs.n if isinstance(graphs, GnpBatch) else graphs[0].n


def _stacked_csr(graphs):
    """The chunk's stacked CSR as ``(indptr, indices, twins-or-None)``.

    A ``GnpBatch`` ships all three directly from the pooled pair
    arrays; lists of graphs pay the per-graph stacking copy and leave
    the twin table for callers that need one to build on demand.
    """
    if isinstance(graphs, GnpBatch):
        return graphs.stacked()
    indptr, indices = stack_graph_csrs(graphs)
    return indptr, indices, None


def _chunk_spans(graphs) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` spans whose stacked CSRs stay in budget."""
    if isinstance(graphs, GnpBatch):
        counts = graphs.directed_counts.tolist()
    else:
        counts = [int(g.indices.size) for g in graphs]
    spans = []
    lo = 0
    edges = 0
    for i, count in enumerate(counts):
        if i > lo and edges + count > _EDGE_BUDGET:
            spans.append((lo, i))
            lo, edges = i, 0
        edges += count
    spans.append((lo, len(counts)))
    return spans


def _check_batch(graphs, seeds) -> int:
    if len(seeds) != len(graphs):
        raise ValueError(
            f"run_batch needs one seed per graph: {len(graphs)} graphs, "
            f"{len(seeds)} seeds")
    if isinstance(graphs, GnpBatch):
        return graphs.n  # same n by construction
    n = graphs[0].n
    for i, g in enumerate(graphs):
        if g.n != n:
            raise ValueError(
                f"fast-batch requires same-n graphs; graph 0 has n={n} "
                f"but graph {i} has n={g.n}")
    return n


# -- DRA -------------------------------------------------------------------


def _dra_fast_batch(graphs, *, seeds, step_budget: int | None = None,
                    ) -> list[RunResult]:
    """Algorithm 1 over a batch of trials; one RunResult per (graph, seed).

    Runs per-trial ``fast`` unless :func:`batch_kernel_active`.
    """
    graphs = _as_trials(graphs)
    seeds = list(seeds)
    if not len(graphs):
        return []
    n = _check_batch(graphs, seeds)
    if not batch_kernel_active("dra"):
        return _per_trial(_dra_fast, graphs, seeds, step_budget=step_budget)
    if n == 0:
        deadline = bfs_deadline(diameter_budget(0), diameter_budget(0))
        return [RunResult("dra", False, None, deadline, engine="fast-batch",
                          detail={"fail_codes": ["bfs-unreachable"]})
                for _ in range(len(graphs))]
    results: list[RunResult | None] = [None] * len(graphs)
    for lo, hi in _chunk_spans(graphs):
        _dra_chunk(graphs[lo:hi], seeds[lo:hi], results, lo, step_budget)
    return results  # type: ignore[return-value]  # every slot filled


def _dra_chunk(graphs, seeds, results, offset, step_budget) -> None:
    n = _batch_n(graphs)
    batch = len(graphs)
    budget = step_budget if step_budget is not None else dra_step_budget(n)
    election_rounds = diameter_budget(n)

    # Trial b's node v owns the same stream as in a serial run:
    # SeedSequence(seed_b).spawn(n)[v], flat-indexed by global id.
    pool = DrawPool(seeds, n)

    indptr, indices, twins = _stacked_csr(graphs)
    roots = np.arange(batch, dtype=np.int64) * n
    tree = build_batch_tree(indptr, indices, batch, n, roots)
    deadline = bfs_deadline(election_rounds, diameter_budget(n))
    for b in np.flatnonzero(~tree.ok).tolist():
        results[offset + b] = RunResult(
            "dra", False, None, deadline, engine="fast-batch",
            detail={"fail_codes": ["bfs-unreachable"]})
    connected = np.flatnonzero(tree.ok)
    if connected.size == 0:
        return

    done = tree.completion_times(election_rounds)
    walk = BatchWalk(
        indptr=indptr,
        indices=indices,
        draws=pool,
        batch=batch,
        size=n,
        initial_heads=roots,
        step_budget=budget,
        tree_depths=np.maximum(1, tree.tree_depth),
        start_rounds=done[roots] + 1,
        live=tree.ok,
        twins=twins,
    )
    walk.run()
    ecc = tree.eccentricities(walk.flood_initiator[connected])
    for slot, b in enumerate(connected.tolist()):
        # Trial b read off the batch arrays as the walk _dra_result takes.
        won = bool(walk.success[b])
        trial = SimpleNamespace(
            success=won, cycle=functools.partial(walk.cycle, b),
            steps=int(walk.steps[b]), fail_code=int(walk.fail_code[b]),
            rotations=int(walk.rotations[b]),
            extensions=int(walk.extensions[b]), retries=0)
        # Only winners materialise a Graph on the GnpBatch path.
        results[offset + b] = _dra_result(
            graphs[b] if won else None, trial,
            int(walk.end_round[b]) + int(ecc[slot]), engine="fast-batch")


def _dra_fast_batch_one(graph, *, seed: int = 0,
                        step_budget: int | None = None) -> RunResult:
    """Registry runner: a batch of one (``repro.run(..., engine="fast-batch")``)."""
    return _dra_fast_batch([graph], seeds=[seed], step_budget=step_budget)[0]


# -- CRE -------------------------------------------------------------------


def _cre_fast_batch(graphs, *, seeds, step_budget: int | None = None,
                    ) -> list[RunResult]:
    """The CRE solver over a batch: per-trial ``fast`` on every trial."""
    graphs = _as_trials(graphs)
    seeds = list(seeds)
    if not len(graphs):
        return []
    _check_batch(graphs, seeds)
    return _per_trial(_cre_fast, graphs, seeds, step_budget=step_budget)


def _cre_fast_batch_one(graph, *, seed: int = 0,
                        step_budget: int | None = None) -> RunResult:
    """Registry runner: a batch of one (``repro.run(..., engine="fast-batch")``)."""
    return _cre_fast_batch([graph], seeds=[seed], step_budget=step_budget)[0]


# -- DHC2 ------------------------------------------------------------------


def _dhc2_fast_batch(graphs, *, seeds, delta: float = 0.5,
                     k: int | None = None) -> list[RunResult]:
    """Algorithm 3 over a batch: Phase 1 per colour class, Phase 2 per trial.

    Runs per-trial ``fast`` unless :func:`batch_kernel_active`.
    """
    graphs = _as_trials(graphs)
    seeds = list(seeds)
    if not len(graphs):
        return []
    _check_batch(graphs, seeds)
    if not batch_kernel_active("dhc2"):
        return _per_trial(_dhc2_fast, graphs, seeds, delta=delta, k=k)
    results: list[RunResult | None] = [None] * len(graphs)
    for lo, hi in _chunk_spans(graphs):
        _dhc2_chunk(graphs[lo:hi], seeds[lo:hi], results, lo, delta, k)
    return results  # type: ignore[return-value]  # every slot filled


def _dhc2_chunk(graphs, seeds, results, offset, delta, k) -> None:
    from repro.core.dhc2 import default_color_count
    from repro.core.phase1 import resolve_colors
    from repro.engines.arraywalk import same_color_csr
    from repro.engines.fast_dhc2 import _fail, _phase2

    n = _batch_n(graphs)
    batch = len(graphs)
    colors = resolve_colors(k, lambda: default_color_count(n, delta))
    total = batch * n
    pool = DrawPool(seeds, n)

    # The colour draw is each node's *first* stream value, consumed in
    # node id order exactly as the serial colour round does.
    if total:
        color_of = 1 + pool.draw(np.arange(total, dtype=np.int64),
                                 np.full(total, colors, dtype=np.int64))
    else:
        color_of = np.zeros(0, dtype=np.int64)
    indptr, indices, _ = _stacked_csr(graphs)
    # One colour-filtered CSR shared by all classes (as in serial):
    # classes are edge-disjoint within it, so the fresh dead-edge mask
    # each class walk starts from equals the serial shared mask.
    sub_indptr, sub_indices = same_color_csr(indptr, indices, color_of)
    twins = stacked_edge_twins(sub_indptr, sub_indices, batch, n)
    color_mat = color_of.reshape(batch, n)
    base = np.arange(batch, dtype=np.int64) * n

    elect_budget = diameter_budget(class_size_cap(n, colors))
    phase1_start = 1 + elect_budget  # colour round + election deadline

    ok = np.ones(batch, dtype=bool)
    reasons: list[str | None] = [None] * batch
    fail_round = np.full(batch, phase1_start, dtype=np.int64)
    steps = np.zeros(batch, dtype=np.int64)
    phase1_end = np.full(batch, phase1_start, dtype=np.int64)
    cycles: list[dict[int, list[int]]] = [{} for _ in range(batch)]

    # Class by class over every still-live trial: a trial that fails
    # stops consuming draws at exactly the class where its serial run
    # returned (later classes' streams are disjoint per-node streams,
    # so skipping them is draw-neutral as well as cheaper).
    for c in range(1, colors + 1):
        maskc = color_mat == c
        cnt = maskc.sum(axis=1).astype(np.int64)
        empty = ok & (cnt == 0)
        if empty.any():
            ok[empty] = False
            for b in np.flatnonzero(empty).tolist():
                reasons[b] = "empty-partition"  # fail_round: phase start
        if not ok.any():
            break
        roots = base + maskc.argmax(axis=1)  # min-id member where cnt > 0
        tree = build_batch_tree(sub_indptr, sub_indices, batch, n, roots,
                                expect=cnt, live=ok)
        disc = ok & ~tree.ok
        if disc.any():
            ok[disc] = False
            for b in np.flatnonzero(disc).tolist():
                reasons[b] = "partition-disconnected"
        if not ok.any():
            break
        done = tree.completion_times(phase1_start)
        budgets = np.array([dra_step_budget(int(m)) for m in cnt.tolist()],
                           dtype=np.int64)
        walk = BatchWalk(
            indptr=sub_indptr,
            indices=sub_indices,
            draws=pool,
            batch=batch,
            size=n,
            sizes=cnt,
            initial_heads=roots,
            step_budget=budgets,
            tree_depths=np.maximum(1, tree.tree_depth),
            start_rounds=done[roots] + 1,
            live=ok,
            twins=twins,
        )
        walked = np.flatnonzero(ok)
        walk.run()
        # Steps accumulate before the failure check (serial counts the
        # failing class's walk).
        np.maximum(steps, walk.steps, out=steps)
        lost = walked[~walk.success[walked]]
        if lost.size:
            ok[lost] = False
            fail_round[lost] = walk.end_round[lost]
            for b in lost.tolist():
                reasons[b] = f"walk-{int(walk.fail_code[b])}"
        won = walked[walk.success[walked]]
        if won.size:
            ecc = tree.eccentricities(walk.flood_initiator[won])
            phase1_end[won] = np.maximum(phase1_end[won],
                                         walk.end_round[won] + ecc)
            for b in won.tolist():
                cycles[b][c] = walk.cycle(b)

    for b in range(batch):
        if ok[b]:
            # Phase 2 is the only consumer of a materialised Graph.
            results[offset + b] = _phase2(
                graphs[b], cycles[b], colors, int(phase1_end[b]),
                int(steps[b]), "fast-batch")
        else:
            results[offset + b] = _fail(
                n, colors, int(fail_round[b]), reasons[b], "fast-batch")


def _dhc2_fast_batch_one(graph, *, seed: int = 0, delta: float = 0.5,
                         k: int | None = None) -> RunResult:
    """Registry runner: a batch of one (``repro.run(..., engine="fast-batch")``)."""
    return _dhc2_fast_batch([graph], seeds=[seed], delta=delta, k=k)[0]


# -- Turau -----------------------------------------------------------------


def _turau_fast_batch(graphs, *, seeds,
                      phase_budget: int | None = None) -> list[RunResult]:
    """Turau path merging over a batch: per-trial ``fast`` on every trial."""
    from repro.engines.fast_turau import _turau_fast

    graphs = _as_trials(graphs)
    seeds = list(seeds)
    if not len(graphs):
        return []
    _check_batch(graphs, seeds)
    return _per_trial(_turau_fast, graphs, seeds, phase_budget=phase_budget)


def _turau_fast_batch_one(graph, *, seed: int = 0,
                          phase_budget: int | None = None) -> RunResult:
    """Registry runner: a batch of one (``repro.run(..., engine="fast-batch")``)."""
    return _turau_fast_batch([graph], seeds=[seed],
                             phase_budget=phase_budget)[0]
