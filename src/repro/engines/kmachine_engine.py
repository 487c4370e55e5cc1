"""Native k-machine execution engine (``engine="kmachine"``).

The converted path (:func:`repro.kmachine.simulation.run_converted_hc`)
reaches the k-machine model by driving the message-level CONGEST
simulator node by node and re-costing what it observes — faithful, but
it pays the full per-message simulation price, so it cannot leave toy
sizes.  This engine is the model *natively*: the ``k`` machines jointly
hold the graph via the random vertex partition
(:class:`~repro.kmachine.partition.VertexPartition`, same RVP seed
convention as the converted path), each machine's hosted nodes live in
*array* state on the CSR kernel (:mod:`repro.engines.arraywalk` — no
per-node ``Node`` objects, no message-level ``Network``), machine
rounds advance as batched steps over all hosted nodes, and cross-link
traffic is word-capped bundles accounted by
:class:`~repro.kmachine.ledger.LinkLedger` under the exact charging
rule of the Conversion Theorem (per CONGEST-equivalent tick,
``max(1, ceil(busiest link / W))`` machine rounds).

DRA, DHC2 and Turau replay nothing of their own: each runs its
``fast`` replay once with the internal ``trace=`` dict and charges the
ledger from the trace, so apart from ``engine`` and the k-machine keys
the result *is* the ``fast`` result.  DHC1 charges the trace of the
shared Phase-1 replay (:func:`~repro.engines.phase1_replay.replay_phase1`)
the same way, through :func:`_charge_phase1`.

Parity contract (enforced by ``tests/test_kmachine_native.py`` and the
registry gate)
---------------------------------------------------------------------
* the produced ``cycle`` (and ``steps``) is seed-for-seed identical to
  the converted simulator's — the replay consumes the same per-node
  RNG streams in the same decision order as the CONGEST protocols, so
  conversion and native execution agree on every output;
* the reported ``detail["kmachine_rounds"]`` must stay within the
  Conversion Theorem's ``O~(M/k^2 + T*Delta/k)`` bound
  (:func:`~repro.kmachine.simulation.conversion_round_bound`) and
  preserve its ``~1/k`` scaling.  Setup floods (election, BFS build)
  and walk progress traffic are modelled exactly; renumbering floods
  use the root-based tree profile, and event-driven phases without an
  array replay of their timing (DHC2 merges, Turau tokens, DHC1's
  virtual fabric) are charged structurally — the same estimate stance
  the fast engines take for their round counts.

The converted simulator stays registered as the *oracle*, mirroring
how the reference walkers gate the fast engines.

Keyword surface (declared per spec in the registry): ``k_machines``
(machine count, default :data:`DEFAULT_K_MACHINES`; plain ``k`` is an
alias for DRA, where no colour-count meaning collides),
``link_words`` (the model's per-link ``W``), and ``partition_seed``
(RVP stream override; defaults to ``seed`` — the converted path's
convention, so both engines draw the identical partition).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.bounds import class_size_cap, diameter_budget
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph, csr_gather, csr_sources
from repro.kmachine.ledger import (
    LinkLedger,
    TreeFloodProfile,
    bfs_messages,
    floodmin_traffic,
    gossip_traffic,
)
from repro.kmachine.partition import VertexPartition
from repro.kmachine.simulation import DEFAULT_LINK_WORDS

__all__ = [
    "DEFAULT_K_MACHINES",
    "_dra_kmachine",
    "_dhc2_kmachine",
    "_turau_kmachine",
]

#: Machine count when the caller does not pass ``k_machines``.
DEFAULT_K_MACHINES = 8

#: Word sizes of the rotation walk's wire messages (kind tag included),
#: matching :mod:`repro.congest.message` accounting for the payloads
#: :class:`repro.core.rotation.RotationWalk` sends.
_PROGRESS_WORDS = 6
_ROTATE_WORDS = 6
_FLOOD_WORDS = 3


def _setup(graph: Graph, seed: int, machines: int | None,
           link_words: int, partition_seed: int | None) -> LinkLedger:
    """The ledger every driver charges, over the run's random partition."""
    k = DEFAULT_K_MACHINES if machines is None else int(machines)
    partition = VertexPartition.random(
        graph.n, k, seed=seed if partition_seed is None else partition_seed)
    return LinkLedger(partition, link_words)


def _finish(result: RunResult, ledger: LinkLedger) -> RunResult:
    """Reconcile the modelled clock and attach the k-machine accounting.

    The traffic model walks the same schedule the round estimate in
    ``result.rounds`` describes; any CONGEST ticks the structural
    phases did not explicitly model are quiet (1 machine round each),
    which is exactly the floor the converted path charges.
    """
    m = ledger.metrics
    gap = result.rounds - m.congest_rounds
    if gap > 0:
        ledger.quiet(gap)
    result.detail["kmachine"] = m.summary()
    result.detail["kmachine_rounds"] = m.kmachine_rounds
    result.detail["k_machines"] = ledger.k
    result.detail["link_words"] = ledger.link_words
    return result


def _walk_traffic(ledger: LinkLedger, walk, trace: list,
                  profile: TreeFloodProfile, flood_ecc: int,
                  stop: int | None = None) -> None:
    """Charge one rotation walk: progress singles, renumbering floods
    with their quiescence windows, and the final win/fail flood.

    With ``stop``, the run ends ``stop`` ticks into the walk: only the
    steps finished by then are charged, the rest of those ticks are
    quiet, and no final flood runs.
    """
    steps = np.asarray(trace, dtype=np.int64).reshape(-1, 2)
    rotations = walk.rotations
    spare = 0
    if stop is not None:
        # A step rotates unless its target is the next head (the walk's
        # last head, for the last step).  An extension or the closure
        # takes 1 tick; a rotation 2 * tree_depth + 3 (its progress
        # message, renumbering flood and quiescence wait).
        rotates = steps[:, 1] != np.append(steps[1:, 0], walk.flood_initiator)
        ends = np.cumsum(np.where(rotates, 2 * walk.tree_depth + 3, 1))
        finished = int(np.searchsorted(ends, stop, side="right"))
        steps, rotations = steps[:finished], int(rotates[:finished].sum())
        spare = stop - (int(ends[finished - 1]) if finished else 0)
    if steps.size:
        ledger.singles(steps[:, 0], steps[:, 1], _PROGRESS_WORDS)
    if rotations:
        ledger.flood(profile, _ROTATE_WORDS, times=rotations)
        wait = 2 * walk.tree_depth + 2 - profile.tree_depth
        ledger.quiet(wait * rotations)
    if stop is not None:
        ledger.quiet(spare)
        return
    ledger.flood(profile, _FLOOD_WORDS)
    ledger.quiet(max(0, flood_ecc - profile.tree_depth))


def _charged_global_tree(ledger: LinkLedger, graph: Graph, tree,
                         election_rounds: int) -> TreeFloodProfile | None:
    """Charge the whole-graph election and then the BFS build of ``tree``.

    The flood-min election runs ``election_rounds`` ticks and the BFS
    build starts right after it.  Returns the tree's flood profile,
    which later win, rotation and barrier floods are charged against,
    or ``None`` when the BFS never completed (``tree`` is ``None``) and
    only the election ran.
    """
    n, indptr, indices = graph.n, graph.indptr, graph.indices
    if n:
        floodmin_traffic(ledger, indptr, indices,
                         np.arange(n, dtype=np.int64), election_rounds)
    if tree is None:
        return None
    done = tree.completion_times(election_rounds)
    ticks, src, dst, words = bfs_messages(tree, indptr, indices,
                                          election_rounds, done)
    span = int(done[tree.root]) - election_rounds + 1
    ledger.series(np.minimum(ticks, span - 1), src, dst, words, span=span)
    return TreeFloodProfile(ledger, tree.parent, tree.depth, tree.members)


def _charge_phase1(ledger: LinkLedger, graph: Graph, p1, classes: list,
                   colors: int, *, stop_at_failure: bool = False) -> None:
    """Charge Phase 1 (colour draw + class walks) from its replay trace.

    ``p1`` and ``classes`` are what
    :func:`~repro.engines.phase1_replay.replay_phase1` returned and
    traced.  Charges the colour announcement and the classes'
    concurrent elections, then the class BFS builds and walks.  These
    share wall-clock rounds, so the BFS schedules are binned jointly
    and the walk forks fold as a maximum.  A class that fails
    structurally (empty or disconnected) charges no BFS or walk; a
    failed walk is charged, since its traffic demonstrably ran.

    With ``stop_at_failure`` (DHC2, whose run ends at the failing
    walk's ``p1.fail_round``), a walk failure cuts every class walk at
    that round (see :func:`_walk_traffic`), so the ledger stops where
    the reported rounds do.  DHC1 reports the ledger's own clock, fail
    flood included.
    """
    n, indptr, indices = graph.n, p1.indptr, p1.indices
    ledger.burst(csr_sources(graph.indptr), graph.indices, 2)  # colour announcement
    floodmin_traffic(ledger, indptr, indices, np.arange(n, dtype=np.int64),
                     diameter_budget(class_size_cap(n, colors)))
    if not (p1.ok or p1.walk_failed):
        return
    start = p1.start_round
    parts = [bfs_messages(tree, indptr, indices, start, done)
             for tree, done, *_ in classes]
    span = max(int(done[tree.root]) - start + 1 for tree, done, *_ in classes)
    ticks, src, dst, words = (np.concatenate(column) for column in zip(*parts))
    ledger.series(np.minimum(ticks, span - 1), src, dst, words, span=span)
    stop = None
    if stop_at_failure and not p1.ok:
        stop = max(0, p1.fail_round - start - span)
    forks = []
    for tree, _done, walk, steps, flood_ecc in classes:
        fork = ledger.fork()
        _walk_traffic(fork, walk, steps,
                      TreeFloodProfile(fork, tree.parent, tree.depth, tree.members),
                      flood_ecc, stop)
        forks.append(fork)
    ledger.absorb_concurrent(forks)


# ---------------------------------------------------------------------------
# DRA — Algorithm 1
# ---------------------------------------------------------------------------


def _dra_kmachine(
    graph: Graph,
    *,
    seed: int = 0,
    step_budget: int | None = None,
    k: int | None = None,
    k_machines: int | None = None,
    link_words: int = DEFAULT_LINK_WORDS,
    partition_seed: int | None = None,
) -> RunResult:
    """Algorithm 1 under native k-machine execution.

    The ``fast`` replay itself (identical cycle, steps, and CONGEST
    round count): the walk runs once, through ``_dra_fast``'s
    ``trace``, and its election, BFS build, and walk traffic are then
    binned onto the machine links tick by tick.  ``k`` is accepted as
    an alias for ``k_machines`` (DRA has no partition-count keyword).
    """
    from repro.engines.fast import _dra_fast

    ledger = _setup(graph, seed, k_machines if k_machines is not None else k,
                    link_words, partition_seed)
    trace: dict = {}
    result = _dra_fast(graph, seed=seed, step_budget=step_budget, trace=trace)
    result.engine = "kmachine"
    profile = _charged_global_tree(ledger, graph, trace["tree"],
                                   diameter_budget(graph.n))
    if profile is not None:
        _walk_traffic(ledger, trace["walk"], trace["steps"], profile,
                      trace["flood_ecc"])
    return _finish(result, ledger)


# ---------------------------------------------------------------------------
# DHC2 — Algorithm 3
# ---------------------------------------------------------------------------


def _dhc2_kmachine(
    graph: Graph,
    *,
    delta: float = 0.5,
    k: int | None = None,
    seed: int = 0,
    k_machines: int | None = None,
    link_words: int = DEFAULT_LINK_WORDS,
    partition_seed: int | None = None,
) -> RunResult:
    """Algorithm 3 under native k-machine execution.

    The ``fast`` replay itself (``k`` keeps its DHC2 meaning: the
    colour count): DHC2 runs once, through ``_dhc2_fast``'s ``trace``,
    and the ledger is charged from it.  Phase 1's concurrent classes
    fold with wall-clock semantics (see :func:`_charge_phase1`);
    every recorded pair merge charges its bridge scan.
    """
    from repro.engines.fast_dhc2 import _dhc2_fast

    ledger = _setup(graph, seed, k_machines, link_words, partition_seed)
    trace: dict = {}
    result = _dhc2_fast(graph, delta=delta, k=k, seed=seed, trace=trace)
    result.engine = "kmachine"
    _charge_phase1(ledger, graph, trace["phase1"], trace["classes"],
                   result.detail["k"], stop_at_failure=True)
    indptr, indices = graph.indptr, graph.indices
    for a_cycle, b_cycle, merged in trace["merges"]:
        # Bridge scan: every class-A node polls its class-B neighbours,
        # candidates answer — one burst each way over the A-B edges.
        a_arr = np.asarray(a_cycle, dtype=np.int64)
        in_b = np.zeros(graph.n, dtype=bool)
        in_b[np.asarray(b_cycle, dtype=np.int64)] = True
        counts = indptr[a_arr + 1] - indptr[a_arr]
        v_e = np.repeat(a_arr, counts)
        w_e = csr_gather(indptr, indices, a_arr)
        keep = in_b[w_e]
        ledger.burst(v_e[keep], w_e[keep], 3)
        ledger.burst(w_e[keep], v_e[keep], 3)
        # Winner convergecast + splice broadcast over the merged class:
        # structural, like the fast engine's level cost.
        ledger.uniform_burst(2 * len(merged), 3, ticks=2)
    return _finish(result, ledger)


# ---------------------------------------------------------------------------
# Turau path merging (arXiv:1805.06728)
# ---------------------------------------------------------------------------


def _turau_kmachine(
    graph: Graph,
    *,
    seed: int = 0,
    phase_budget: int | None = None,
    k_machines: int | None = None,
    link_words: int = DEFAULT_LINK_WORDS,
    partition_seed: int | None = None,
) -> RunResult:
    """Turau path merging under native k-machine execution.

    Decisions (and hence cycle/steps/failure codes) come from the
    array replay; the proposal round, per-phase announce/request/grant
    bursts, and the closure gossip flood are binned exactly, while the
    in-flight token walks are charged as an RVP-uniform estimate over
    each phase's window (tokens are single messages walking disjoint
    paths — never the busiest-link driver).
    """
    from repro.engines.fast_turau import _turau_fast

    trace: dict = {}
    result = _turau_fast(graph, seed=seed, phase_budget=phase_budget,
                         trace=trace)
    result.engine = "kmachine"
    ledger = _setup(graph, seed, k_machines, link_words, partition_seed)
    indptr, indices = graph.indptr, graph.indices

    if trace.get("proposals") is not None:
        proposers, targets = trace["proposals"]
        ledger.burst(proposers, targets, 2)
        acc_targets, acc_winners = trace["accepts"]
        ledger.burst(acc_targets, acc_winners, 2)
        ledger.quiet(1)  # link-commit settling round
    for phase in trace.get("phases", ()):
        announcers = phase["announcers"]
        if announcers.size:
            counts = indptr[announcers + 1] - indptr[announcers]
            src = np.repeat(announcers, counts)
            dst = csr_gather(indptr, indices, announcers)
            ledger.burst(src, dst, 2)
        else:
            ledger.quiet(1)
        requests, grants = phase["requests"], phase["grants"]
        ledger.burst(requests[:, 0], requests[:, 1], 3)
        ledger.burst(grants[:, 0], grants[:, 1], 3)
        window = phase["window"]
        hops = 2 * int(grants.shape[0]) * min(window, graph.n)
        ledger.uniform_burst(hops, 2, ticks=max(1, window + 1))
    if trace.get("flood_source", -1) >= 0:
        gossip_traffic(ledger, indptr, indices, int(trace["flood_source"]),
                       words=1)
    return _finish(result, ledger)
