"""The Conversion Theorem of [16] as an execution engine.

Theorem 4.1 of Klauck–Nanongkai–Pandurangan–Robinson (paraphrased):
any CONGEST algorithm using ``T`` rounds and ``M`` messages on an
``n``-node graph can be simulated by ``k`` machines (graph distributed
by random vertex partition) in ``O~(M / k^2 + T * Delta' / k)`` rounds,
where ``Delta'`` bounds per-node per-round traffic.  The proof idea is
direct simulation: each machine runs the protocol code of the graph
nodes it hosts; a CONGEST message between co-hosted nodes is free, and
one between nodes on different machines must cross the hosting
machines' link, which carries only ``W`` words per round.

This module implements that simulation *exactly*: it drives the
message-level CONGEST engine round by round, observes every delivered
message via :attr:`Network.round_observer`, bins cross-machine traffic
per link, and charges ``ceil(busiest link load / W)`` k-machine rounds
per CONGEST round (minimum 1 — the machines advance the simulated round
counter in lockstep even when no traffic crosses).

Charging per CONGEST round (rather than amortising across rounds) is
the conservative reading of the theorem: messages of round ``r + 1``
can depend on messages of round ``r``, so rounds cannot overlap without
a pipelining argument.  The measured `kmachine_rounds` is therefore an
honest upper bound achievable by the plain simulation, and the E13
benchmark checks it still exhibits the theorem's ``~1/k`` scaling.

This conversion pays full per-node CONGEST simulation cost, which
confines it to toy sizes; the *native* machine-level engine
(:mod:`repro.engines.kmachine_engine`, ``engine="kmachine"``) runs the
same algorithms as batched array steps under the identical charging
rule and reaches the large-``n`` regime.  The converted simulator here
stays registered as that engine's parity **oracle** (see
``tests/test_engine_parity.py::TestKmachineOracleGate``), exactly as
the reference walkers gate the fast engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from repro.congest.message import payload_words
from repro.congest.network import Network
from repro.engines.results import RunResult
from repro.graphs.adjacency import Graph
from repro.kmachine.metrics import KMachineMetrics
from repro.kmachine.partition import VertexPartition

__all__ = [
    "KMachineResult",
    "run_converted",
    "run_converted_hc",
    "conversion_round_bound",
    "DEFAULT_LINK_WORDS",
]

#: Default per-link bandwidth in words per k-machine round.  [16] allows
#: any ``O(polylog n)`` bits; we default to a small constant number of
#: words so the congestion structure is visible at simulable sizes.
DEFAULT_LINK_WORDS = 16


@dataclass
class KMachineResult:
    """Outcome of one converted execution.

    ``network`` is the finished CONGEST network (protocol state is read
    out of it exactly as for a native run); ``metrics`` carries the
    k-machine cost accounting; ``partition`` is the RVP used.
    """

    network: Network
    metrics: KMachineMetrics
    partition: VertexPartition


class _LinkAccountant:
    """Per-round cross-machine load binning (the conversion's inner loop)."""

    def __init__(self, partition: VertexPartition, link_words: int):
        if link_words < 1:
            raise ValueError(f"link bandwidth must be positive, got {link_words}")
        self.partition = partition
        self.link_words = link_words
        self.metrics = KMachineMetrics.empty(partition.k)

    def observe(self, network: Network, outbox: list[tuple[int, int, tuple]]) -> None:
        machine_of = self.partition.machine_of
        metrics = self.metrics
        round_loads: dict[tuple[int, int], int] = {}
        for src, dst, payload in outbox:
            words = 1 + payload_words(payload)  # kind tag charged as one word
            a = int(machine_of[src])
            b = int(machine_of[dst])
            if a == b:
                metrics.local_words += words
                continue
            link = (a, b) if a < b else (b, a)
            round_loads[link] = round_loads.get(link, 0) + words
            metrics.cross_words += words
            metrics.link_words[link[0], link[1]] += words
            metrics.recv_words_per_machine[b] += words
        metrics.congest_rounds += 1
        busiest = max(round_loads.values(), default=0)
        if busiest > metrics.max_round_link_words:
            metrics.max_round_link_words = busiest
        metrics.kmachine_rounds += max(1, math.ceil(busiest / self.link_words))


def run_converted(
    graph: Graph,
    protocol_factory: Callable[[int], "object"],
    *,
    k: int,
    max_rounds: int,
    seed: int = 0,
    partition_seed: int | None = None,
    link_words: int = DEFAULT_LINK_WORDS,
    bandwidth_words: int = 8,
    partition: VertexPartition | None = None,
    raise_on_limit: bool = False,
) -> KMachineResult:
    """Run a CONGEST protocol under k-machine accounting.

    The protocol executes *unchanged* (same seed derivation as a native
    :class:`~repro.congest.network.Network` run, hence identical node
    decisions and outputs); only the cost model differs.  See the module
    docstring for the charging rule.

    Parameters
    ----------
    graph:
        Input graph (the k machines jointly hold it via RVP).
    protocol_factory:
        Same factory a native CONGEST run would use.
    k:
        Number of machines.
    partition:
        Optional explicit partition (defaults to
        ``VertexPartition.random(n, k, seed=partition_seed or seed)``).
    link_words:
        Per-link words per k-machine round (the model's ``W``).
    """
    if partition is None:
        partition = VertexPartition.random(
            graph.n, k, seed=seed if partition_seed is None else partition_seed)
    if partition.n != graph.n or partition.k != k:
        raise ValueError(
            f"partition shape ({partition.n} nodes / {partition.k} machines) "
            f"does not match graph n={graph.n}, k={k}")

    network = Network(
        graph, protocol_factory, seed=seed, bandwidth_words=bandwidth_words)
    accountant = _LinkAccountant(partition, link_words)
    network.round_observer = accountant.observe
    network.run(max_rounds=max_rounds, raise_on_limit=raise_on_limit)
    return KMachineResult(network=network, metrics=accountant.metrics,
                          partition=partition)


def run_converted_hc(
    graph: Graph,
    *,
    algorithm: str = "dhc2",
    k_machines: int,
    seed: int = 0,
    link_words: int = DEFAULT_LINK_WORDS,
    **algorithm_kwargs,
) -> tuple[RunResult, KMachineMetrics]:
    """Convert one of the paper's HC algorithms to the k-machine model.

    Convenience wrapper: runs ``algorithm`` ("dra", "dhc1" or "dhc2")
    through its normal front end while a :class:`_LinkAccountant`
    observes the execution, and returns both the usual
    :class:`~repro.engines.results.RunResult` (success, cycle, CONGEST
    rounds) and the :class:`KMachineMetrics`.

    The returned ``RunResult`` is identical to a native run with the
    same seed — conversion never perturbs the protocol.

    Which algorithms are convertible is a *capability* declared in the
    engine registry (``kmachine_convertible`` on the congest spec), not
    a name list here: registering a new fully-distributed algorithm
    with that capability makes it convertible everywhere, including the
    CLI's ``--k-machines`` flag.

    A ``network=`` model (e.g. one carrying a fault plan) passes
    through to the runner with the accountant composed onto its
    ``network_hook``; the caller's own hook runs first.  Async models
    are refused: the event-queue engine has no round observer.
    """
    from repro.congest.model import coerce_network_model
    from repro.engines.registry import REGISTRY

    spec = REGISTRY.engines_for(algorithm).get("congest")
    if spec is None or not spec.kmachine_convertible:
        raise ValueError(
            f"algorithm {algorithm!r} is not k-machine convertible; "
            f"conversion targets the fully-distributed CONGEST algorithms: "
            f"{REGISTRY.convertible_algorithms()}")

    model = coerce_network_model(algorithm_kwargs.pop("network", None))
    if model.is_async():
        raise ValueError(
            "k-machine conversion re-costs a synchronous execution; it "
            "does not compose with an async network model")
    partition = VertexPartition.random(graph.n, k_machines, seed=seed)
    accountant = _LinkAccountant(partition, link_words)
    caller_hook = model.network_hook

    def hook(network: Network) -> None:
        if caller_hook is not None:
            caller_hook(network)
        previous = network.round_observer

        def observe(net: Network, outbox) -> None:
            if previous is not None:
                previous(net, outbox)
            accountant.observe(net, outbox)

        network.round_observer = observe

    result = spec.call(graph, seed=seed,
                       network=replace(model, network_hook=hook),
                       **algorithm_kwargs)
    return result, accountant.metrics


def conversion_round_bound(
    messages: int,
    congest_rounds: int,
    max_degree: int,
    *,
    k: int,
    link_words: int = DEFAULT_LINK_WORDS,
) -> float:
    """Theorem 4.1 of [16] shape: ``O~(M / k^2 + T * Delta / k)`` rounds.

    Expressed in link-word units so it is directly comparable to the
    measured ``kmachine_rounds``.  Constants are not part of the claim;
    E13 fits them.
    """
    if k < 1:
        raise ValueError(f"need at least one machine, got k={k}")
    message_term = messages / (k * k)
    delay_term = congest_rounds * max_degree / k
    return (message_term + delay_term) / link_words
