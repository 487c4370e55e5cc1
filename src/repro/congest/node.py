"""Per-node protocol interface and execution context.

A distributed algorithm is written as a :class:`Protocol` subclass; the
simulator instantiates one per node.  Protocols are *event-driven*: a
node's :meth:`Protocol.on_round` runs only in rounds where it received a
message or had scheduled a wake-up, which keeps simulation cost
proportional to actual activity (idle nodes are free, exactly as the
paper's round accounting assumes).

All interaction with the world goes through the :class:`Context`:

* ``ctx.multicast(dests, payload, skip)`` — one CONGEST message to each
  of several neighbours (delivered at the start of the next round);
* ``ctx.send(dest, kind, *fields)`` — its one-destination case;
* ``ctx.request_wake(round_index)`` — ask to be scheduled in a future
  round even without incoming messages (nodes know the global round
  number in the synchronous model, so this is legal);
* ``ctx.halt()`` — local termination: the node will never run again.

Once the run has ended, the network unlinks every context from itself:
``halted``, ``n`` and ``round_index`` stay readable, and every action
raises :class:`~repro.congest.errors.RunEndedError`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from repro.congest.errors import HaltedNodeError, RunEndedError
from repro.congest.message import Message
from repro.congest.metrics import state_size_words

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.congest.network import Network

__all__ = ["Protocol", "Context"]


class Protocol(ABC):
    """Base class for the code run at each node.

    Subclasses keep their entire node-local state as instance
    attributes; :meth:`state_size` audits that state for the o(n)
    fully-distributed memory restriction (Section II).
    """

    def on_start(self, ctx: "Context") -> None:
        """Called once before round 0.  Default: do nothing."""

    @abstractmethod
    def on_round(self, ctx: "Context", inbox: list[Message]) -> None:
        """Called in every round where this node has messages or a wake-up.

        ``inbox`` holds the messages that arrived at the end of the
        previous round, sorted by sender id for determinism.
        """

    def state_size(self) -> int:
        """Approximate node state in machine words (see the memory audit)."""
        return state_size_words(vars(self)) if hasattr(self, "__dict__") else 1


class Context:
    """The node's window onto the network during a simulation."""

    __slots__ = ("_network", "_enqueue_many", "node_id", "neighbors",
                 "_neighbor_set", "rng", "halted")

    def __init__(self, network: "Network", node_id: int,
                 neighbors: list[int], rng: np.random.Generator):
        self._network = network
        # Bound once, used per send.
        self._enqueue_many = network._enqueue_many  # noqa: SLF001
        self.node_id = node_id
        self.neighbors = neighbors
        self._neighbor_set = frozenset(neighbors)
        self.rng = rng
        self.halted = False

    @property
    def n(self) -> int:
        """Network size (given as input to every node; Section I-A)."""
        return self._network.n

    @property
    def round_index(self) -> int:
        """The current round number (``floor`` of virtual time in async mode)."""
        return self._network.round_index

    def is_neighbor(self, v: int) -> bool:
        """Whether ``v`` is adjacent (constant-time)."""
        return v in self._neighbor_set

    def send(self, dest: int, kind: str, *fields: int) -> None:
        """Send one CONGEST message to the adjacent node ``dest``.

        The one-destination case of :meth:`multicast`: it raises if the
        node is halted, ``dest`` is not a neighbour, the edge was already
        used this round, or the payload exceeds the bit budget.
        """
        if self.halted:
            raise HaltedNodeError(f"halted node {self.node_id} tried to send")
        # ``skip=None`` matches no id, so ``dest=-1`` is refused too.
        self._enqueue_many(self.node_id, (dest,), None, (kind, *fields),
                           self._neighbor_set)

    def multicast(self, dests: list[int], payload: tuple, skip: int = -1) -> None:
        """Send the prebuilt ``payload`` (``(kind, *fields)``) to each of ``dests``.

        Skips the id ``skip`` (``-1``, no node, by default).  Destinations
        are checked in ``dests`` order (halted, not a neighbour, edge
        already used this round, bit budget), so an error leaves exactly
        the earlier destinations enqueued, and a halted node raises only
        if there is a destination to send to.  Every message is
        delivered at the start of the next round.
        """
        if self.halted and any(dest != skip for dest in dests):
            raise HaltedNodeError(f"halted node {self.node_id} tried to send")
        self._enqueue_many(self.node_id, dests, skip, payload, self._neighbor_set)

    def edge_free(self, dest: int) -> bool:
        """Whether the edge to ``dest`` is still unused by us this round.

        Lets protocols with several concurrent sub-activities pace their
        sends instead of violating the one-message-per-edge rule.
        """
        return self._network._edge_free(dest)  # noqa: SLF001

    def request_wake(self, round_index: int) -> None:
        """Schedule this node to run in ``round_index`` (a future round)."""
        if self.halted:
            raise HaltedNodeError(f"halted node {self.node_id} requested a wake-up")
        self._network._schedule_wake(self.node_id, round_index)  # noqa: SLF001

    def halt(self) -> None:
        """Terminate this node permanently (local termination).

        The one place ``halted`` turns true: the network counts it.
        """
        if not self.halted:
            self.halted = True
            self._network._halted += 1  # noqa: SLF001

    def _end_run(self, ended: "_EndedRun") -> None:
        """Point at ``ended`` instead of the network whose run is over."""
        self._network = ended
        self._enqueue_many = ended._enqueue_many  # noqa: SLF001


class _EndedRun:
    """What every context of a finished run points at instead of its network.

    It keeps what a node may still read (``n``, the last
    ``round_index``) and refuses every action by name.  Holding no
    reference back, it lets the network be freed by reference counting.
    """

    __slots__ = ("n", "round_index")

    def __init__(self, n: int, round_index: int):
        self.n = n
        self.round_index = round_index

    @staticmethod
    def _refuse(node: int, action: str) -> NoReturn:
        raise RunEndedError(f"node {node} tried to {action} after its run ended")

    def _enqueue_many(self, src: int, dests, skip, payload, neighbors) -> None:
        self._refuse(src, "send")

    def _schedule_wake(self, node: int, round_index: int) -> None:
        self._refuse(node, "request a wake-up")

    def _edge_free(self, dst: int) -> bool:
        raise RunEndedError(f"edge_free({dst}) asked after the run ended")

    @property
    def _halted(self) -> int:
        raise RunEndedError("a node tried to halt after its run ended")
