"""Exceptions raised by the CONGEST simulator.

Every violation of the model's rules (Section I-A of the paper) is a
distinct exception so tests can assert on the *specific* rule an
algorithm would break.
"""

from __future__ import annotations

__all__ = [
    "CongestError",
    "BandwidthExceededError",
    "DuplicateSendError",
    "NotANeighborError",
    "HaltedNodeError",
    "RoundLimitExceeded",
    "RunEndedError",
]


class CongestError(Exception):
    """Base class for CONGEST-model violations and simulator failures."""


class BandwidthExceededError(CongestError):
    """A message exceeded the per-edge per-round bit budget B = O(log n)."""


class DuplicateSendError(CongestError):
    """A node sent two messages over the same edge in one round.

    The CONGEST model allows exactly one B-bit message per edge-direction
    per round; pack fields into one message instead.
    """


class NotANeighborError(CongestError):
    """A node addressed a message to a non-adjacent node.

    Nodes may only communicate through the edges of the graph.
    """


class HaltedNodeError(CongestError):
    """A halted node attempted to send a message or schedule a wake-up."""


class RoundLimitExceeded(CongestError):
    """The simulation hit ``max_rounds`` before the protocol terminated."""


class RunEndedError(CongestError):
    """A node's context was used to send or schedule after its run ended.

    A finished :class:`~repro.congest.network.Network` unlinks each
    context from itself (see ``docs/ARCHITECTURE.md``, "Run lifetime"),
    so a context outlives its run only as a record of its node.
    """
