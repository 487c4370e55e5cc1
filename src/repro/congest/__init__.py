"""CONGEST-model simulators (Section I-A of the paper, and beyond it).

Write a distributed algorithm as a :class:`~repro.congest.node.Protocol`
subclass, instantiate a :class:`~repro.congest.network.Network` over a
:class:`~repro.graphs.Graph`, and ``run()`` it.  The engine enforces the
model rules (one O(log n)-bit message per edge-direction per round) and
meters rounds, messages, bits, send balance, and per-node memory.

The substrate a protocol runs on is described by a
:class:`~repro.congest.model.NetworkModel`: the default is the paper's
synchronous fault-free rounds; ``mode="async"`` dispatches the same
protocols onto the event-queue :class:`~repro.congest.async_engine.
AsyncNetwork` (per-edge latency distributions, message loss and
reordering via a :class:`~repro.congest.faults.FaultPlan`, node churn).
"""

from repro.congest.async_engine import AsyncAdversary, AsyncNetwork
from repro.congest.errors import (
    BandwidthExceededError,
    CongestError,
    DuplicateSendError,
    HaltedNodeError,
    NotANeighborError,
    RoundLimitExceeded,
)
from repro.congest.faults import FaultInjector, FaultPlan
from repro.congest.message import Message, payload_bits, word_bits
from repro.congest.metrics import Metrics, state_size_words
from repro.congest.model import LatencySpec, NetworkModel
from repro.congest.network import DEFAULT_BANDWIDTH_WORDS, Network
from repro.congest.node import Context, Protocol

__all__ = [
    "Network",
    "AsyncNetwork",
    "AsyncAdversary",
    "NetworkModel",
    "LatencySpec",
    "FaultPlan",
    "FaultInjector",
    "Protocol",
    "Context",
    "Message",
    "Metrics",
    "state_size_words",
    "payload_bits",
    "word_bits",
    "DEFAULT_BANDWIDTH_WORDS",
    "CongestError",
    "BandwidthExceededError",
    "DuplicateSendError",
    "NotANeighborError",
    "HaltedNodeError",
    "RoundLimitExceeded",
]
