"""Composable sub-protocol machinery.

The paper's algorithms are built from recurring distributed building
blocks — leader election, BFS-tree construction, tree broadcast, and the
rotation walk itself.  Each block is a :class:`SubMachine`: a per-node
state machine with a message-kind namespace, hosted inside a full
:class:`~repro.congest.node.Protocol`.  The host routes each round's
incoming messages, *batched per machine*, to the machine owning their
kind prefix, and polls ``done``.

Batching matters under CONGEST: a machine that reacted to every message
individually could easily try to send twice over one edge in a round;
seeing the whole round's traffic at once lets it aggregate first
(e.g. flood-min forwards only the smallest id heard this round).

Sub-machines never touch the engine's wake-up API directly; the host
multiplexes the single per-node wake stream across its machines.
"""

from __future__ import annotations

from repro.congest.message import Message
from repro.congest.node import Context

__all__ = ["SubMachine", "SubMachineHost"]

#: Message kind -> owning machine's prefix, and -> the suffix within
#: that namespace, resolved once per distinct kind for the whole process
#: (the protocols use a few dozen kinds at most); and ``(prefix,
#: suffix)`` -> kind, formatted once, so machines of every class and
#: generation share one string per kind.  Module-level on purpose:
#: per-instance caches would count against every node's audited state.
_PREFIX_OF: dict[str, str] = {}
_SUFFIX_OF: dict[str, str] = {}
_KIND_OF: dict[tuple[str, str], str] = {}


def _resolve_prefix(kind: str) -> str:
    prefix = _PREFIX_OF[kind] = kind.split(".", 1)[0]
    return prefix


def _resolve_suffix(kind: str) -> str:
    suffix = _SUFFIX_OF[kind] = kind.split(".", 1)[1]
    return suffix


class SubMachine:
    """Base class for a per-node sub-protocol.

    Subclasses set ``PREFIX`` (their message-kind namespace, unique per
    *instance* when several generations coexist, e.g. ``"bfs7"``) and
    implement :meth:`begin`, :meth:`on_messages`, and optionally
    :meth:`on_wake`.  Completion is signalled by setting
    ``self.done = True`` plus any result attributes the host reads.
    """

    PREFIX = ""

    def __init__(self) -> None:
        self.done = False
        self.failed = False
        self._host: "SubMachineHost | None" = None

    def kind(self, suffix: str) -> str:
        """Fully-qualified message kind within this machine's namespace."""
        key = (self.PREFIX, suffix)
        kind = _KIND_OF.get(key)
        if kind is None:
            kind = _KIND_OF[key] = f"{self.PREFIX}.{suffix}"
        return kind

    def schedule(self, ctx: Context, round_index: int) -> None:
        """Request a wake-up at ``round_index`` (via the host multiplexer)."""
        assert self._host is not None, "machine used before activation"
        self._host.machine_schedule(ctx, self, round_index)

    def begin(self, ctx: Context) -> None:
        """Called once when the host activates this machine."""

    def on_messages(self, ctx: Context, messages: list[Message]) -> None:
        """Handle this round's batch of messages in this namespace."""

    def on_wake(self, ctx: Context) -> None:
        """Handle a wake-up previously requested via :meth:`schedule`."""

    def release(self) -> None:
        """Drop the links back to the host once the run has ended.

        Those are ``_host`` and the injected transport ``_send``, which
        may be a method of the host (a paced out-queue, DHC1's virtual
        fabric).  Results stay readable; the machine cannot send again.
        """
        self._host = None
        if hasattr(self, "_send"):
            self._send = None


class SubMachineHost:
    """Mixin for protocols hosting sub-machines.

    Provides per-round batched message routing, early-message buffering
    (a neighbour may reach a later phase first and send messages for a
    machine this node has not activated yet), and wake-up multiplexing.
    """

    def __init__(self) -> None:
        self._machines: dict[str, SubMachine] = {}
        self._early: dict[str, list[Message]] = {}
        self._wake_targets: dict[int, set[str]] = {}
        self._retired: set[str] = set()

    def activate(self, ctx: Context, machine: SubMachine) -> None:
        """Start a sub-machine and replay any buffered early messages."""
        if not machine.PREFIX:
            raise ValueError("sub-machine must define a PREFIX")
        machine._host = self
        self._machines[machine.PREFIX] = machine
        machine.begin(ctx)
        backlog = self._early.pop(machine.PREFIX, [])
        if backlog and not machine.done:
            machine.on_messages(ctx, backlog)

    def deactivate(self, machine: SubMachine) -> None:
        """Remove a finished machine; later messages for it are dropped.

        Retiring keeps per-node state proportional to *live* activity —
        without it every completed election/BFS/walk would pin its peer
        lists forever and the memory audit would overstate the
        algorithms' footprint.
        """
        self._machines.pop(machine.PREFIX, None)
        self._early.pop(machine.PREFIX, None)
        self._retired.add(machine.PREFIX)

    def machine_schedule(self, ctx: Context, machine: SubMachine, round_index: int) -> None:
        """Request a wake-up for ``machine`` at ``round_index``."""
        pending = self._wake_targets.setdefault(round_index, set())
        if not pending:
            ctx.request_wake(round_index)
        pending.add(machine.PREFIX)

    def dispatch(self, ctx: Context, inbox: list[Message]) -> None:
        """Route this round's messages and due wake-ups to their machines.

        Messages are processed before wake-ups so that deadline-style
        wake-ups observe everything that arrived in their round.
        """
        prefix_of = _PREFIX_OF
        machines = self._machines
        if len(inbox) == 1:  # the common case: hand the inbox on as is
            kind = inbox[0][1][0]
            prefix = prefix_of.get(kind) or _resolve_prefix(kind)
            machine = machines.get(prefix)
            if machine is None:
                self._hold(prefix, inbox)
            elif not machine.done:
                machine.on_messages(ctx, inbox)
        elif inbox:
            batches: dict[str, list[Message]] = {}
            for message in inbox:
                kind = message[1][0]
                prefix = prefix_of.get(kind) or _resolve_prefix(kind)
                batches.setdefault(prefix, []).append(message)
            for prefix, batch in batches.items():
                machine = machines.get(prefix)
                if machine is None:
                    self._hold(prefix, batch)
                elif not machine.done:
                    machine.on_messages(ctx, batch)
        if not self._wake_targets:
            return
        due = self._wake_targets.pop(ctx.round_index, None)
        if due:
            for prefix in sorted(due):
                machine = machines.get(prefix)
                if machine is not None and not machine.done:
                    machine.on_wake(ctx)

    def release(self) -> None:
        """Unlink this node's sub-machines from it once the run has ended.

        A machine keeps its host, and often a transport bound to it,
        while the host keeps the machine in ``_machines`` or in an
        attribute: one reference cycle per machine.  The network calls
        this after its last memory audit, which counts both links.
        """
        machines = [value for value in vars(self).values()
                    if isinstance(value, SubMachine)]
        machines.extend(self._machines.values())
        for machine in machines:
            machine.release()

    def _hold(self, prefix: str, batch: list[Message]) -> None:
        """Buffer messages for a machine not yet activated (drop if retired)."""
        if prefix not in self._retired:
            self._early.setdefault(prefix, []).extend(batch)
