"""Network nodes (sites)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.errors import NodeUnreachable
from repro.net.message import Message
from repro.sim.sync import Mailbox

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class Node:
    """A site on the network with a message mailbox.

    ``on_crash`` / ``on_restart`` callbacks let the integration layer
    tie the node's fate to its local database engine and communication
    manager.
    """

    def __init__(self, kernel: "Kernel", name: str, is_central: bool = False):
        self.kernel = kernel
        self.name = name
        self.is_central = is_central
        self.mailbox = Mailbox(name=f"{name}:mail")
        self.crashed = False
        # True while :meth:`restart` runs its recovery callbacks: the
        # node is not usable yet, and a second concurrent restart must
        # not re-enter recovery.
        self.restarting = False
        self.on_crash: list[Callable[[], None]] = []
        self.on_restart: list[Callable[[], None]] = []

    def recv(self) -> Generator[Any, Any, Message]:
        """Receive the next message (blocks); use with ``yield from``.

        Not itself a generator -- it checks the node and hands back the
        mailbox's -- so a receive costs one generator frame, not two.
        """
        if self.crashed:
            raise NodeUnreachable(f"{self.name} is down")
        return self.mailbox.recv()

    def deliver(self, message: Message) -> bool:
        """Called by the network; returns False if the node is down."""
        if self.crashed:
            return False
        self.mailbox.put(message)
        return True

    def crash(self) -> None:
        """Fail the node: pending mail is lost, components notified."""
        if self.crashed:
            return
        self.crashed = True
        self.mailbox.drain()
        self.mailbox.fail_waiters(NodeUnreachable(f"{self.name} crashed"))
        for callback in self.on_crash:
            callback()

    def restart(self) -> Generator[Any, Any, None]:
        """Bring the node back up (components recover first).

        Restarting a running node is a no-op, and so is a restart that
        lands while another restart is mid-recovery: both generators
        would otherwise pass the ``crashed`` check (the flag only
        clears after the recovery callbacks) and run ARIES recovery
        twice, concurrently, over the same logs.
        """
        if not self.crashed or self.restarting:
            return
        self.restarting = True
        try:
            self.mailbox = Mailbox(name=f"{self.name}:mail")
            for callback in self.on_restart:
                result = callback()
                if result is not None and hasattr(result, "__next__"):
                    yield from result
            self.crashed = False
        finally:
            self.restarting = False

    def __repr__(self) -> str:
        role = "central" if self.is_central else "local"
        status = "down" if self.crashed else "up"
        return f"<Node {self.name} ({role}, {status})>"
