"""Network nodes: every participant's mailbox, serve loop and lifecycle."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.errors import NodeUnreachable
from repro.net.message import Message
from repro.sim.sync import Mailbox

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process


class Node:
    """A participant on the network: mailbox, serve loop and lifecycle.

    Every role -- data site, coordinator shard, Paxos acceptor --
    crashes, restarts and serves through its node, and hangs its own
    work on the node's hooks:

    * ``on_crash`` callbacks run, in registration order, when it crashes;
    * ``on_restart`` callbacks recover it while it comes back up (one
      may return a generator, which the restart drives);
    * ``after_restart`` duties run once it is up and serving again
      (global recovery, failover), unless it crashed again meanwhile;
    * :meth:`serve` runs its receive loop, which every restart respawns.
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
        self.on_restart: list[Callable[[], Any]] = []
        self.after_restart: list[Callable[[], Any]] = []
        #: The serve loop's process (see :meth:`serve`).
        self.server: Optional["Process"] = None
        self._handle: Optional[Callable[[Message], Any]] = None

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

    def serve(self, handle: Callable[[Message], Any], name: str) -> None:
        """Spawn the loop that runs ``handle(message)`` on every arrival.

        ``handle`` may return a generator; the loop drives it before
        the next receive, so such messages are handled one at a time.
        A crash ends the loop (a message handed to it in the crash's
        instant is lost) and :meth:`restart` spawns a fresh one under
        the same process ``name``.
        """
        self._handle = handle
        self.server = self.kernel.spawn(self._serve(handle), name=name)

    def _serve(self, handle: Callable[[Message], Any]) -> Generator[Any, Any, None]:
        while True:
            try:
                message = yield from self.recv()
            except NodeUnreachable:
                return
            if self.crashed:
                # Handed over in the crash's instant: the mail is lost.
                return
            work = handle(message)
            if work is not None:
                yield from work

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
        """Bring the node back up: recover, serve, then run its duties.

        Restarting a running node is a no-op, and so is a restart that
        lands while another restart is mid-recovery: both generators
        would otherwise pass the ``crashed`` check (the flag only
        clears after the recovery callbacks) and run ARIES recovery
        twice, concurrently, over the same logs.  The duties run after
        ``restarting`` cleared: a crash during them may restart anew.
        """
        if not self.crashed or self.restarting:
            return
        self.restarting = True
        try:
            self.mailbox = Mailbox(name=f"{self.name}:mail")
            for callback in self.on_restart:
                result = callback()
                if result is not None:
                    yield from result
            server = self.server
            if server is not None and server.done:
                self.server = self.kernel.spawn(
                    self._serve(self._handle), name=server.label
                )
            self.crashed = False
        finally:
            self.restarting = False
        for duty in self.after_restart:
            if self.crashed:
                return  # crashed again: the next restart owns the duties
            result = duty()
            if result is not None:
                yield from result

    def __repr__(self) -> str:
        role = "central" if self.is_central else "local"
        status = "down" if self.crashed else "up"
        return f"<Node {self.name} ({role}, {status})>"

