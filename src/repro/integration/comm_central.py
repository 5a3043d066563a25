"""The central communication manager.

"The communication manager of the central system is the counterpart of
the local communication managers" (§2).  It offers the GTM a
request/reply API over the star network: ``request`` sends a message to
a site and returns when the correlated reply arrives (or raises
:class:`~repro.errors.MessageTimeout`); ``send`` is fire-and-forget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import MessageTimeout
from repro.net.message import Message
from repro.sim.events import TIMED_OUT, TimedWait

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network
    from repro.net.node import Node
    from repro.sim.kernel import Kernel


class CentralCommunicationManager:
    """Request/reply endpoint of the central system."""

    def __init__(self, kernel: "Kernel", network: "Network", node: "Node"):
        self.kernel = kernel
        self.network = network
        self.node = node
        # Request msg_id -> the requester parked on its reply.
        self._pending: dict[int, TimedWait] = {}
        # Replies to a crashed incarnation's requests are strangers to
        # the restarted one: they flow to the ``on_unmatched`` hooks.
        node.on_restart.append(self._pending.clear)
        node.serve(self._route_reply, "central-comm")
        self.requests = 0
        self.timeouts = 0
        # Observers of replies that matched no pending request -- the
        # recovery manager uses them to spot orphaned subtransactions
        # (a site answered after the requester had already moved on).
        self.on_unmatched: list = []

    def _route_reply(self, message: Message) -> None:
        """Hand an incoming reply to the requester awaiting it."""
        # ``reply_to`` is None on a non-reply; None is never a key.
        wait = self._pending.pop(message.reply_to, None)
        if wait is not None:
            wait.wake(message)
        else:
            self.kernel.trace.emit(
                "message_unmatched", self.node.name, message.kind,
                sender=message.sender,
            )
            for hook in self.on_unmatched:
                hook(message)

    # -- API used by the GTM and the protocols --------------------------------

    def send(self, site: str, kind: str, gtxn_id: Optional[str] = None, **payload: Any) -> None:
        """One-way message to ``site``."""
        self.network.send(
            Message(kind=kind, sender=self.node.name, dest=site,
                    payload=payload, gtxn_id=gtxn_id)
        )

    def request(
        self,
        site: str,
        kind: str,
        gtxn_id: Optional[str] = None,
        timeout: Optional[float] = None,
        **payload: Any,
    ) -> Generator[Any, Any, Message]:
        """Send and await the correlated reply.

        Raises :class:`MessageTimeout` when no reply arrives in time
        (lost message, crashed site); the caller decides whether to
        retry, wait for recovery, or abort globally.
        """
        message = Message(kind, self.node.name, site, payload, gtxn_id)
        # One object is the pending-table entry, the deadline's queue
        # entry and what this process parks on.  The deadline is armed
        # when the process parks, after the send; the reply's wake
        # retires it.
        wait = TimedWait(timeout)
        self._pending[message.msg_id] = wait
        self.requests += 1
        self.network.send(message)
        reply = yield wait
        if reply is TIMED_OUT:
            self._pending.pop(message.msg_id, None)
            self.timeouts += 1
            # Stop the reliable layer from retransmitting a request we
            # gave up on: the caller's retry sends a fresh one, and a
            # late ghost delivery of this one could make the site act
            # on a transaction the coordinator already resolved.
            self.network.abandon(message)
            raise MessageTimeout(f"{kind} to {site} (gtxn={gtxn_id})")
        return reply

    def __repr__(self) -> str:
        return f"<CentralCommunicationManager pending={len(self._pending)}>"
