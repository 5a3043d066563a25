"""Network messages.

The message kinds mirror the paper's protocol vocabulary: ``prepare``,
``ready``, ``commit``, ``abort``, ``finished``, ``undo``, plus the
operational kinds the integration layer needs (``execute_op``,
``op_done``, ``status``, ...).  ``reply_to`` correlates a response with
its request so the central communication manager can match futures.

:class:`BatchMessage` is a *physical envelope*: several logical
messages bound for the same destination, coalesced by the network's
per-destination outbox (see :class:`~repro.net.network.Network`).
Receivers never see it -- the network unwraps envelopes at delivery
time -- but the metrics distinguish logical messages from envelopes so
the EXP-T5 accounting stays honest.

Both classes are hand-written ``__slots__`` classes rather than frozen
dataclasses: every request/response pair allocates a message, and the
frozen-dataclass construction path (one ``object.__setattr__`` per
field) dominated the envelope cost in profiles.  Instances are
immutable by convention, except for the network's ``abandoned`` mark;
equality remains field-by-field, like the dataclasses they replace.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

_msg_counter = itertools.count(1)


def reset_message_ids() -> None:
    """Restart the global message-id counter (test support only).

    Message ids appear in traces; two runs inside one interpreter can
    only produce byte-identical traces if the counter starts from the
    same point.  Production code must never call this.
    """
    global _msg_counter
    _msg_counter = itertools.count(1)


class Message:
    """One logical network message."""

    __slots__ = (
        "kind", "sender", "dest", "payload", "gtxn_id", "reply_to", "msg_id", "abandoned",
    )

    def __init__(
        self,
        kind: str,
        sender: str,
        dest: str,
        payload: Optional[dict[str, Any]] = None,
        gtxn_id: Optional[str] = None,
        reply_to: Optional[int] = None,
        msg_id: Optional[int] = None,
    ):
        self.kind = kind
        self.sender = sender
        self.dest = dest
        self.payload = {} if payload is None else payload
        self.gtxn_id = gtxn_id
        self.reply_to = reply_to
        self.msg_id = next(_msg_counter) if msg_id is None else msg_id
        #: Set by :meth:`Network.abandon <repro.net.network.Network.abandon>`
        #: when the requester gave up; not part of the message's value.
        self.abandoned = False

    @property
    def link(self) -> tuple[str, str]:
        """The directed link this message travels, ``(sender, dest)``.

        Links are FIFO in the default network (fixed latency, no
        reordering), so two deliveries on the same link are *ordered*,
        not concurrent -- the ``repro.check`` scheduler never offers
        their swap as a schedule choice.
        """
        return (self.sender, self.dest)

    def reply(self, kind: str, **payload: Any) -> "Message":
        """Build a response correlated with this message."""
        return Message(
            kind,
            self.dest,
            self.sender,
            payload,
            self.gtxn_id,
            self.msg_id,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.sender == other.sender
            and self.dest == other.dest
            and self.payload == other.payload
            and self.gtxn_id == other.gtxn_id
            and self.reply_to == other.reply_to
            and self.msg_id == other.msg_id
        )

    # Payload dicts make messages unhashable, exactly like the frozen
    # dataclass this class replaces (its generated hash raised on the
    # dict field).
    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return f"{self.kind}({self.sender}->{self.dest}, gtxn={self.gtxn_id})"

    def __repr__(self) -> str:
        return (
            f"Message(kind={self.kind!r}, sender={self.sender!r}, "
            f"dest={self.dest!r}, payload={self.payload!r}, "
            f"gtxn_id={self.gtxn_id!r}, reply_to={self.reply_to!r}, "
            f"msg_id={self.msg_id!r})"
        )


class BatchMessage:
    """One physical envelope carrying several logical messages.

    All carried messages share the same ``(sender, dest)`` link -- the
    outbox coalesces per destination, so an envelope never mixes
    senders.  The envelope itself has no protocol meaning; it exists so
    one network transmission (one latency sample, one loss trial) can
    carry many logical messages.
    """

    __slots__ = ("sender", "dest", "messages", "msg_id")

    def __init__(
        self,
        sender: str,
        dest: str,
        messages: tuple[Message, ...],
        msg_id: Optional[int] = None,
    ):
        if not messages:
            raise ValueError("empty batch")
        for message in messages:
            if message.sender != sender or message.dest != dest:
                raise ValueError(
                    f"batch {sender}->{dest} cannot carry "
                    f"{message.sender}->{message.dest} message"
                )
        self.sender = sender
        self.dest = dest
        self.messages = messages
        self.msg_id = next(_msg_counter) if msg_id is None else msg_id

    def __len__(self) -> int:
        return len(self.messages)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BatchMessage):
            return NotImplemented
        return (
            self.sender == other.sender
            and self.dest == other.dest
            and self.messages == other.messages
            and self.msg_id == other.msg_id
        )

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        kinds = "+".join(m.kind for m in self.messages)
        return f"batch[{kinds}]({self.sender}->{self.dest})"

    def __repr__(self) -> str:
        return (
            f"BatchMessage(sender={self.sender!r}, dest={self.dest!r}, "
            f"messages={self.messages!r}, msg_id={self.msg_id!r})"
        )
