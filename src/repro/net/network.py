"""The star network.

Messages travel only between the central node and a local node -- the
paper's Figure 1 communication scheme.  Latency models, optional
message loss, per-kind counters and a full message trace are provided
for the experiments.

With ``batch_window > 0`` logical messages go through a per-link
outbox, a :class:`~repro.net.batching.FlushGroups` keyed by
``(sender, dest)`` (size cap ``batch_max_msgs``, policy
``batch_policy``); each flushed group travels as one
:class:`~repro.net.message.BatchMessage` envelope -- one latency
sample, one loss trial, one transmission.  Metrics count *logical*
messages (``sent``/``by_kind``) and *physical* envelopes
(``envelopes``) separately so the EXP-T5 message-complexity accounting
stays honest; ``piggybacked`` counts the logical messages that rode
along in an envelope after the first.  ``batch_window = 0`` (the
default) takes exactly the unbatched path of the seed system.

A node crash purges its sender-side outboxes: buffered logical
messages die with the crashed sender (its batching state is volatile,
exactly like its reliable-retransmission state) instead of being
transmitted by a stale scheduled flush after a quick restart.
Destination-bound outboxes are left alone -- their deadline flush
transmits normally and, under ``reliable=True``, the retransmission
loop carries the envelope across the destination's outage.

Fault knobs beyond probabilistic loss: ``dup_rate`` delivers a
transmission twice, ``reorder_rate`` adds extra latency to some
transmissions so later ones overtake them, and named link partitions
(:meth:`Network.partition` / :meth:`Network.heal`) cut a link in both
directions until healed.

With ``reliable=True`` every physical transmission is acknowledged by
the receiving end: unacknowledged transmissions are retransmitted with
exponential backoff up to a retry budget, and the receiver suppresses
duplicate transmissions (re-acking them, in case the first ack was
lost).  That receiver filter is the system's only duplicate filter:
no node above the network remembers which requests it has handled.
It is a ``delivered`` flag on the transmission's record, which every
delivery event of that transmission carries: the first delivery sets
it, every later copy finds it set.  The flag outlives a receiver
crash, and the record dies with its last queued delivery or timer
entry, so the filter holds only transmissions still in flight.
So ``dup_rate > 0`` requires ``reliable=True``, and a retransmitted
or duplicated transmission reaches its node at most once.  Acks and
retransmissions are *physical* control traffic -- they never appear
in the logical ``sent``/``by_kind`` accounting.  All new knobs at
their defaults leave the transmission path byte-identical to the
unreliable seed system: no extra random draws, no extra events.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import NodeUnreachable, TopologyViolation
from repro.net.batching import FlushGroups
from repro.net.message import BatchMessage, Message
from repro.net.node import Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class FixedLatency:
    """Constant message delay."""

    def __init__(self, delay: float = 1.0):
        self.delay = delay

    def sample(self, rng) -> float:
        return self.delay


class _Xmit:
    """One reliable transmission, and the argument of its retransmit timer.

    The record is queued as ``kernel._fire_timer``'s argument, so the
    run loop's cancelled-timer test reads :attr:`_done` and a firing
    calls :meth:`_expire`.  An ack is not an event of its own:
    ``Network._send_ack`` reserves the sequence number its delivery
    would have had and records ``(arrival, seq)`` in :attr:`ack`.  The
    armed timer is spent exactly when that key sorts below the timer's
    own ``(time, seq)`` -- when the ack event would have dispatched
    first and cancelled it.
    """

    __slots__ = (
        "network", "xid", "messages", "attempts", "deadline", "ack", "retired", "delivered",
    )

    def __init__(self, network: "Network", xid: int, messages: tuple[Message, ...]):
        self.network = network
        self.xid = xid
        self.messages = messages
        self.attempts = 0
        #: ``(time, seq)`` of the armed retransmit timer's queue entry.
        self.deadline: Optional[tuple[float, int]] = None
        #: ``(arrival, seq)`` of the earliest ack, ``None`` until one is sent.
        self.ack: Optional[tuple[float, int]] = None
        self.retired = False
        #: Set by the first delivery: later copies are duplicates.
        self.delivered = False

    @property
    def _done(self) -> bool:
        if self.retired:
            return True
        ack = self.ack
        if ack is not None and ack < self.deadline:
            self.retire()
            return True
        return False

    def retire(self) -> None:
        """Acked, dropped or given up: forget the transmission."""
        self.retired = True
        self.network._pending_xmits.pop(self.xid, None)

    def _expire(self) -> None:
        self.network._retransmit(self)


class Network:
    """Star-topology message fabric."""

    #: Upper bound of the extra delay a reordered transmission draws.
    REORDER_SPREAD = 5.0
    #: Each retransmission waits ``RETRANSMIT_BACKOFF`` times longer
    #: than the previous attempt ...
    RETRANSMIT_BACKOFF = 2.0
    #: ... for at most this many retransmissions of one transmission ...
    MAX_RETRANSMITS = 12
    #: ... and never longer than this: the cap keeps retry schedules
    #: sane under long partitions (15 · 2¹¹ ≈ 30k time units otherwise).
    MAX_RETRANSMIT_DELAY = 300.0

    def __init__(
        self,
        kernel: "Kernel",
        latency: Optional[FixedLatency] = None,
        loss_rate: float = 0.0,
        batch_window: float = 0.0,
        batch_policy: str = "static",
        batch_max_msgs: int = 0,
        dup_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reliable: bool = False,
        retransmit_timeout: float = 15.0,
    ):
        for name, rate in (
            ("loss_rate", loss_rate), ("dup_rate", dup_rate),
            ("reorder_rate", reorder_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} {rate} outside [0, 1]")
        if dup_rate and not reliable:
            # Only the reliable receiver filters duplicates; nothing
            # above the network does.
            raise ValueError(f"dup_rate {dup_rate} needs reliable=True")
        self.kernel = kernel
        self.latency = latency or FixedLatency(1.0)
        self.loss_rate = loss_rate
        self.batch_window = batch_window
        # Per-link outboxes: (sender, dest) -> queued logical messages.
        self.outbox = FlushGroups(
            kernel, batch_window, batch_policy, batch_max_msgs, self._send_envelope
        )
        self.dup_rate = dup_rate
        self.reorder_rate = reorder_rate
        self.reliable = reliable
        self.retransmit_timeout = retransmit_timeout
        self._nodes: dict[str, Node] = {}
        # ``(sender, dest)`` pairs already checked against membership
        # and the star topology; cleared whenever a node is added.
        self._valid_links: set[tuple[str, str]] = set()
        self._rng = kernel.rng.stream("network")
        # Deterministic fault hook: message kinds to drop exactly once
        # (used by the fault injector to lose a specific reply).
        self.drop_once: set[str] = set()
        # Named link partitions: a link in this set drops traffic in
        # both directions until healed.
        self._partitioned: set[frozenset[str]] = set()
        # Reliable-delivery state: unacked transmissions by id (sender
        # side).  The receiver-side duplicate filter is each record's
        # ``delivered`` flag.
        self._xmit_ids = itertools.count(1)
        self._pending_xmits: dict[int, _Xmit] = {}
        # Set by the first :meth:`abandon`; until then no transmission
        # looks for abandoned riders.  The mark itself is each message's
        # ``abandoned`` flag, so it lives as long as what carries it.
        self._abandoning = False
        # Metrics.  ``sent``/``delivered``/``dropped``/``by_kind`` count
        # logical messages; ``envelopes`` counts physical transmissions.
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.envelopes = 0
        self.piggybacked = 0
        self.by_kind: dict[str, int] = {}
        # Reliability/fault metrics (physical layer).
        self.retransmissions = 0
        self.retransmit_drops = 0
        # Per-destination logical messages whose retry budget ran out:
        # before this counter a budget-exhausted request vanished
        # silently from the metrics' point of view (only the aggregate
        # ``retransmit_drops`` moved, with no site attribution), so
        # chaos runs could not assert on *who* lost traffic.
        self.retransmit_budget_exhausted: dict[str, int] = {}
        self.lost_transmissions = 0
        self.partition_blocked = 0
        self.duplicates_injected = 0
        self.duplicates_suppressed = 0
        self.reordered = 0
        self.acks_sent = 0
        self.abandoned_messages = 0
        # Logical messages purged from a crashed sender's outboxes.
        self.purged_batched = 0

    # -- membership -----------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node {node.name}")
        self._nodes[node.name] = node
        self._valid_links.clear()
        # Batching state buffered *at* this node is volatile: purge it
        # the moment the node crashes so a stale scheduled flush cannot
        # transmit pre-crash messages after a quick restart.
        node.on_crash.append(lambda name=node.name: self._purge_outboxes(name))
        return node

    def node(self, name: str) -> Node:
        if name not in self._nodes:
            raise NodeUnreachable(f"unknown node {name}")
        return self._nodes[name]

    def nodes(self) -> list[Node]:
        return list(self._nodes.values())

    @property
    def central(self) -> Node:
        for node in self._nodes.values():
            if node.is_central:
                return node
        raise NodeUnreachable("no central node registered")

    # -- sending ----------------------------------------------------------------

    def _validate_link(self, sender: str, dest: str) -> None:
        nodes = self._nodes
        src = nodes.get(sender)
        if src is None:
            raise NodeUnreachable(f"unknown node {sender}")
        dst = nodes.get(dest)
        if dst is None:
            raise NodeUnreachable(f"unknown node {dest}")
        if not (src.is_central or dst.is_central):
            raise TopologyViolation(f"local-to-local message {sender} -> {dest}")
        self._valid_links.add((sender, dest))

    def send(self, message: Message) -> None:
        """Asynchronously transmit ``message`` (fire and forget)."""
        if (message.sender, message.dest) not in self._valid_links:
            self._validate_link(message.sender, message.dest)
        self.sent += 1
        kind = message.kind
        by_kind = self.by_kind
        try:
            by_kind[kind] += 1
        except KeyError:
            by_kind[kind] = 1
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                "message",
                message.sender,
                kind,
                dest=message.dest,
                gtxn=message.gtxn_id,
                msg_id=message.msg_id,
                reply_to=message.reply_to,
            )
        if self.drop_once and kind in self.drop_once:
            self.drop_once.discard(kind)
            self._drop((message,), "injected")
            return
        if self.batch_window > 0:
            self.outbox.add((message.sender, message.dest), message)
        elif (
            self.reliable or self._partitioned or self.loss_rate
            or self.reorder_rate
        ):
            self._transmit(message.sender, message.dest, (message,))
        else:
            # The fault-free wire, straight-line: one envelope, one
            # latency sample (the only RNG draw ``_transmit`` would
            # make with every fault knob at zero), one delivery.
            self.envelopes += 1
            self.kernel._schedule(
                self.latency.sample(self._rng), self._deliver_all, (message,)
            )

    # -- batching --------------------------------------------------------------

    def _send_envelope(self, key: tuple[str, str], queue: list[Message]) -> None:
        """The outbox's send step: one flushed link group, one envelope."""
        sender, dest = key
        src = self._nodes.get(sender)
        if src is None or src.crashed:
            # The sender died while the envelope sat in its outbox.
            self._drop(queue, "sender down")
            return
        envelope = BatchMessage(sender=sender, dest=dest, messages=tuple(queue))
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                "envelope", sender, "batch", dest=dest, size=len(envelope),
                kinds="+".join(m.kind for m in envelope.messages),
                msg_id=envelope.msg_id,
            )
        self._transmit(sender, dest, envelope.messages)

    def flush(self) -> None:
        """Force every pending outbox onto the wire immediately."""
        self.outbox.flush_all()

    def _purge_outboxes(self, name: str) -> None:
        """Drop outboxes buffered at ``name``; it just crashed.

        Without this, a crash-then-restart inside one batch window left
        the ``(key, generation)`` guard satisfied: the scheduled flush
        fired against a now-healthy sender and transmitted messages
        that were buffered *before* the crash -- state that should have
        died with it (the reliable path's ``_attempt_xmit`` already
        treats sender-side retransmission state as volatile).  Only
        sender-side outboxes are purged: envelopes headed *to* the
        crashed node still flush on their deadline, where the reliable
        path retransmits them across the outage and the unreliable path
        drops them at delivery exactly as the seed did.
        """
        purged = self.outbox.drop(lambda key: key[0] != name)
        self.purged_batched += len(purged)
        self._drop(purged, "sender down")

    # -- partitions ------------------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Cut the link between ``a`` and ``b`` (both directions)."""
        self.node(a)
        self.node(b)
        self._partitioned.add(frozenset((a, b)))
        self.kernel.trace.emit("partition", a, b, action="cut")

    def heal(self, a: Optional[str] = None, b: Optional[str] = None) -> None:
        """Heal one link (``heal(a, b)``) or every partition (``heal()``)."""
        if a is None and b is None:
            # Sorted: set order of frozensets follows the string hash
            # seed, and the heal records must not.
            for first, second in sorted(sorted(link) for link in self._partitioned):
                self.kernel.trace.emit("partition", first, second, action="heal")
            self._partitioned.clear()
            return
        if a is None or b is None:
            raise ValueError("heal takes both endpoints or neither")
        self._partitioned.discard(frozenset((a, b)))
        self.kernel.trace.emit("partition", a, b, action="heal")

    def partitioned(self, a: str, b: str) -> bool:
        """Is the ``a``--``b`` link currently cut?"""
        return frozenset((a, b)) in self._partitioned

    # -- abandonment -----------------------------------------------------------

    def abandon(self, message: Message) -> None:
        """Stop (re)delivering the reliable transmission of ``message``.

        Called by a requester whose timeout fired: the protocols'
        retry machinery re-sends a *fresh* request, so a late ghost
        delivery of the stale one would make the receiver act on a
        transaction the coordinator has already moved past (e.g. begin
        a subtransaction for an attempt that was aborted meanwhile).
        Abandoned messages are pruned from pending retransmissions and
        filtered out at delivery time: the at-most-once-per-request-window
        semantics the protocols' own retry machinery was written against.
        No-op on unreliable networks, which cannot deliver late to begin
        with.
        """
        if self.reliable:
            message.abandoned = True
            self._abandoning = True

    # -- transmission ----------------------------------------------------------

    def _drop(self, messages: Sequence[Message], cause: Optional[str] = None) -> None:
        """Count ``messages`` as dropped; one ``message_drop`` record each."""
        self.dropped += len(messages)
        trace = self.kernel.trace
        if trace.enabled:
            # A random loss has never carried a ``cause`` detail.
            details = {} if cause is None else {"cause": cause}
            for message in messages:
                trace.emit(
                    "message_drop", message.sender, message.kind,
                    dest=message.dest, **details,
                )

    def _transmit(self, sender: str, dest: str, messages: tuple[Message, ...]) -> None:
        """One physical transmission: one loss trial, one latency sample."""
        if self.reliable:
            xid = next(self._xmit_ids)
            xmit = self._pending_xmits[xid] = _Xmit(self, xid, messages)
            self._attempt_xmit(xmit)
            return
        if self._partitioned and frozenset((sender, dest)) in self._partitioned:
            self.partition_blocked += 1
            self._drop(messages, "partition")
            return
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self._drop(messages)
            return
        self.envelopes += 1
        if len(messages) > 1:
            self.piggybacked += len(messages) - 1
        delay = self.latency.sample(self._rng)
        if self.reorder_rate and self._rng.random() < self.reorder_rate:
            delay += self._rng.uniform(0.0, self.REORDER_SPREAD)
            self.reordered += 1
        self.kernel._schedule(delay, self._deliver_all, messages)

    # -- reliable delivery -----------------------------------------------------

    def _attempt_xmit(self, xmit: _Xmit) -> None:
        """One send attempt of a reliable transmission; arms the retry timer."""
        messages = xmit.messages
        attempts = xmit.attempts
        sender, dest = messages[0].sender, messages[0].dest
        src = self._nodes.get(sender)
        if src is None or src.crashed:
            # The sender died: its retransmission state is volatile.
            xmit.retire()
            self._drop(messages, "sender down")
            return
        blocked = (
            bool(self._partitioned) and frozenset((sender, dest)) in self._partitioned
        )
        if blocked:
            self.partition_blocked += 1
            self.lost_transmissions += 1
        elif self.loss_rate and self._rng.random() < self.loss_rate:
            self.lost_transmissions += 1
        else:
            self.envelopes += 1
            if len(messages) > 1 and attempts == 0:
                self.piggybacked += len(messages) - 1
            delay = self.latency.sample(self._rng)
            if self.reorder_rate and self._rng.random() < self.reorder_rate:
                delay += self._rng.uniform(0.0, self.REORDER_SPREAD)
                self.reordered += 1
            self.kernel._schedule(delay, self._deliver_reliable, xmit, messages)
            if self.dup_rate and self._rng.random() < self.dup_rate:
                self.duplicates_injected += len(messages)
                self.kernel._schedule(
                    self.latency.sample(self._rng), self._deliver_reliable, xmit, messages
                )
        # Arm the retransmit timer whether or not the attempt got out:
        # the attempt, its delivery, or its ack may all be lost.  The
        # record itself is the timer's argument; an earlier ack makes it
        # ``_done``, so the kernel skips it without advancing the clock.
        xmit.attempts = attempts + 1
        # Exponential backoff, capped at MAX_RETRANSMIT_DELAY: uncapped,
        # the last attempt would wait out a long partition for good.
        timeout = min(
            self.retransmit_timeout * self.RETRANSMIT_BACKOFF ** attempts,
            self.MAX_RETRANSMIT_DELAY,
        )
        kernel = self.kernel
        kernel._schedule(timeout, kernel._fire_timer, xmit)
        xmit.deadline = (kernel._now + timeout, kernel._sequence)

    def _retransmit(self, xmit: _Xmit) -> None:
        """The retransmit timer fired before any ack arrived."""
        if self._abandoning:
            live = tuple(m for m in xmit.messages if not m.abandoned)
            if not live:
                xmit.retire()
                return  # every rider gave up: stop retransmitting
            xmit.messages = live
        if xmit.attempts > self.MAX_RETRANSMITS:
            messages = xmit.messages
            xmit.retire()
            self.retransmit_drops += 1
            exhausted = self.retransmit_budget_exhausted
            for message in messages:
                exhausted[message.dest] = exhausted.get(message.dest, 0) + 1
            self._drop(messages, "retry budget exhausted")
            return
        self.retransmissions += 1
        self._attempt_xmit(xmit)

    def _deliver_reliable(self, xmit: _Xmit, messages: tuple[Message, ...]) -> None:
        dest = messages[0].dest
        dst = self._nodes.get(dest)
        if dst is None or dst.crashed:
            return  # no ack: the sender keeps retransmitting
        # Ack duplicates too -- the original ack may have been the loss.
        self._send_ack(dest, messages[0].sender, xmit)
        if xmit.delivered:
            self.duplicates_suppressed += len(messages)
            return
        xmit.delivered = True
        if self._abandoning:
            stale = [m for m in messages if m.abandoned]
            if stale:
                self.abandoned_messages += len(stale)
                self._drop(stale, "abandoned")
                messages = tuple(m for m in messages if not m.abandoned)
        for message in messages:
            dst.deliver(message)
        self.delivered += len(messages)

    def _send_ack(self, sender: str, dest: str, xmit: _Xmit) -> None:
        """Physical ack frame: subject to partition, loss and latency.

        The ack is folded into ``xmit`` instead of queued: it takes the
        sequence number a scheduled ack event would have taken, and the
        earliest ``(arrival, seq)`` wins, as the first ack event to
        dispatch would have.
        """
        self.acks_sent += 1
        if self._partitioned and frozenset((sender, dest)) in self._partitioned:
            return
        if self.loss_rate and self._rng.random() < self.loss_rate:
            return
        kernel = self.kernel
        arrival = kernel._now + self.latency.sample(self._rng)
        kernel._sequence = sequence = kernel._sequence + 1
        ack = (arrival, sequence)
        if xmit.ack is None or ack < xmit.ack:
            xmit.ack = ack

    def _unacked_in_flight(self) -> int:
        """Live transmissions whose ack has not arrived by now.

        An acked record stays in ``_pending_xmits`` until its timer
        entry comes up, so the arrival time is what counts here.
        """
        now = self.kernel._now
        return sum(
            1 for xmit in self._pending_xmits.values()
            if xmit.ack is None or xmit.ack[0] > now
        )

    def _deliver_all(self, messages: tuple[Message, ...]) -> None:
        dst = self._nodes.get(messages[0].dest)
        if dst is None or dst.crashed:
            self._drop(messages, "dest down")
            return
        # ``dst`` is up and nothing runs between these puts, so
        # ``Node.deliver``'s own crash check has nothing left to add.
        put = dst.mailbox.put
        for message in messages:
            put(message)
        self.delivered += len(messages)

    # -- metrics ---------------------------------------------------------------

    def message_counts(self) -> dict[str, int]:
        """Logical messages sent per kind (EXP-T5)."""
        return dict(sorted(self.by_kind.items()))

    def envelope_counts(self) -> dict[str, int]:
        """Physical-transmission accounting (EXP-T5 with batching)."""
        return {
            "logical": self.sent,
            "envelopes": self.envelopes,
            "piggybacked": self.piggybacked,
        }

    def reliability_counts(self) -> dict[str, int]:
        """Fault/reliability accounting for the chaos experiments."""
        return {
            "retransmissions": self.retransmissions,
            "retransmit_drops": self.retransmit_drops,
            "lost_transmissions": self.lost_transmissions,
            "partition_blocked": self.partition_blocked,
            "duplicates_injected": self.duplicates_injected,
            "duplicates_suppressed": self.duplicates_suppressed,
            "reordered": self.reordered,
            "acks_sent": self.acks_sent,
            "abandoned_messages": self.abandoned_messages,
            "retransmit_budget_exhausted": sum(
                self.retransmit_budget_exhausted.values()
            ),
            "unacked_in_flight": self._unacked_in_flight(),
        }

    def batching_counts(self) -> dict[str, float]:
        """Flush-policy accounting (EXP-A6 adaptive batching)."""
        outbox = self.outbox
        counts: dict[str, float] = {
            "size_flushes": outbox.size_flushes,
            "deadline_flushes": outbox.deadline_flushes,
            "purged_batched": self.purged_batched,
        }
        controller = outbox.controller
        if controller is not None:
            counts["batch_window_now"] = controller.current
            counts["batch_window_shrinks"] = controller.shrinks
            counts["batch_window_widens"] = controller.widens
        return counts

    def __repr__(self) -> str:
        return f"<Network nodes={sorted(self._nodes)} sent={self.sent}>"
