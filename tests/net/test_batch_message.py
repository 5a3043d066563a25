"""Unit tests for the batching layer: envelopes, outboxes, accounting."""

from __future__ import annotations

import pytest

from repro.net.message import BatchMessage, Message
from repro.net.network import FixedLatency, Network
from repro.net.node import Node


def make_net(kernel, batch_window=0.0, loss_rate=0.0):
    net = Network(
        kernel, latency=FixedLatency(1.0), loss_rate=loss_rate,
        batch_window=batch_window,
    )
    central = net.add_node(Node(kernel, "central", is_central=True))
    site = net.add_node(Node(kernel, "s0"))
    return net, central, site


def msg(kind="ping", sender="central", dest="s0", **payload):
    return Message(kind=kind, sender=sender, dest=dest, payload=payload)


# ---------------------------------------------------------------------------
# BatchMessage envelope invariants
# ---------------------------------------------------------------------------


def test_batch_message_requires_messages():
    with pytest.raises(ValueError):
        BatchMessage(sender="a", dest="b", messages=())


def test_batch_message_rejects_mixed_links():
    good = Message(kind="x", sender="a", dest="b")
    stray = Message(kind="x", sender="a", dest="c")
    with pytest.raises(ValueError):
        BatchMessage(sender="a", dest="b", messages=(good, stray))


def test_batch_message_len_and_str():
    messages = tuple(Message(kind=k, sender="a", dest="b") for k in ("x", "y"))
    batch = BatchMessage(sender="a", dest="b", messages=messages)
    assert len(batch) == 2
    assert "x+y" in str(batch)


# ---------------------------------------------------------------------------
# Unbatched path: window=0 behaves exactly like the seed network
# ---------------------------------------------------------------------------


def test_window_zero_one_envelope_per_message(kernel):
    net, _, site = make_net(kernel, batch_window=0.0)
    for _ in range(5):
        net.send(msg())
    kernel.run()
    assert net.sent == 5
    assert net.envelopes == 5
    assert net.piggybacked == 0
    assert net.delivered == 5
    assert len(site.mailbox) == 5


# ---------------------------------------------------------------------------
# Outbox coalescing
# ---------------------------------------------------------------------------


def test_same_instant_messages_share_one_envelope(kernel):
    net, _, site = make_net(kernel, batch_window=0.5)
    for kind in ("a", "b", "c"):
        net.send(msg(kind=kind))
    kernel.run()
    assert net.sent == 3
    assert net.envelopes == 1
    assert net.piggybacked == 2
    assert net.delivered == 3
    # Delivery preserves the logical send order.
    kinds = [m.kind for m in site.mailbox.drain()]
    assert kinds == ["a", "b", "c"]


def test_messages_outside_window_use_separate_envelopes(kernel):
    net, _, _ = make_net(kernel, batch_window=0.5)

    def sender():
        net.send(msg(kind="first"))
        yield 2.0  # well past the window
        net.send(msg(kind="second"))

    kernel.spawn(sender(), name="sender")
    kernel.run()
    assert net.sent == 2
    assert net.envelopes == 2
    assert net.piggybacked == 0


def test_opposite_directions_never_share_envelopes(kernel):
    net, _, _ = make_net(kernel, batch_window=0.5)
    net.send(msg(kind="req", sender="central", dest="s0"))
    net.send(msg(kind="rsp", sender="s0", dest="central"))
    kernel.run()
    assert net.envelopes == 2


def test_envelope_trace_record_reports_size(kernel):
    net, _, _ = make_net(kernel, batch_window=0.5)
    net.send(msg(kind="a"))
    net.send(msg(kind="b"))
    kernel.run()
    envelopes = kernel.trace.select(category="envelope")
    assert len(envelopes) == 1
    assert envelopes[0].details["size"] == 2
    assert envelopes[0].details["kinds"] == "a+b"
    # The logical messages are still traced individually.
    assert len(kernel.trace.select(category="message")) == 2


def test_flush_forces_pending_envelopes_out_early(kernel):
    net, _, _ = make_net(kernel, batch_window=100.0)
    net.send(msg(kind="a"))
    assert net.outbox.pending == 1
    net.flush()
    assert net.outbox.pending == 0
    kernel.run(until=5.0)  # latency is 1.0 -- no need to reach the window
    assert net.envelopes == 1
    assert net.delivered == 1


def test_message_counts_expand_batches(kernel):
    """EXP-T5 accounting: by_kind counts logical messages, never 'batch'."""
    net, _, _ = make_net(kernel, batch_window=0.5)
    for kind in ("a", "a", "b"):
        net.send(msg(kind=kind))
    kernel.run()
    assert net.message_counts() == {"a": 2, "b": 1}
    assert net.envelope_counts() == {"logical": 3, "envelopes": 1, "piggybacked": 2}


# ---------------------------------------------------------------------------
# Faults
# ---------------------------------------------------------------------------


def test_drop_once_applies_to_logical_messages(kernel):
    net, _, site = make_net(kernel, batch_window=0.5)
    net.drop_once.add("b")
    for kind in ("a", "b", "c"):
        net.send(msg(kind=kind))
    kernel.run()
    assert net.dropped == 1
    kinds = [m.kind for m in site.mailbox.drain()]
    assert kinds == ["a", "c"]


def test_envelope_loss_drops_all_carried_messages(kernel):
    net, _, site = make_net(kernel, batch_window=0.5, loss_rate=1.0)
    for kind in ("a", "b"):
        net.send(msg(kind=kind))
    kernel.run()
    assert net.dropped == 2
    assert net.delivered == 0
    assert len(site.mailbox) == 0


def test_sender_crash_loses_pending_outbox(kernel):
    net, central, site = make_net(kernel, batch_window=0.5)
    net.send(msg(kind="a"))
    central.crash()
    kernel.run()
    assert net.dropped == 1
    assert net.envelopes == 0
    assert len(site.mailbox) == 0


def test_dest_crash_loses_whole_envelope(kernel):
    net, _, site = make_net(kernel, batch_window=0.5)
    net.send(msg(kind="a"))
    net.send(msg(kind="b"))
    site.crash()
    kernel.run()
    assert net.dropped == 2
    assert net.delivered == 0
