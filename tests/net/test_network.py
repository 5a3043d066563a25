"""Star network: topology enforcement, latency, loss, crash delivery."""

import pytest

from repro.errors import TopologyViolation
from repro.net.message import Message
from repro.net.network import FixedLatency, Network
from repro.net.node import Node
from tests.conftest import run


def make_net(kernel, **kwargs):
    net = Network(kernel, **kwargs)
    central = net.add_node(Node(kernel, "central", is_central=True))
    a = net.add_node(Node(kernel, "a"))
    b = net.add_node(Node(kernel, "b"))
    return net, central, a, b


def test_message_delivered_after_latency(kernel):
    net, central, a, _ = make_net(kernel, latency=FixedLatency(2.5))
    net.send(Message(kind="ping", sender="central", dest="a"))

    def receiver():
        message = yield from a.recv()
        return message.kind, kernel.now

    assert run(kernel, receiver()) == ("ping", 2.5)


def test_star_topology_enforced(kernel):
    net, _, a, b = make_net(kernel)
    with pytest.raises(TopologyViolation):
        net.send(Message(kind="gossip", sender="a", dest="b"))


def test_local_to_central_allowed(kernel):
    net, central, a, _ = make_net(kernel)
    net.send(Message(kind="reply", sender="a", dest="central"))

    def receiver():
        message = yield from central.recv()
        return message.sender

    assert run(kernel, receiver()) == "a"


def test_message_to_crashed_node_dropped(kernel):
    net, _, a, _ = make_net(kernel)
    a.crash()
    net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.run()
    assert net.dropped == 1
    assert net.delivered == 0


def test_crash_after_send_before_delivery_drops(kernel):
    net, _, a, _ = make_net(kernel, latency=FixedLatency(5))
    net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.call_at(1, a.crash)
    kernel.run()
    assert net.dropped == 1


def test_loss_rate_drops_some_messages(kernel):
    net, _, a, _ = make_net(kernel, loss_rate=0.5)
    for _ in range(100):
        net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.run()
    assert 20 < net.dropped < 80
    assert net.delivered == 100 - net.dropped


def test_message_counts_by_kind(kernel):
    net, _, a, _ = make_net(kernel)
    for kind in ("prepare", "prepare", "commit"):
        net.send(Message(kind=kind, sender="central", dest="a"))
    kernel.run()
    assert net.message_counts() == {"commit": 1, "prepare": 2}


def test_messages_traced(kernel):
    net, _, a, _ = make_net(kernel)
    net.send(Message(kind="prepare", sender="central", dest="a", gtxn_id="G1"))
    kernel.run()
    record = kernel.trace.first(category="message")
    assert record.subject == "prepare"
    assert record.details["gtxn"] == "G1"


@pytest.mark.parametrize("knob", ["loss_rate", "dup_rate", "reorder_rate"])
@pytest.mark.parametrize("rate", [-0.5, 2.0])
def test_fault_rates_outside_unit_interval_rejected(kernel, knob, rate):
    with pytest.raises(ValueError, match=knob):
        Network(kernel, **{knob: rate})


def test_duplicate_node_rejected(kernel):
    net, _, _, _ = make_net(kernel)
    with pytest.raises(ValueError):
        net.add_node(Node(kernel, "a"))


def test_reply_correlates(kernel):
    request = Message(kind="status_query", sender="central", dest="a", gtxn_id="G3")
    reply = request.reply("status_report", outcome="committed")
    assert reply.reply_to == request.msg_id
    assert reply.sender == "a"
    assert reply.dest == "central"
    assert reply.gtxn_id == "G3"
    assert reply.payload["outcome"] == "committed"


def test_node_restart_gets_fresh_mailbox(kernel):
    net, _, a, _ = make_net(kernel)
    net.send(Message(kind="stale", sender="central", dest="a"))
    kernel.run()
    a.crash()
    run(kernel, a.restart())
    assert len(a.mailbox) == 0
    assert not a.crashed


def test_node_crash_hooks_fire(kernel):
    net, _, a, _ = make_net(kernel)
    fired = []
    a.on_crash.append(lambda: fired.append("crash"))
    a.on_restart.append(lambda: fired.append("restart"))
    a.crash()
    run(kernel, a.restart())
    assert fired == ["crash", "restart"]


def test_crash_fails_blocked_receivers(kernel):
    from repro.errors import NodeUnreachable

    net, _, a, _ = make_net(kernel)

    def receiver():
        try:
            yield from a.recv()
        except NodeUnreachable:
            return "unreachable"

    proc = kernel.spawn(receiver())
    kernel.call_at(1, a.crash)
    kernel.run(raise_failures=False)
    assert proc.value == "unreachable"
