"""Reliable delivery: acks, retransmission, dedup, partitions, abandon."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.net.message import Message
from repro.net.network import FixedLatency, Network
from repro.net.node import Node
from tests.conftest import run

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def make_net(kernel, **kwargs):
    kwargs.setdefault("latency", FixedLatency(1.0))
    kwargs.setdefault("reliable", True)
    kwargs.setdefault("retransmit_timeout", 5.0)
    net = Network(kernel, **kwargs)
    central = net.add_node(Node(kernel, "central", is_central=True))
    a = net.add_node(Node(kernel, "a"))
    return net, central, a


def test_clean_link_delivers_once_and_acks(kernel):
    net, _, a = make_net(kernel)
    net.send(Message(kind="ping", sender="central", dest="a"))

    def receiver():
        message = yield from a.recv()
        return message.kind

    assert run(kernel, receiver()) == "ping"
    assert net.delivered == 1
    assert net.retransmissions == 0
    assert net.acks_sent == 1
    assert net.reliability_counts()["unacked_in_flight"] == 0


def test_ack_is_folded_into_the_transmission_record(kernel):
    net, _, a = make_net(kernel)
    net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.run(until=1.5)  # delivered at 1.0, ack arrives at 2.0
    assert net.delivered == 1 and net.acks_sent == 1
    assert net.reliability_counts()["unacked_in_flight"] == 1
    kernel.run(until=2.5)
    assert net.reliability_counts()["unacked_in_flight"] == 0
    kernel.run()
    # One event: the delivery.  The ack is no event, and the t=5
    # retransmit timer it beat is skipped without moving the clock.
    assert kernel.events_dispatched == 1
    assert kernel.now == 2.5
    assert net.retransmissions == 0
    assert not net._pending_xmits


def test_ack_of_a_retransmission_retires_the_next_timer(kernel):
    net, _, a = make_net(kernel)
    net.partition("central", "a")
    net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.call_at(3.0, net.heal, "central", "a")
    kernel.run()
    # Lost at t=0, retransmitted at t=5, delivered at 6, acked at 7:
    # the t=15 timer is spent, so exactly one retransmission.
    assert net.delivered == 1
    assert net.retransmissions == 1
    assert not net._pending_xmits


def test_lossy_link_retransmits_until_delivered(kernel):
    net, _, a = make_net(kernel, loss_rate=0.5)
    for i in range(20):
        net.send(Message(kind="ping", sender="central", dest="a", payload={"i": i}))
    kernel.run()
    # Every message eventually got through, exactly once each.
    assert net.delivered == 20
    assert net.retransmissions > 0
    assert net.reliability_counts()["unacked_in_flight"] == 0


def test_duplicate_transmissions_suppressed(kernel):
    net, _, a = make_net(kernel, dup_rate=1.0)
    net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.run()
    assert net.delivered == 1
    assert net.duplicates_suppressed >= 1
    # The duplicate is re-acked: its ack may have been the lost one.
    assert net.acks_sent >= 2


@pytest.mark.parametrize("batch_window", [0.0, 1.0])
def test_duplicates_stop_at_the_receiving_node(kernel, batch_window):
    """The receiver filter is the only duplicate filter: every logical
    message reaches its node exactly once, duplicated and lossy links
    notwithstanding."""
    net, _, a = make_net(
        kernel, dup_rate=1.0, loss_rate=0.3, batch_window=batch_window
    )
    sent = [Message(kind="ping", sender="central", dest="a") for _ in range(60)]
    for i, message in enumerate(sent):
        kernel.call_at(i * 0.5, net.send, message)
    arrivals = []

    def receiver():
        while True:
            message = yield from a.recv()
            arrivals.append(message.msg_id)

    kernel.spawn(receiver())
    kernel.run()
    assert sorted(arrivals) == sorted(m.msg_id for m in sent)
    assert net.duplicates_suppressed > 0


class ScriptedLatency:
    """Delays in draw order; the last one repeats."""

    def __init__(self, *delays):
        self.delays = list(delays)

    def sample(self, rng):
        return self.delays.pop(0) if len(self.delays) > 1 else self.delays[0]


def test_duplicate_after_receiver_restart_is_suppressed(kernel):
    # Draws: the delivery (t=1), its duplicate (t=4), then every ack.
    net, _, a = make_net(kernel, dup_rate=1.0, latency=ScriptedLatency(1.0, 4.0, 1.0))
    net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.call_at(2.0, a.crash)
    kernel.call_at(3.0, lambda: kernel.spawn(a.restart(), name="restart"))
    kernel.run()
    # The receiver lost its mailbox, not the transmission's delivered
    # flag: the copy arriving after the restart is still a duplicate.
    assert not a.crashed
    assert net.delivered == 1
    assert net.duplicates_suppressed == 1
    assert net.acks_sent == 2


def test_duplication_without_reliable_delivery_refused(kernel):
    with pytest.raises(ValueError, match="reliable=True"):
        Network(kernel, dup_rate=0.1)


def test_lost_ack_triggers_retransmit_but_not_redelivery(kernel):
    # Drop every second frame: some acks will be lost, forcing the
    # sender to retransmit transmissions the receiver already has.
    net, _, a = make_net(kernel, loss_rate=0.4)
    for _ in range(30):
        net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.run()
    assert net.delivered == 30
    assert net.duplicates_suppressed > 0


def test_partition_blocks_both_directions(kernel):
    net, _, a = make_net(kernel)
    net.MAX_RETRANSMITS = 2
    net.partition("central", "a")
    assert net.partitioned("central", "a")
    assert net.partitioned("a", "central")
    net.send(Message(kind="ping", sender="central", dest="a"))
    net.send(Message(kind="pong", sender="a", dest="central"))
    kernel.run()
    assert net.delivered == 0
    assert net.partition_blocked > 0
    assert net.retransmit_drops == 2


def test_retransmission_bridges_a_healed_partition(kernel):
    net, _, a = make_net(kernel)
    net.partition("central", "a")
    net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.call_at(12.0, net.heal, "central", "a")
    kernel.run()
    assert net.delivered == 1
    assert net.retransmissions >= 1


def test_heal_all_clears_every_partition(kernel):
    net, _, a = make_net(kernel)
    b = net.add_node(Node(kernel, "b"))
    net.partition("central", "a")
    net.partition("central", "b")
    net.heal()
    assert not net.partitioned("central", "a")
    assert not net.partitioned("central", "b")


HEAL_SCRIPT = """
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.kernel import Kernel

kernel = Kernel(seed=1)
net = Network(kernel)
net.add_node(Node(kernel, "central", is_central=True))
for name in ("a", "b", "c", "d"):
    net.add_node(Node(kernel, name))
    net.partition(name, "central")
kernel.trace.clear()
net.heal()
for record in kernel.trace:
    print(record)
"""


def heal_records(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", HEAL_SCRIPT], env=env, check=True,
        capture_output=True, text=True,
    )
    return result.stdout


def test_heal_all_emits_records_independent_of_hash_seed():
    # The partitions are a set of frozensets; iterating it directly
    # gave a different record order for each string hash seed.
    first = heal_records(0)
    assert first.count("heal") == 4
    assert heal_records(1) == first


def test_retry_budget_exhaustion_drops(kernel):
    net, _, a = make_net(kernel)
    net.MAX_RETRANSMITS = 3
    net.partition("central", "a")
    net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.run()
    assert net.retransmit_drops == 1
    assert net.delivered == 0
    assert net.reliability_counts()["unacked_in_flight"] == 0


def test_retransmission_survives_receiver_outage(kernel):
    net, _, a = make_net(kernel)
    a.crash()
    net.send(Message(kind="ping", sender="central", dest="a"))

    def restarter():
        yield 12.0
        yield from a.restart()

    kernel.spawn(restarter(), name="restarter")
    kernel.run()
    assert net.delivered == 1
    assert net.retransmissions >= 1


def test_sender_crash_drops_retransmission_state(kernel):
    net, central, a = make_net(kernel)
    net.partition("central", "a")
    net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.call_at(6.0, central.crash)
    kernel.run()
    # The sender died: its volatile retransmission state went with it.
    assert net.delivered == 0
    assert net.reliability_counts()["unacked_in_flight"] == 0


def test_abandon_stops_retransmission(kernel):
    net, _, a = make_net(kernel)
    net.partition("central", "a")
    message = Message(kind="ping", sender="central", dest="a")
    net.send(message)
    net.abandon(message)
    kernel.call_at(2.0, net.heal, "central", "a")
    kernel.run()
    assert net.delivered == 0
    assert net.reliability_counts()["unacked_in_flight"] == 0


def test_abandon_blocks_inflight_delivery(kernel):
    net, _, a = make_net(kernel, latency=FixedLatency(5.0))
    message = Message(kind="ping", sender="central", dest="a")
    net.send(message)  # delivery already scheduled for t=5
    kernel.call_at(1.0, net.abandon, message)
    kernel.run()
    assert net.delivered == 0
    assert net.abandoned_messages == 1
    # The frame itself is still acked so the sender stops retrying.
    assert net.reliability_counts()["unacked_in_flight"] == 0


def test_reorder_overtakes(kernel):
    net, _, a = make_net(kernel, reliable=False, reorder_rate=1.0)
    net.REORDER_SPREAD = 10.0
    net.send(Message(kind="first", sender="central", dest="a"))
    net.send(Message(kind="second", sender="central", dest="a"))
    kernel.run()
    assert net.reordered == 2
    assert net.delivered == 2
