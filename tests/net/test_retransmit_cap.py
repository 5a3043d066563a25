"""Retransmission backoff cap: long partitions stay recoverable.

Uncapped exponential backoff reaches ``retransmit_timeout *
RETRANSMIT_BACKOFF**(MAX_RETRANSMITS - 1)`` -- with the defaults some
30k time units for a single retry interval, turning a long-but-finite
partition into an effectively permanent message loss.
``Network.MAX_RETRANSMIT_DELAY`` clamps each interval; below the cap
the schedule is bit-identical to the uncapped one, so default-config
traces do not move.  The tests set the constants on the instance.
"""

from repro.net.message import Message
from repro.net.network import FixedLatency, Network
from repro.net.node import Node


def make_net(kernel, cap: float) -> Network:
    net = Network(
        kernel, latency=FixedLatency(1.0), reliable=True, retransmit_timeout=1.0
    )
    net.MAX_RETRANSMITS = 6
    net.MAX_RETRANSMIT_DELAY = cap
    net.add_node(Node(kernel, "central", is_central=True))
    net.add_node(Node(kernel, "a"))
    return net


def exhaust_retries(kernel, net: Network) -> float:
    """Send into a partition, run to idle, return the give-up time."""
    net.partition("central", "a")
    net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.run()
    assert net.retransmit_drops == 1  # the retry budget was exhausted
    # The give-up is also a per-destination counter: a chaos run can
    # tell *which* site silently lost a request, not just that one did.
    assert net.retransmit_budget_exhausted == {"a": 1}
    assert net.reliability_counts()["retransmit_budget_exhausted"] == 1
    return kernel.now


def test_backoff_capped_schedule(kernel):
    # Intervals min(2**n, 4): 1, 2, 4, 4, 4, 4, 4 -> give up at t=23.
    net = make_net(kernel, cap=4.0)
    assert exhaust_retries(kernel, net) == 23.0


def test_cap_bounds_worst_case_interval():
    """With the cap, (max interval) <= MAX_RETRANSMIT_DELAY always."""
    from repro.sim.kernel import Kernel

    capped = Kernel(seed=1)
    net = make_net(capped, cap=2.5)
    give_up = exhaust_retries(capped, net)
    # 1 + 2 + 2.5 * 5 remaining intervals.
    assert give_up == 15.5


def test_cap_above_schedule_is_identity(kernel):
    """A cap no interval reaches leaves the event schedule untouched."""
    from repro.sim.kernel import Kernel

    import re

    # Max interval is 1.0 * 2**6 = 64 < 100: a cap of 100 and a cap no
    # interval can reach must give byte-identical runs, trace records
    # included: 1 + 2 + 4 + 8 + 16 + 32 + 64 -> t=127.  (msg_id is a
    # process-global counter, so it is normalized out before comparing
    # two runs made in the same interpreter.)
    times = []
    traces = []
    for cap in (100.0, float("inf")):
        k = Kernel(seed=77)
        net = make_net(k, cap=cap)
        times.append(exhaust_retries(k, net))
        traces.append(
            [re.sub(r"msg_id=\d+", "msg_id=*", str(r)) for r in k.trace.records]
        )
    assert times[0] == times[1] == 127.0
    assert traces[0] == traces[1]


def test_default_cap_recovers_after_long_partition(kernel):
    """A partition longer than any uncapped retry interval still heals."""
    net = Network(
        kernel, latency=FixedLatency(1.0), reliable=True, retransmit_timeout=1.0
    )
    net.MAX_RETRANSMITS = 40
    net.MAX_RETRANSMIT_DELAY = 5.0
    net.add_node(Node(kernel, "central", is_central=True))
    a = net.add_node(Node(kernel, "a"))
    net.partition("central", "a")
    net.send(Message(kind="ping", sender="central", dest="a"))
    kernel.call_at(60.0, net.heal)

    def receiver():
        message = yield from a.recv()
        return message.kind, kernel.now

    process = kernel.spawn(receiver(), name="receiver")
    kernel.run()
    kind, arrived = process.value
    assert kind == "ping"
    # Capped at 5.0, the next retry lands within one cap interval of
    # the heal; uncapped backoff would have been silent until t=127+.
    assert arrived <= 60.0 + 5.0 + 1.0
    # Delivered within budget: no silent-give-up recorded.
    assert net.retransmit_budget_exhausted == {}
