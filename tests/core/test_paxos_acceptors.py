"""PaxosAcceptor / AcceptorGroup: the replicated decision log.

Unit-level checks of the consensus substrate under Paxos Commit: the
2F+1 group shape, the promise/accept ballot ordering, the conservative
majority read (``decision_for``), idempotent retransmission handling,
and the crash model -- stable state survives, an in-flight force is
lost, the serve loop respawns on restart.
"""

import pytest

from repro.core.paxos import AcceptorGroup
from repro.net.message import Message
from repro.net.network import FixedLatency, Network
from repro.net.node import Node
from tests.conftest import run

GTXN = "G1"


def make_group(kernel, f: int = 1):
    net = Network(kernel, latency=FixedLatency(1.0))
    central = net.add_node(Node(kernel, "central", is_central=True))
    group = AcceptorGroup(kernel, net, f)
    return net, central, group


def send(net, dest: str, kind: str, gtxn_id: str = GTXN, **payload) -> None:
    net.send(
        Message(
            kind=kind, sender="central", dest=dest,
            payload=payload, gtxn_id=gtxn_id,
        )
    )


def collect(kernel, central, n: int) -> list:
    """Gather the next ``n`` messages arriving at the central node."""
    out: list = []

    def receiver():
        for _ in range(n):
            message = yield from central.recv()
            out.append(message)

    kernel.spawn(receiver(), name="collector")
    return out


def record_for(value: str = "commit", ballot: int = 0) -> dict:
    return {"ballot": ballot, "rms": ["s0", "s1"], "value": value,
            "votes": {"s0": "ready", "s1": "ready"}}


# ---------------------------------------------------------------------------
# Group shape
# ---------------------------------------------------------------------------


def test_group_is_2f_plus_1_with_majority_f_plus_1(kernel):
    for f, size in ((0, 1), (1, 3), (2, 5)):
        _net, _central, group = make_group(kernel, f=f)
        assert len(group.acceptors) == size
        assert group.majority == f + 1
        assert group.names == [f"acceptor{i}" for i in range(size)]


def test_negative_f_rejected(kernel):
    net = Network(kernel, latency=FixedLatency(1.0))
    with pytest.raises(ValueError):
        AcceptorGroup(kernel, net, -1)


# ---------------------------------------------------------------------------
# decision_for: the conservative majority read
# ---------------------------------------------------------------------------


def test_majority_acceptance_chooses_the_value(kernel):
    net, central, group = make_group(kernel, f=1)
    replies = collect(kernel, central, 3)
    for name in group.names:
        send(net, name, "paxos_p2a", record=record_for())
    kernel.run()
    assert group.decision_for(GTXN) == "commit"
    assert all(m.payload["accepted"] for m in replies)
    # One forced write per acceptance, on every acceptor.
    assert group.total_forces() == 3


def test_minority_acceptance_is_not_a_decision(kernel):
    net, central, group = make_group(kernel, f=1)
    collect(kernel, central, 1)
    send(net, group.names[0], "paxos_p2a", record=record_for())
    kernel.run()
    assert group.decision_for(GTXN) is None  # 1 of 3 < majority 2


def test_empty_majority_is_not_presumed_abort(kernel):
    _net, _central, group = make_group(kernel, f=1)
    # All three acceptors readable, zero accepted records: a crashed
    # leader's in-flight ballot-0 messages could still land, so the
    # read must stay undecided -- never conclude abort from silence.
    assert group.decision_for(GTXN) is None


def test_fewer_than_majority_readable_is_unreadable(kernel):
    net, central, group = make_group(kernel, f=1)
    collect(kernel, central, 3)
    for name in group.names:
        send(net, name, "paxos_p2a", record=record_for())
    kernel.run()
    group.acceptors[0].node.crash()
    assert group.decision_for(GTXN) == "commit"  # 2 readable >= 2
    group.acceptors[1].node.crash()
    assert group.decision_for(GTXN) is None  # 1 readable < 2
    # Stable state survived the crash: restoring one acceptor makes
    # the chosen decision readable again.
    run(kernel, group.acceptors[0].node.restart(), name="restart-acceptor0")
    assert group.decision_for(GTXN) == "commit"


# ---------------------------------------------------------------------------
# Ballot ordering
# ---------------------------------------------------------------------------


def test_promise_blocks_lower_ballot_p2a(kernel):
    net, central, group = make_group(kernel, f=0)
    acceptor = group.acceptors[0]
    replies = collect(kernel, central, 2)
    send(net, acceptor.name, "paxos_p1a", ballot=5)
    kernel.run()
    send(net, acceptor.name, "paxos_p2a", record=record_for(ballot=0))
    kernel.run()
    assert replies[0].payload["promised"] is True
    assert replies[1].payload["accepted"] is False
    assert replies[1].payload["ballot"] == 5
    assert acceptor.accepted == {}
    assert acceptor.rejections == 1


def test_lower_ballot_p1a_rejected_with_current_ballot(kernel):
    net, central, group = make_group(kernel, f=0)
    replies = collect(kernel, central, 2)
    send(net, "acceptor0", "paxos_p1a", ballot=5)
    kernel.run()
    send(net, "acceptor0", "paxos_p1a", ballot=3)
    kernel.run()
    assert replies[1].payload == {"promised": False, "ballot": 5}


def test_higher_ballot_p2a_supersedes_accepted_record(kernel):
    net, central, group = make_group(kernel, f=0)
    acceptor = group.acceptors[0]
    collect(kernel, central, 2)
    send(net, acceptor.name, "paxos_p2a", record=record_for(ballot=0))
    kernel.run()
    send(net, acceptor.name, "paxos_p2a", record=record_for(ballot=3))
    kernel.run()
    assert acceptor.accepted[GTXN]["ballot"] == 3
    assert acceptor.forces == 2


def test_promise_returns_previously_accepted_record(kernel):
    net, central, group = make_group(kernel, f=0)
    replies = collect(kernel, central, 2)
    send(net, "acceptor0", "paxos_p2a", record=record_for(ballot=0))
    kernel.run()
    send(net, "acceptor0", "paxos_p1a", ballot=7)
    kernel.run()
    assert replies[1].payload["promised"] is True
    assert replies[1].payload["accepted"] == record_for(ballot=0)


# ---------------------------------------------------------------------------
# Idempotence and the crash model
# ---------------------------------------------------------------------------


def test_retransmitted_p2a_reacks_without_second_force(kernel):
    net, central, group = make_group(kernel, f=0)
    acceptor = group.acceptors[0]
    replies = collect(kernel, central, 2)
    send(net, acceptor.name, "paxos_p2a", record=record_for())
    send(net, acceptor.name, "paxos_p2a", record=record_for())
    kernel.run()
    assert [m.payload["accepted"] for m in replies] == [True, True]
    assert acceptor.forces == 1  # the duplicate re-acked, no re-force


def test_crash_mid_force_loses_the_write(kernel):
    net, central, group = make_group(kernel, f=0)
    acceptor = group.acceptors[0]
    send(net, acceptor.name, "paxos_p2a", record=record_for())
    # Delivery at t=1, force completes at t=2: interrupt in between.
    kernel.call_at(1.5, acceptor.node.crash)
    kernel.run()
    assert acceptor.accepted == {}
    assert acceptor.forces == 0
    # After restart the serve loop is back and the write can land.
    run(kernel, acceptor.node.restart(), name="restart-acceptor0")
    replies = collect(kernel, central, 1)
    send(net, acceptor.name, "paxos_p2a", record=record_for())
    kernel.run()
    assert replies[0].payload["accepted"] is True
    assert acceptor.accepted[GTXN] == record_for()


def test_crashing_an_idle_acceptor_dispatches_one_event(kernel):
    """Parked on its mailbox, the serve loop is ended by the crash's
    failed receive alone: no interrupt is queued beside it."""
    net, central, group = make_group(kernel, f=0)
    acceptor = group.acceptors[0]
    kernel.run()
    before = kernel.events_dispatched
    acceptor.node.crash()
    kernel.run()
    assert kernel.events_dispatched - before == 1
    assert acceptor.node.server.done


def test_a_message_handed_over_in_the_crash_instant_is_lost(kernel):
    """The mailbox hands a p2a to the parked serve loop and the node
    crashes in the same instant, before the loop runs: the crashed
    acceptor neither accepts nor replies."""
    net, central, group = make_group(kernel, f=0)
    acceptor = group.acceptors[0]
    replies = collect(kernel, central, 1)
    kernel.run()
    acceptor.node.deliver(
        Message(
            kind="paxos_p2a", sender="central", dest=acceptor.name,
            payload={"record": record_for()}, gtxn_id=GTXN,
        )
    )
    acceptor.node.crash()
    kernel.run()
    assert acceptor.accepted == {}
    assert acceptor.forces == 0
    assert replies == []
    assert acceptor.node.server.done


def test_metrics_shape(kernel):
    net, central, group = make_group(kernel, f=1)
    collect(kernel, central, 3)
    for name in group.names:
        send(net, name, "paxos_p2a", record=record_for())
    kernel.run()
    group.acceptors[2].node.crash()
    metrics = group.metrics()
    assert metrics["acceptors"] == 3
    assert metrics["f"] == 1
    assert metrics["acceptor_forces"] == 3
    assert metrics["acceptances"] == 3
    assert metrics["crashed"] == 1
