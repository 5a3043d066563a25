"""Races and retries at the communication-manager level.

These reproduce, as unit scenarios, the concurrency hazards found
during development: a retried decide racing an in-flight redo, double
redo requests, and retried undo requests -- all of which must be
absorbed by the per-gtxn mutex and the marker idempotence guards.
"""

import pytest

from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment, write


@pytest.fixture
def fed():
    return Federation(
        [SiteSpec("a", tables={"t": {"x": 100}})],
        FederationConfig(seed=19),
    )


def request(fed, kind, gtxn=None, **payload):
    def proc():
        reply = yield from fed.central_comm.request(
            "a", kind, gtxn_id=gtxn, timeout=200, **payload
        )
        return reply

    process = fed.kernel.spawn(proc())
    fed.kernel.run()
    return process.value


def test_double_redo_request_applies_once(fed):
    ops = [increment("t", "x", 7).routed("a", "t")]
    first = request(fed, "redo_subtxn", gtxn="G1", ops=ops, marker_key="G1")
    second = request(fed, "redo_subtxn", gtxn="G1", ops=ops, marker_key="G1")
    assert first.payload["outcome"] == "committed"
    assert second.payload["outcome"] == "committed"
    assert fed.peek("a", "t", "x") == 107  # not 114


def test_double_undo_request_applies_once(fed):
    inverse = [increment("t", "x", -7).routed("a", "t")]
    first = request(fed, "undo_subtxn", gtxn="G1", inverse_ops=inverse, marker_key="undo:G1")
    second = request(fed, "undo_subtxn", gtxn="G1", inverse_ops=inverse, marker_key="undo:G1")
    assert first.payload["outcome"] == "undone"
    assert second.payload["outcome"] == "undone"
    assert fed.peek("a", "t", "x") == 93


def test_double_execute_l0_applies_once_and_replays_reply(fed):
    op = write("t", "x", 55).routed("a", "t")
    first = request(fed, "execute_l0", gtxn="G1", op=op, marker_key="G1:0")
    second = request(fed, "execute_l0", gtxn="G1", op=op, marker_key="G1:0")
    assert first.payload["before"] == 100
    # The retry answers from the marker, including the before-image.
    assert second.payload["before"] == 100
    assert fed.peek("a", "t", "x") == 55


def test_concurrent_decide_and_redo_serialized(fed):
    """A decide retry arriving during a redo must not commit a
    half-executed redo transaction (the race found in development)."""
    request(fed, "begin_subtxn", gtxn="G1")
    op = increment("t", "x", 7).routed("a", "t")
    request(fed, "execute_op", gtxn="G1", op=op)
    # Abort the subtransaction (simulates an erroneous abort).
    txn_id = fed.comms["a"]._subtxns["G1"]
    from repro.localdb.txn import LocalAbortReason

    fed.engines["a"].force_abort(txn_id, LocalAbortReason.SYSTEM)
    fed.run()

    # Now fire a redo and a decide *concurrently*.
    replies = {}

    def fire(kind, tag, **payload):
        def proc():
            reply = yield from fed.central_comm.request(
                "a", kind, gtxn_id="G1", timeout=300, **payload
            )
            replies[tag] = reply

        fed.kernel.spawn(proc())

    fire("redo_subtxn", "redo", ops=[op], marker_key="G1")
    fire("decide", "decide", decision="commit", marker_key="G1")
    fed.run()
    assert replies["redo"].payload["outcome"] == "committed"
    assert replies["decide"].payload["outcome"] == "committed"
    assert fed.peek("a", "t", "x") == 107  # exactly one increment


def test_decide_after_commit_reports_committed(fed):
    request(fed, "begin_subtxn", gtxn="G1")
    op = increment("t", "x", 1).routed("a", "t")
    request(fed, "execute_op", gtxn="G1", op=op)
    first = request(fed, "decide", gtxn="G1", decision="commit", marker_key="G1")
    second = request(fed, "decide", gtxn="G1", decision="commit", marker_key="G1")
    assert first.payload["outcome"] == second.payload["outcome"] == "committed"
    assert fed.peek("a", "t", "x") == 101


def test_unmatched_reply_traced_not_fatal(fed):
    """A reply with no pending future is logged and dropped."""
    from repro.net.message import Message

    fed.network.send(
        Message(kind="finished", sender="a", dest="central", reply_to=99999)
    )
    fed.run()
    assert fed.kernel.trace.first(category="message_unmatched") is not None


@pytest.mark.parametrize("protocol,granularity", [("2pc", "per_site"), ("before", "per_action")])
def test_gtxn_lock_table_is_empty_after_committed_transactions(protocol, granularity):
    """One lock per global transaction per site used to stay in the
    table forever; an entry now lives only while its lock is held."""
    from repro.core.gtm import GTMConfig

    sites = [SiteSpec(f"s{i}", tables={f"t{i}": {"x": 100}}, preparable=True) for i in range(2)]
    fed = Federation(
        sites,
        FederationConfig(seed=3, gtm=GTMConfig(protocol=protocol, granularity=granularity)),
    )
    outcomes = fed.run_transactions(
        [
            {"operations": [increment("t0", "x", -1), increment("t1", "x", 1)], "name": f"G{i}"}
            for i in range(25)
        ]
    )
    assert all(outcome.committed for outcome in outcomes)
    for comm in fed.comms.values():
        assert comm._gtxn_locks == {}


def test_contended_gtxn_lock_is_kept_until_the_last_release(fed):
    """The entry must survive a hand-over: dropping it while a waiter
    owns the lock would let a third request slip past the mutex."""
    comm = fed.comms["a"]
    sizes = []
    op = increment("t", "x", 1).routed("a", "t")
    for _ in range(3):
        fed.kernel.spawn(
            fed.central_comm.request(
                "a", "redo_subtxn", gtxn_id="G1", timeout=300, ops=[op], marker_key="G1"
            )
        )
    fed.kernel.call_at(3.0, lambda: sizes.append(len(comm._gtxn_locks["G1"]._waiters)))
    fed.run()
    assert sizes == [2]
    assert fed.peek("a", "t", "x") == 101  # marker idempotence: applied once
    assert comm._gtxn_locks == {}


def test_crash_resets_live_gtxn_locks_and_empties_the_table(fed):
    comm = fed.comms["a"]
    op = increment("t", "x", 1).routed("a", "t")
    for _ in range(2):
        fed.kernel.spawn(
            fed.central_comm.request(
                "a", "redo_subtxn", gtxn_id="G1", timeout=50, ops=[op], marker_key="G1"
            )
        )
    fed.kernel.run(until=3.0, raise_failures=False)
    lock = comm._gtxn_locks["G1"]
    assert lock.locked
    fed.crash_site("a")
    assert not lock.locked
    assert comm._gtxn_locks == {}
    fed.kernel.run(until=200.0, raise_failures=False)
    assert comm._gtxn_locks == {}
