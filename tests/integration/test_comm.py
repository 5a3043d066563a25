"""Communication managers: request/reply, subtransactions, markers."""

import pytest

from repro.errors import MessageTimeout
from repro.core.redo import COMMITLOG_TABLE
from repro.faults import CHAOS_PROTOCOLS, ChaosSpec, run_chaos
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment, read, write


@pytest.fixture
def fed():
    return Federation(
        [SiteSpec("a", tables={"t": {"x": 10}})],
        FederationConfig(seed=11),
    )


def request(fed, site, kind, gtxn=None, **payload):
    def proc():
        reply = yield from fed.central_comm.request(
            site, kind, gtxn_id=gtxn, timeout=60, **payload
        )
        return reply

    process = fed.kernel.spawn(proc())
    fed.kernel.run()
    return process.value


def test_ping_pong(fed):
    reply = request(fed, "a", "ping")
    assert reply.kind == "pong"


def test_begin_and_execute_op(fed):
    reply = request(fed, "a", "begin_subtxn", gtxn="G1")
    assert reply.kind == "subtxn_begun"
    reply = request(fed, "a", "execute_op", gtxn="G1", op=read("t", "x").routed("a", "t"))
    assert reply.kind == "op_done"
    assert reply.payload["value"] == 10


def test_execute_op_without_subtxn_fails(fed):
    reply = request(fed, "a", "execute_op", gtxn="GX", op=read("t", "x").routed("a", "t"))
    assert reply.kind == "op_failed"


def test_write_returns_before_image(fed):
    request(fed, "a", "begin_subtxn", gtxn="G1")
    reply = request(
        fed, "a", "execute_op", gtxn="G1", op=write("t", "x", 99).routed("a", "t")
    )
    assert reply.payload["before"] == 10


def test_decide_commit_applies(fed):
    request(fed, "a", "begin_subtxn", gtxn="G1")
    request(fed, "a", "execute_op", gtxn="G1", op=write("t", "x", 42).routed("a", "t"))
    reply = request(fed, "a", "decide", gtxn="G1", decision="commit", marker_key="G1")
    assert reply.payload["outcome"] == "committed"
    assert fed.peek("a", "t", "x") == 42
    # The commit marker landed in the same transaction.
    assert fed.peek("a", COMMITLOG_TABLE, "G1") is not None


def test_decide_abort_rolls_back(fed):
    request(fed, "a", "begin_subtxn", gtxn="G1")
    request(fed, "a", "execute_op", gtxn="G1", op=write("t", "x", 42).routed("a", "t"))
    reply = request(fed, "a", "decide", gtxn="G1", decision="abort")
    assert reply.payload["outcome"] == "aborted"
    assert fed.peek("a", "t", "x") == 10


def test_execute_l0_is_self_contained_txn(fed):
    reply = request(
        fed, "a", "execute_l0", gtxn="G1",
        op=increment("t", "x", 5).routed("a", "t"), marker_key="G1:0",
    )
    assert reply.kind == "l0_done"
    assert reply.payload["value"] == 15
    assert fed.peek("a", "t", "x") == 15


def test_l0_marker_carries_before_image(fed):
    request(
        fed, "a", "execute_l0", gtxn="G1",
        op=write("t", "x", 7).routed("a", "t"), marker_key="G1:0",
    )
    reply = request(fed, "a", "status_query", gtxn="G1", marker_key="G1:0")
    assert reply.payload["outcome"] == "committed"
    assert reply.payload["before"] == 10


def test_status_of_unexecuted_marker_is_aborted(fed):
    reply = request(fed, "a", "status_query", gtxn="G9", marker_key="G9:0")
    assert reply.payload["outcome"] == "aborted"


def test_volatile_status_unknown_after_crash():
    fed = Federation(
        [SiteSpec("a", tables={"t": {"x": 10}})],
        FederationConfig(seed=11, log_placement="volatile"),
    )
    request(
        fed, "a", "execute_l0", gtxn="G1",
        op=increment("t", "x", 5).routed("a", "t"), marker_key="G1:0",
    )
    reply = request(fed, "a", "status_query", marker_key="G1:0")
    assert reply.payload["outcome"] == "committed"
    fed.nodes["a"].crash()
    fed.restart_site("a")
    fed.run()
    reply = request(fed, "a", "status_query", marker_key="G1:0")
    assert reply.payload["outcome"] == "unknown"


@pytest.mark.parametrize("protocol,granularity", CHAOS_PROTOCOLS)
def test_indb_site_keeps_no_outcome_memory(protocol, granularity):
    """With in-DB placement the marker relation is the site's log: the
    manager remembers no outcome, whatever the protocol or fault."""
    result = run_chaos(ChaosSpec(protocol=protocol, granularity=granularity, seed=7))
    assert result.committed > 0
    for comm in result.federation.comms.values():
        assert comm._outcomes == {}


def test_durable_status_survives_crash(fed):
    request(
        fed, "a", "execute_l0", gtxn="G1",
        op=increment("t", "x", 5).routed("a", "t"), marker_key="G1:0",
    )
    fed.nodes["a"].crash()
    fed.restart_site("a")
    fed.run()
    reply = request(fed, "a", "status_query", gtxn="G1", marker_key="G1:0")
    assert reply.payload["outcome"] == "committed"


def test_request_timeout_on_crashed_site(fed):
    fed.nodes["a"].crash()

    def proc():
        try:
            yield from fed.central_comm.request("a", "ping", timeout=5)
        except MessageTimeout:
            return "timeout"

    process = fed.kernel.spawn(proc())
    fed.kernel.run()
    assert process.value == "timeout"


def test_undo_subtxn_applies_inverse(fed):
    request(
        fed, "a", "execute_l0", gtxn="G1",
        op=increment("t", "x", 5).routed("a", "t"), marker_key="G1:0",
    )
    reply = request(
        fed, "a", "undo_subtxn", gtxn="G1",
        inverse_ops=[increment("t", "x", -5).routed("a", "t")],
        marker_key="undo:G1",
    )
    assert reply.payload["outcome"] == "undone"
    assert fed.peek("a", "t", "x") == 10


def test_redo_subtxn_reexecutes(fed):
    reply = request(
        fed, "a", "redo_subtxn", gtxn="G1",
        ops=[write("t", "x", 77).routed("a", "t")], marker_key="G1",
    )
    assert reply.payload["outcome"] == "committed"
    assert fed.peek("a", "t", "x") == 77
    assert fed.comms["a"].redo_executions == 1


def test_prepare_vote_for_after_protocol(fed):
    request(fed, "a", "begin_subtxn", gtxn="G1")
    request(fed, "a", "execute_op", gtxn="G1", op=read("t", "x").routed("a", "t"))
    reply = request(fed, "a", "prepare", gtxn="G1", ask="running")
    assert reply.payload["vote"] == "ready"
    # The local transaction is STILL RUNNING -- the paper's §3.2 point.
    from repro.localdb.txn import LocalTxnState

    txn_id = fed.comms["a"]._subtxns["G1"]
    assert fed.interfaces["a"].status(txn_id) is LocalTxnState.RUNNING


def test_prepare_vote_2pc_needs_preparable_interface(fed):
    """Standard interface cannot reach ready: the vote request crashes the
    handler, the central times out -- the paper's impossibility."""
    request(fed, "a", "begin_subtxn", gtxn="G1")

    def proc():
        try:
            yield from fed.central_comm.request(
                "a", "prepare", gtxn_id="G1", timeout=10, ask="ready"
            )
        except MessageTimeout:
            return "no ready state"

    process = fed.kernel.spawn(proc())
    fed.kernel.run(raise_failures=False)
    assert process.value == "no ready state"


@pytest.mark.parametrize("payload", [{}, {"ask": "2pc"}, {"protocol": "2pc"}])
def test_prepare_that_does_not_say_what_it_asks_is_refused(fed, payload):
    """No guessing: an unlabelled (or unknown) vote request used to be
    served as 2PC (or as commit-after) -- now it is a reasoned no, and
    the local transaction is left exactly as it was."""
    from repro.localdb.txn import LocalTxnState

    request(fed, "a", "begin_subtxn", gtxn="G1")
    request(fed, "a", "execute_op", gtxn="G1", op=write("t", "x", 3).routed("a", "t"))
    reply = request(fed, "a", "prepare", gtxn="G1", **payload)
    assert reply.payload["vote"] == "abort"
    assert "asks for" in reply.payload["reason"]
    txn_id = fed.comms["a"]._subtxns["G1"]
    assert fed.interfaces["a"].status(txn_id) is LocalTxnState.RUNNING


def test_prepare_before_commits_running_subtxn(fed):
    request(fed, "a", "begin_subtxn", gtxn="G1")
    request(fed, "a", "execute_op", gtxn="G1", op=write("t", "x", 3).routed("a", "t"))
    reply = request(
        fed, "a", "prepare", gtxn="G1", ask="final_state", marker_key="G1:a"
    )
    assert reply.payload["vote"] == "committed"
    assert fed.peek("a", "t", "x") == 3


def test_prepare_before_resolve_abort(fed):
    request(fed, "a", "begin_subtxn", gtxn="G1")
    request(fed, "a", "execute_op", gtxn="G1", op=write("t", "x", 3).routed("a", "t"))
    reply = request(
        fed, "a", "prepare", gtxn="G1", ask="final_state",
        marker_key="G1:a", resolve="abort",
    )
    assert reply.payload["vote"] == "aborted"
    assert fed.peek("a", "t", "x") == 10
