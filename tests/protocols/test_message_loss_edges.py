"""Targeted single-message-loss edges for each protocol phase."""

from repro.core.invariants import atomicity_report
from repro.faults import FaultInjector
from repro.mlt.actions import increment
from tests.protocols.conftest import build_fed, submit_and_run

TRANSFER = [increment("t0", "x", -10), increment("t1", "x", 10)]


def test_lost_finish_subtxn_self_heals_at_inquiry():
    """Commit-before per-site: the finish message is lost; the
    final-state inquiry finds the subtransaction still running (all
    actions done) and commits it itself."""
    fed = build_fed("before", granularity="per_site", msg_timeout=12, poll=4)
    FaultInjector(fed).lose_next_message("finish_subtxn")
    outcome = submit_and_run(fed, TRANSFER)
    assert outcome.committed
    assert fed.peek("s0", "t0", "x") == 90
    assert fed.peek("s1", "t1", "x") == 110
    assert atomicity_report(fed).ok


def test_lost_local_outcome_reply_resolved_by_inquiry():
    """The local commit happened but its reply vanished; the inquiry
    (prepare protocol=before) reports committed via the marker."""
    fed = build_fed("before", granularity="per_site", msg_timeout=12, poll=4)
    FaultInjector(fed).lose_next_message("local_outcome")
    outcome = submit_and_run(fed, TRANSFER)
    assert outcome.committed
    assert fed.peek("s0", "t0", "x") == 90
    assert atomicity_report(fed).ok


def test_lost_decide_under_commit_after_status_running_resend():
    """The decision is lost; status says 'running'; the coordinator
    re-sends the decision instead of redoing."""
    fed = build_fed("after", msg_timeout=10, poll=4)
    FaultInjector(fed).lose_next_message("decide")
    outcome = submit_and_run(fed, TRANSFER)
    assert outcome.committed
    assert outcome.redo_executions == 0  # no redo: just a resend
    assert fed.peek("s0", "t0", "x") == 90
    assert atomicity_report(fed).ok


def test_lost_redo_result_not_double_applied():
    """The redo committed but its result reply is lost; the retried
    redo answers from the marker without re-executing."""
    fed = build_fed("after", msg_timeout=10, poll=4)
    injector = FaultInjector(fed)
    injector.erroneous_aborts_after_ready(1.0, sites=["s0"], delay=0.2)
    injector.lose_next_message("redo_result")
    outcome = submit_and_run(fed, TRANSFER)
    assert outcome.committed
    assert fed.peek("s0", "t0", "x") == 90  # exactly once
    assert atomicity_report(fed).ok


def test_lost_prepare_times_out_to_abort_2pc():
    fed = build_fed("2pc", msg_timeout=10)
    fed.gtm.RETRY_ATTEMPTS = 0
    FaultInjector(fed).lose_next_message("prepare")
    outcome = submit_and_run(fed, TRANSFER)
    assert not outcome.committed
    assert fed.peek("s0", "t0", "x") == 100
    assert fed.peek("s1", "t1", "x") == 100


def test_lost_execute_l0_reply_recovered_from_marker():
    """The action committed; its reply is lost; ambiguity resolution
    recovers value and before-image from the durable marker row."""
    fed = build_fed("before", granularity="per_action", msg_timeout=10, poll=4)
    FaultInjector(fed).lose_next_message("l0_done")
    outcome = submit_and_run(fed, TRANSFER)
    assert outcome.committed
    assert fed.peek("s0", "t0", "x") == 90  # not 80: no double decrement
    assert atomicity_report(fed).ok
