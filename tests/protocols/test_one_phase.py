"""Logless one-phase commit ("To Vote Before Decide")."""

from repro.core.invariants import atomicity_report
from repro.faults import FaultInjector
from repro.localdb.txn import LocalAbortReason
from repro.mlt.actions import increment
from tests.protocols.conftest import build_fed, submit_and_run


def test_commit_happy_path():
    fed = build_fed("one_phase")
    outcome = submit_and_run(
        fed, [increment("t0", "x", -10), increment("t1", "x", 10)]
    )
    assert outcome.committed
    assert outcome.redo_executions == 0
    assert fed.peek("s0", "t0", "x") == 90
    assert fed.peek("s1", "t1", "x") == 110
    assert atomicity_report(fed).ok


def test_no_voting_round_votes_ride_on_data_replies():
    """The defining property: no prepare/vote messages at all -- the yes
    vote is piggybacked on each site's last ``op_done`` reply."""
    fed = build_fed("one_phase")
    piggybacked = []
    for comm in fed.comms.values():
        comm.on_ready_voted.append(
            lambda gtxn, txn_id, prepared: piggybacked.append(prepared)
        )
    submit_and_run(fed, [increment("t0", "x", -10), increment("t1", "x", 10)])
    counts = fed.network.message_counts()
    assert "prepare" not in counts
    assert counts["decide"] == 2
    assert counts["finished"] == 2
    # Two votes, both cast from the *running* state (no ready state).
    assert piggybacked == [False, False]


def test_fewer_forces_than_two_phase():
    """Logless: no participant ready record, so one force (the local
    commit) where 2PC pays two."""
    ops = [increment("t0", "x", -10), increment("t1", "x", 10)]
    forces = {}
    for protocol in ("one_phase", "2pc"):
        fed = build_fed(protocol)
        submit_and_run(fed, ops)
        forces[protocol] = {
            site: engine.disk.log_forces for site, engine in fed.engines.items()
        }
    for site in forces["one_phase"]:
        assert forces["one_phase"][site] < forces["2pc"][site]


def test_locals_stay_running_through_the_vote():
    """No ready state: the erroneous-abort window stays open until the
    decision arrives (inherited from commit-after)."""
    fed = build_fed("one_phase")
    submit_and_run(fed, [increment("t0", "x", 1)])
    states = [
        r.details["state"]
        for r in fed.kernel.trace.select(category="txn_state", site="s0")
        if r.details.get("gtxn", "").startswith("G")
    ]
    assert "ready" not in states
    assert states[-1] == "committed"


def test_intended_abort_is_cheap():
    fed = build_fed("one_phase")
    outcome = submit_and_run(
        fed,
        [increment("t0", "x", -10), increment("t1", "x", 10)],
        intends_abort=True,
    )
    assert not outcome.committed
    assert outcome.undo_executions == 0
    assert outcome.redo_executions == 0
    assert fed.peek("s0", "t0", "x") == 100
    assert fed.gtm.redo_log.entries == {}


def test_erroneous_abort_triggers_redo():
    """§3.2 obligation inherited from commit-after: a local that aborts
    after its piggybacked vote is repeated until it commits."""
    fed = build_fed("one_phase")
    injector = FaultInjector(fed)
    injector.erroneous_aborts_after_ready(probability=1.0, sites=["s0"], delay=0.2)
    outcome = submit_and_run(
        fed, [increment("t0", "x", -10), increment("t1", "x", 10)]
    )
    assert outcome.committed
    assert outcome.redo_executions == 1
    assert fed.peek("s0", "t0", "x") == 90  # applied exactly once
    assert atomicity_report(fed).ok


def test_redo_log_cleared_after_finish():
    fed = build_fed("one_phase")
    submit_and_run(fed, [increment("t0", "x", 1)])
    assert fed.gtm.redo_log.entries == {}


def test_crash_during_commit_phase_resolved_by_marker():
    """In-doubt local after a crash: the replicated decision read path
    (here the durable commit marker) disambiguates -- exactly once."""
    fed = build_fed("one_phase", msg_timeout=10, poll=5.0)
    injector = FaultInjector(fed)
    injector.crash_site("s0", at=5.5, recover_after=50.0)
    outcome = submit_and_run(fed, [increment("t0", "x", 7)])
    assert outcome.committed
    assert fed.peek("s0", "t0", "x") == 107
    assert atomicity_report(fed).ok


def _run_with_dead_last_site(presume: bool):
    """Kill s1's subtransaction before its (last) operation, so its
    piggybacked vote never exists."""
    fed = build_fed("one_phase")
    fed.gtm.RETRY_ATTEMPTS = 0
    fed.gtm.protocol.presume_commit = presume

    def killer():
        yield 3.0
        comm = fed.comms["s1"]
        if comm._subtxns:
            txn_id = next(iter(comm._subtxns.values()))
            fed.engines["s1"].force_abort(txn_id, LocalAbortReason.SYSTEM)

    fed.kernel.spawn(killer())
    outcome = submit_and_run(
        fed, [increment("t0", "x", 1)] * 3 + [increment("t1", "x", 5)]
    )
    return fed, outcome


def test_missing_vote_aborts():
    """Without the vote there is no 1PC: the global aborts cleanly."""
    fed, outcome = _run_with_dead_last_site(presume=False)
    assert not outcome.committed
    assert outcome.retriable
    assert fed.peek("s0", "t0", "x") == 100
    assert fed.peek("s1", "t1", "x") == 100
    assert atomicity_report(fed).ok


def test_presume_commit_mutant_loses_the_dead_sites_effect():
    """The seeded mutant in isolation: presuming a missing vote is a yes
    commits a global whose s1 subtransaction never executed."""
    fed, outcome = _run_with_dead_last_site(presume=True)
    assert outcome.committed
    assert fed.peek("s1", "t1", "x") == 100  # the lost effect
    report = atomicity_report(fed)
    assert not report.ok
    assert any(v.kind == "lost_execution" for v in report.violations)
