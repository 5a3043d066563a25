"""The global recovery manager: in-doubt resolution after restarts.

Local (ARIES-style) recovery can only reinstate a prepared
subtransaction in the READY state; deciding what becomes of it is the
global layer's job.  These tests drive every resolution path: presumed
abort for orphans, re-driven hardened commits, re-driven redo
obligations, orphan termination from straggler replies, and the
idempotence of the restart machinery itself.
"""

from repro.core.gtm import GTMConfig
from repro.core.invariants import atomicity_report
from repro.faults import FaultInjector
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment
from repro.net.message import Message


def build(protocol: str, seed: int = 0, retries: int = 5, **extra) -> Federation:
    preparable = protocol in ("2pc", "2pc-pa", "3pc")
    fed = Federation(
        [
            SiteSpec("s0", tables={"t0": {"x": 100}}, preparable=preparable),
            SiteSpec("s1", tables={"t1": {"x": 100}}, preparable=preparable),
        ],
        FederationConfig(
            seed=seed,
            gtm=GTMConfig(
                protocol=protocol, granularity="per_site",
                msg_timeout=15, status_poll_interval=5,
            ),
            **extra,
        ),
    )
    fed.gtm.RETRY_ATTEMPTS = retries
    return fed


TRANSFER = [increment("t0", "x", -10), increment("t1", "x", 10)]


def vote_time(protocol: str, site: str) -> float:
    """Probe run: when does ``site`` send its phase-1 vote?"""
    fed = build(protocol)
    fed.submit(TRANSFER)
    fed.run()
    for record in fed.kernel.trace.records:
        if (record.category == "message" and record.site == site
                and record.subject == "vote"):
            return record.time
    raise AssertionError(f"no vote from {site} in the probe run")


def probe_local_txn(protocol: str, site: str) -> str:
    """Probe run: the id of ``site``'s local transaction."""
    fed = build(protocol)
    fed.submit(TRANSFER)
    fed.run()
    for record in fed.kernel.trace.records:
        if (record.category == "txn_state" and record.site == site
                and record.details.get("gtxn")):
            return record.subject
    raise AssertionError(f"no local transaction on {site} in the probe run")


def test_presumed_abort_resolves_indoubt_on_restart():
    """2PC-PA: s1 votes ready and crashes; s0's vote aborts the global
    transaction, whose fire-and-forget abort misses the crashed site.
    The reinstated READY local is aborted by the restart recovery."""
    abort_at = vote_time("2pc-pa", "s0") - 0.5   # after ops, before prepare
    crash_at = vote_time("2pc-pa", "s1") + 0.2   # just after the ready vote
    s0_txn = probe_local_txn("2pc-pa", "s0")
    fed = build("2pc-pa", retries=0)
    injector = FaultInjector(fed)
    process = fed.submit(TRANSFER)
    injector.abort_subtxn("s0", s0_txn, at=abort_at)
    fed.crash_site("s1", at=crash_at)
    fed.restart_site("s1", at=crash_at + 40.0)
    fed.run()
    assert process.done and not process.value.committed
    # The site held the prepared local in doubt until recovery decided.
    assert fed.gtm.recovery.passes >= 1
    assert fed.gtm.recovery.resolved_indoubt >= 1
    assert not list(fed.engines["s1"].active_txns())
    assert atomicity_report(fed).ok
    assert fed.peek("s1", "t1", "x") == 100


def test_indoubt_commit_redriven_after_restart():
    """2PC: both votes arrive, commit hardens, the decide misses the
    crashed site -- after restart the local must COMMIT, not abort."""
    at = vote_time("2pc", "s1") + 0.2
    fed = build("2pc")
    process = fed.submit(TRANSFER)
    fed.crash_site("s1", at=at)
    fed.restart_site("s1", at=at + 40.0)
    fed.run()
    assert process.done and process.value.committed
    assert not list(fed.engines["s1"].active_txns())
    assert atomicity_report(fed).ok
    assert fed.peek("s1", "t1", "x") == 110


def test_recovery_redrives_hardened_commit_for_orphan():
    """An in-doubt local whose coordinator is gone but whose commit
    was hardened is re-driven to commit (never presumed abort)."""
    at = vote_time("2pc", "s1") + 0.2
    fed = build("2pc")
    process = fed.submit(TRANSFER)
    fed.crash_site("s1", at=at)
    fed.run(until=at + 30.0)  # coordinator blocks in commit_until_done
    assert not process.done  # still waiting on s1
    attempt_ids = list(fed.gtm.active)
    assert attempt_ids and fed.gtm.decision_log.decision_for(attempt_ids[0]) == "commit"
    fed.restart_site("s1")
    fed.run()
    assert process.done and process.value.committed
    assert fed.peek("s1", "t1", "x") == 110


def test_recovery_redrives_orphaned_redo_obligation():
    """Commit-after: a pending redo entry whose coordinator is gone is
    re-driven from the redo log on restart (the §3.2 obligation)."""
    fed = build("after")
    # Plant an orphaned obligation directly: hardened commit + pending
    # redo entry, no active coordinator (its process crashed mid-run).
    fed.gtm.decision_log.harden(["G-orphan"], "commit")
    fed.gtm.redo_log.record("G-orphan", "s1", [increment("t1", "x", 7)])
    fed.crash_site("s1", at=5.0)
    fed.restart_site("s1", at=20.0)
    fed.run()
    assert fed.gtm.recovery.redriven_redos == 1
    assert fed.gtm.redo_log.pending() == []
    assert fed.peek("s1", "t1", "x") == 107


def test_straggler_reply_terminates_orphan():
    """A reply nobody waits for reveals an orphaned subtransaction;
    the recovery manager terminates it with a decide."""
    fed = build("2pc", reliable=True)
    # A ghost delivery in the purest form: a begin_subtxn for an
    # attempt the GTM has already resolved -- nobody awaits the reply.
    fed.network.send(
        Message(kind="begin_subtxn", sender="central", dest="s1",
                gtxn_id="G-ghost")
    )
    fed.run()
    assert fed.gtm.recovery.orphans_terminated == 1
    assert not list(fed.engines["s1"].active_txns())  # presumed abort


def test_restart_of_running_site_is_noop():
    fed = build("2pc")
    fed.restart_site("s1")
    fed.restart_site("s1", at=5.0)
    fed.run()
    assert not fed.nodes["s1"].crashed
    assert fed.gtm.recovery.passes == 0  # no crash: no recovery pass


def test_overlapping_outages_extend_never_shorten():
    """A crash inside another outage must not let the first outage's
    restart resurrect the site early, nor double-count the crash."""
    fed = build("2pc")
    injector = FaultInjector(fed)
    injector.crash_site("s1", at=10.0, recover_after=50.0)   # up at 60
    injector.crash_site("s1", at=40.0, recover_after=50.0)   # up at 90
    observed = {}
    fed.kernel.call_at(65.0, lambda: observed.setdefault("at65", fed.nodes["s1"].crashed))
    fed.kernel.call_at(95.0, lambda: observed.setdefault("at95", fed.nodes["s1"].crashed))
    fed.run()
    assert injector.injected_crashes == 1  # second crash extended the first
    assert observed == {"at65": True, "at95": False}


def test_crash_during_recovery_pass_restarts_cleanly():
    """A second crash while the recovery sweep is mid-flight abandons
    the stale sweep; the next restart resolves the in-doubt local."""
    abort_at = vote_time("2pc-pa", "s0") - 0.5
    crash_at = vote_time("2pc-pa", "s1") + 0.2
    s0_txn = probe_local_txn("2pc-pa", "s0")
    fed = build("2pc-pa", retries=0)
    injector = FaultInjector(fed)
    process = fed.submit(TRANSFER)
    injector.abort_subtxn("s0", s0_txn, at=abort_at)
    fed.crash_site("s1", at=crash_at)
    fed.restart_site("s1", at=crash_at + 30.0)
    # The restart takes ~1s; +31.5 lands between the recovery pass's
    # recover_query and its resolving decide -- mid-sweep.
    fed.crash_site("s1", at=crash_at + 31.5)
    fed.restart_site("s1", at=crash_at + 60.0)
    fed.run()
    assert process.done and not process.value.committed
    assert fed.gtm.recovery.passes >= 2
    assert not list(fed.engines["s1"].active_txns())
    assert atomicity_report(fed).ok
    assert fed.peek("s1", "t1", "x") == 100
