"""Two-phase commit baseline (§3.1)."""

from repro.core.invariants import atomicity_report
from repro.faults import FaultInjector
from repro.localdb.interface import StandardTMInterface
from repro.mlt.actions import increment, read, write
from tests.protocols.conftest import build_fed, submit_and_run


def test_commit_happy_path():
    fed = build_fed("2pc")
    outcome = submit_and_run(
        fed, [increment("t0", "x", -10), increment("t1", "x", 10)]
    )
    assert outcome.committed
    assert fed.peek("s0", "t0", "x") == 90
    assert fed.peek("s1", "t1", "x") == 110
    assert atomicity_report(fed).ok


def test_intended_abort_no_undo_needed():
    fed = build_fed("2pc")
    outcome = submit_and_run(
        fed, [increment("t0", "x", -10), increment("t1", "x", 10)], intends_abort=True
    )
    assert not outcome.committed
    assert outcome.undo_executions == 0
    assert fed.peek("s0", "t0", "x") == 100
    assert fed.peek("s1", "t1", "x") == 100


def test_logic_error_aborts_globally():
    fed = build_fed("2pc")
    outcome = submit_and_run(
        fed,
        [increment("t0", "x", -10), increment("t1", "missing_key", 10)],
    )
    assert not outcome.committed
    assert fed.peek("s0", "t0", "x") == 100  # first site rolled back too


def standard_fed(protocol):
    """``protocol`` pointed at plain (standard) interfaces regardless."""
    fed = build_fed(protocol, msg_timeout=10)
    for site, comm in fed.comms.items():
        comm.interface = StandardTMInterface(fed.engines[site])
        fed.interfaces[site] = comm.interface
    return fed


def test_standard_interface_cannot_run_2pc():
    """Pointing 2PC at unchangeable TMs fails at prepare -- the premise."""
    fed = standard_fed("2pc")
    process = fed.submit([increment("t0", "x", -10), increment("t1", "x", 10)])
    fed.kernel.run(raise_failures=False)
    outcome = process.value
    assert not outcome.committed
    assert fed.peek("s0", "t0", "x") == 100
    assert fed.peek("s1", "t1", "x") == 100


def test_standard_interface_cannot_vote_readonly():
    """The read-only vote needs the modified TM too: a reader fails at
    prepare on an unchangeable TM just as a writer does."""
    fed = standard_fed("2pc-pa")
    process = fed.submit([read("t0", "x"), read("t1", "x")])
    fed.kernel.run(raise_failures=False)
    assert not process.value.committed


def test_locals_pass_through_ready_state():
    fed = build_fed("2pc")
    submit_and_run(fed, [increment("t0", "x", 1), increment("t1", "x", 1)])
    for site in ("s0", "s1"):
        states = [
            r.details["state"]
            for r in fed.kernel.trace.select(category="txn_state", site=site)
            if r.details.get("gtxn", "").startswith("G")
        ]
        assert states == ["running", "ready", "committed"]


def test_participant_crash_before_vote_aborts():
    fed = build_fed("2pc", msg_timeout=15)
    fed.gtm.RETRY_ATTEMPTS = 0
    injector = FaultInjector(fed)
    injector.crash_site("s1", at=1.0, recover_after=200.0)
    outcome = submit_and_run(fed, [increment("t0", "x", -10), increment("t1", "x", 10)])
    assert not outcome.committed
    assert fed.peek("s0", "t0", "x") == 100


def test_in_doubt_participant_learns_decision_after_crash():
    """Crash after prepare: recovery reinstates the ready transaction and
    the coordinator's retried decision commits it."""
    fed = build_fed("2pc", msg_timeout=10, poll=5.0)

    # Crash s1 the moment it votes ready, recover shortly after.
    def hook(gtxn, txn_id, protocol):
        fed.kernel._schedule(0.1, fed.nodes["s1"].crash)
        fed.restart_site("s1", at=fed.kernel.now + 40)

    fed.comms["s1"].on_ready_voted.append(hook)
    outcome = submit_and_run(fed, [increment("t0", "x", -10), increment("t1", "x", 10)])
    assert outcome.committed
    assert fed.peek("s1", "t1", "x") == 110
    assert atomicity_report(fed).ok


def test_read_results_returned():
    fed = build_fed("2pc")
    outcome = submit_and_run(fed, [read("t0", "x"), read("t1", "y")])
    assert outcome.committed
    assert outcome.reads == {"t0['x']": 100, "t1['y']": 50}


def test_locks_held_until_global_end():
    """A second conflicting transaction waits for the full first txn."""
    from tests.protocols.conftest import submit_delayed

    fed = build_fed("2pc")
    p1 = fed.submit([write("t0", "x", 1), write("t1", "x", 1)], name="GA")
    p2 = submit_delayed(fed, [write("t0", "x", 2)], delay=2.0, name="GB")
    fed.run()
    o1, o2 = p1.value, p2.value
    assert o1.committed and o2.committed
    # GB's single write could not finish before GA released s0 locks.
    assert o2.finish_time >= o1.finish_time - fed.config.latency * 4
    assert fed.peek("s0", "t0", "x") == 2  # GA before GB
