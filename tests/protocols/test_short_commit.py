"""Short-Commit: 2PC with early lock release at commit-phase start."""

from repro.core.invariants import atomicity_report
from repro.faults import FaultInjector
from repro.localdb.txn import LocalAbortReason
from repro.mlt.actions import increment, read, write
from tests.protocols.conftest import build_fed, submit_and_run


def test_commit_happy_path_downgrades_write_locks():
    fed = build_fed("short_commit")
    outcome = submit_and_run(
        fed, [increment("t0", "x", -10), increment("t1", "x", 10)]
    )
    assert outcome.committed
    assert fed.peek("s0", "t0", "x") == 90
    assert fed.peek("s1", "t1", "x") == 110
    assert atomicity_report(fed).ok
    for engine in fed.engines.values():
        assert engine.metrics()["lock_downgrades"] > 0


def test_control_flow_is_two_phase():
    """Messages and states are exactly 2PC's; only the lock window
    shrinks."""
    fed = build_fed("short_commit")
    submit_and_run(fed, [increment("t0", "x", 1), increment("t1", "x", 1)])
    counts = fed.network.message_counts()
    assert counts["prepare"] == 2 and counts["vote"] == 2
    assert counts["decide"] == 2 and counts["finished"] == 2
    for site in ("s0", "s1"):
        states = [
            r.details["state"]
            for r in fed.kernel.trace.select(category="txn_state", site=site)
            if r.details.get("gtxn", "").startswith("G")
        ]
        assert states == ["running", "ready", "committed"]


def test_shorter_exclusive_hold_than_two_phase():
    """The point of the protocol: exclusive hold time drops because the
    write locks turn shared for the decision round-trip."""
    ops = [write("t0", "x", 1), write("t1", "y", 2)]
    hold = {}
    for protocol in ("short_commit", "2pc"):
        fed = build_fed(protocol)
        submit_and_run(fed, ops)
        hold[protocol] = sum(
            engine.metrics()["lock_exclusive_hold_time"]
            for engine in fed.engines.values()
        )
    assert hold["short_commit"] < hold["2pc"]


def _exposure_run(protocol: str):
    """T0 writes both sites; its decide to s0 is cut so the commit phase
    stays open, and a reader of the exposed page is submitted the moment
    s0 votes.  Returns (fed, T0 process, reader process)."""
    fed = build_fed(protocol, msg_timeout=10, poll=5.0)
    injector = FaultInjector(fed)
    # Drop the central -> s0 decide (sent ~9.4); heal in time for the
    # status-poll redrive, leaving a wide open commit window at s0.
    injector.partition_link("central", "s0", at=9.0, heal_after=8.0)
    reader = []

    def hook(gtxn, txn_id, proto):
        if not reader:
            reader.append(fed.submit([read("t0", "x")], name="R"))

    fed.comms["s0"].on_ready_voted.append(hook)
    p0 = fed.submit([write("t0", "x", 999), write("t1", "y", 1)], name="T0")
    fed.run()
    return fed, p0, reader[0]


def test_reader_proceeds_against_prepared_value():
    """A reader lands inside the commit window: with the write lock
    downgraded it reads the prepared value without waiting, and its own
    commit is held back until the exposer resolved (commit dependency)."""
    fed, p0, pr = _exposure_run("short_commit")
    assert p0.value.committed and pr.value.committed
    assert pr.value.reads == {"t0['x']": 999}
    assert fed.engines["s0"].metrics()["lock_waits"] == 0
    assert fed.engines["s0"].aborts.get(LocalAbortReason.CASCADE, 0) == 0
    # The retroactively-clean dirty read never becomes durable before
    # its exposer: the dependency orders the commits.
    assert pr.value.finish_time >= p0.value.finish_time


def test_same_reader_blocks_under_plain_two_phase():
    """Control: identical scenario under 2PC makes the reader wait out
    the exclusive lock -- the contrast Short-Commit exists to remove."""
    fed, p0, pr = _exposure_run("2pc")
    assert p0.value.committed and pr.value.committed
    assert pr.value.reads == {"t0['x']": 999}  # same value, later
    assert fed.engines["s0"].metrics()["lock_waits"] >= 1
    assert fed.engines["s0"].metrics()["lock_downgrades"] == 0


def test_exposer_abort_cascades_dependent_reader():
    """§3.3 in miniature: the global decision turns out to be abort
    after a reader consumed the exposed value -- the rollback restores
    the before-image and cascade-aborts the reader (retriable)."""
    fed = build_fed("short_commit", msg_timeout=10, poll=5.0)
    fed.gtm.RETRY_ATTEMPTS = 0
    injector = FaultInjector(fed)
    # Cut central -> s1 before the prepares go out (sent ~6.4): s1's
    # vote never arrives, so the decision is abort -- but s0 already
    # voted and short-released.
    injector.partition_link("central", "s1", at=6.0, heal_after=40.0)
    reader = []

    def hook(gtxn, txn_id, proto):
        if not reader:
            reader.append(fed.submit([read("t0", "x")], name="R"))

    fed.comms["s0"].on_ready_voted.append(hook)
    p0 = fed.submit([write("t0", "x", 999), write("t1", "y", 1)], name="T0")
    fed.run()
    assert not p0.value.committed
    assert not reader[0].value.committed
    assert reader[0].value.retriable  # cascade aborts are retriable
    assert fed.engines["s0"].aborts.get(LocalAbortReason.CASCADE, 0) >= 1
    assert fed.peek("s0", "t0", "x") == 100  # before-image restored
    assert fed.engines["s0"].undo_clobbers == []  # guard held
    assert atomicity_report(fed).ok


def test_writer_stays_blocked_until_resolution():
    """The downgrade (vs release) half: a writer of the exposed page
    waits on the still-held shared lock, so an abort can never clobber
    a foreign committed write."""
    fed = build_fed("short_commit", msg_timeout=10, poll=5.0)
    FaultInjector(fed).partition_link("central", "s0", at=9.0, heal_after=8.0)
    writer = []

    def hook(gtxn, txn_id, proto):
        if not writer:
            writer.append(fed.submit([write("t0", "x", 555)], name="W"))

    fed.comms["s0"].on_ready_voted.append(hook)
    p0 = fed.submit([write("t0", "x", 999), write("t1", "y", 1)], name="T0")
    fed.run()
    assert p0.value.committed and writer[0].value.committed
    assert fed.peek("s0", "t0", "x") == 555  # T0 before W
    assert writer[0].value.finish_time >= p0.value.finish_time
    assert fed.engines["s0"].metrics()["lock_waits"] >= 1
    assert fed.engines["s0"].undo_clobbers == []


def test_release_all_mutant_lets_the_writer_through():
    """The seeded mutant in isolation: releasing (not downgrading) the
    write locks lets a concurrent writer interleave with prepared
    values -- the hazard the checker's ``short_release_all`` canary
    turns into a caught dirty_undo violation."""
    fed = build_fed("short_commit", msg_timeout=10, poll=5.0)
    fed.gtm.protocol.short_release_all = True
    FaultInjector(fed).partition_link("central", "s0", at=9.0, heal_after=8.0)
    writer = []

    def hook(gtxn, txn_id, proto):
        if not writer:
            writer.append(fed.submit([write("t0", "x", 555)], name="W"))

    fed.comms["s0"].on_ready_voted.append(hook)
    p0 = fed.submit([write("t0", "x", 999), write("t1", "y", 1)], name="T0")
    fed.run()
    assert p0.value.committed and writer[0].value.committed
    assert fed.engines["s0"].metrics()["lock_waits"] == 0  # no blocking
