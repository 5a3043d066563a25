"""Altruistic locking baseline."""

from repro.baselines.altruistic import AltruisticLockManager
from repro.core.invariants import atomicity_report, serializability_ok
from repro.errors import LockTimeout
from repro.mlt.actions import increment, write
from repro.localdb.locks import LockMode
from repro.mlt.conflicts import READ_WRITE_TABLE
from tests.conftest import run
from tests.protocols.conftest import build_fed, submit_and_run, submit_delayed

TRANSFER = [increment("t0", "x", -10), increment("t1", "x", 10)]


def test_altruistic_commits_transfer():
    fed = build_fed("altruistic", granularity="per_action")
    outcome = submit_and_run(fed, TRANSFER)
    assert outcome.committed
    assert fed.peek("s0", "t0", "x") == 90
    assert atomicity_report(fed).ok


def test_altruistic_abort_compensates():
    fed = build_fed("altruistic", granularity="per_action")
    outcome = submit_and_run(fed, TRANSFER, intends_abort=True)
    assert not outcome.committed
    assert fed.peek("s0", "t0", "x") == 100
    assert fed.peek("s1", "t1", "x") == 100


def test_donation_lets_second_txn_pass_early():
    """T2 passes T1's donated object but must wait in T1's wake before
    deciding -- early data access, delayed commit."""
    fed = build_fed("altruistic", granularity="per_action")
    t1_ops = [write("t0", "x", 1)] + [increment("t1", "y", 1)] * 6
    p1 = fed.submit(t1_ops, name="T1")
    p2 = submit_delayed(fed, [write("t0", "x", 2)], delay=4.0, name="T2")
    fed.run()
    o1, o2 = p1.value, p2.value
    assert o1.committed and o2.committed
    locks = fed.gtm.l1
    assert locks.donations > 0
    assert locks.wake_entries >= 1
    # The wake rule: T2 finished no earlier than T1.
    assert o2.finish_time >= o1.finish_time
    assert serializability_ok(fed)


def test_wake_cycle_refused(kernel):
    """Mutual donation passing would deadlock; the manager refuses it."""
    locks = AltruisticLockManager(kernel, "L1", READ_WRITE_TABLE, default_timeout=10)
    timeline = []

    def t1():
        yield from locks.acquire("T1", "a", LockMode.EXCLUSIVE)
        locks.donate("T1", "a")
        yield 2
        try:
            yield from locks.acquire("T1", "b", LockMode.EXCLUSIVE)
            timeline.append("T1-got-b")
        except Exception as exc:
            timeline.append(f"T1-{type(exc).__name__}")
        locks.finish("T1")

    def t2():
        yield 1
        yield from locks.acquire("T2", "b", LockMode.EXCLUSIVE)
        locks.donate("T2", "b")
        yield from locks.acquire("T2", "a", LockMode.EXCLUSIVE)  # passes T1's donation
        timeline.append("T2-got-a")
        yield 5
        locks.finish("T2")

    kernel.spawn(t1())
    kernel.spawn(t2())
    kernel.run()
    # T2 entered T1's wake on a; T1 must NOT be allowed to pass T2's
    # donated b (cycle) -- it waits for the real release instead.
    assert "T2-got-a" in timeline
    assert "T1-got-b" in timeline  # granted after T2 finished, not passed


def test_metrics_track_donations(kernel):
    locks = AltruisticLockManager(kernel, "L1", READ_WRITE_TABLE)

    def proc():
        yield from locks.acquire("T1", "a", LockMode.EXCLUSIVE)
        locks.donate("T1", "a")
        locks.finish("T1")

    run(kernel, proc())
    assert locks.donations == 1


def enter_wake(kernel, locks):
    """T2 passes T1's donated lock on ``a``: T2 is in T1's wake."""

    def setup():
        yield from locks.acquire("T1", "a", LockMode.EXCLUSIVE)
        locks.donate("T1", "a")
        yield from locks.acquire("T2", "a", LockMode.EXCLUSIVE)

    run(kernel, setup())
    assert locks.wake == {"T2": {"T1"}}


def wake_waiter(kernel, locks, timeout):
    def waiter():
        try:
            yield from locks.wait_for_wake("T2", timeout=timeout)
        except LockTimeout:
            return "timed out", kernel.now
        return "done", kernel.now

    return waiter()


def test_wait_for_wake_on_a_finished_donor_returns_at_once(kernel):
    locks = AltruisticLockManager(kernel, "L1", READ_WRITE_TABLE)
    enter_wake(kernel, locks)
    locks.finish("T1")
    start = kernel.now
    assert run(kernel, wake_waiter(kernel, locks, timeout=10)) == ("done", start)
    assert "T2" not in locks.wake
    # The deadline armed at the park was retired, not fired.
    assert kernel.now == start


def test_wait_for_wake_returns_when_the_donor_finishes(kernel):
    locks = AltruisticLockManager(kernel, "L1", READ_WRITE_TABLE)
    enter_wake(kernel, locks)
    start = kernel.now
    kernel.call_at(start + 5, locks.finish, "T1")
    assert run(kernel, wake_waiter(kernel, locks, timeout=10)) == ("done", start + 5)
    assert "T2" not in locks.wake
    assert kernel.now == start + 5


def test_wait_for_wake_times_out_with_lock_timeout(kernel):
    locks = AltruisticLockManager(kernel, "L1", READ_WRITE_TABLE)
    enter_wake(kernel, locks)
    start = kernel.now
    result = run(kernel, wake_waiter(kernel, locks, timeout=4))
    assert result == ("timed out", start + 4)
    assert locks._wake_waits == {}  # the timed-out wait left its donor's list
    # A donor finishing after the deadline wakes nobody.
    locks.finish("T1")
    kernel.run()
    assert kernel.now == start + 4


def test_fifty_transactions_leave_no_wake_state():
    """Once every transaction ended, no wake set and no finished donor is
    kept: a finished donor is remembered only while a wake names it."""
    fed = build_fed("altruistic", granularity="per_action")
    ops = [write("t0", "x", 1)] + [increment("t1", "y", 1)] * 3
    runs = [submit_delayed(fed, ops, delay=2.0 * i, name=f"T{i}") for i in range(50)]
    fed.run()
    assert all(run.value.committed for run in runs)
    locks = fed.gtm.l1
    assert locks.wake_entries > 0
    assert locks.wake == {}
    assert locks._finished == set()
