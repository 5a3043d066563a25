"""The lock manager over the page table (L0): grants, waits, upgrades, deadlocks, timeouts."""

import pytest

from repro.errors import DeadlockDetected, LockTimeout
from repro.localdb.locks import PAGE_TABLE, LockManager, LockMode
from repro.mlt.conflicts import READ_WRITE_TABLE
from tests.conftest import run

S, X = LockMode.SHARED, LockMode.EXCLUSIVE


def make(kernel, timeout=None):
    return LockManager(kernel, "site", default_timeout=timeout)


def test_compatibility_matrix():
    assert PAGE_TABLE.compatible(S, S)
    assert not PAGE_TABLE.compatible(S, X)
    assert not PAGE_TABLE.compatible(X, S)
    assert not PAGE_TABLE.compatible(X, X)


def test_immediate_grant_when_free(kernel):
    locks = make(kernel)

    def proc():
        yield from locks.acquire("t1", "r", X)
        return locks.holds("t1", "r", X)

    assert run(kernel, proc()) is True


def test_shared_locks_coexist(kernel):
    locks = make(kernel)

    def proc():
        yield from locks.acquire("t1", "r", S)
        yield from locks.acquire("t2", "r", S)
        return sorted(locks.holders_of("r"))

    assert run(kernel, proc()) == ["t1", "t2"]


def test_reentrant_acquire_is_noop(kernel):
    locks = make(kernel)

    def proc():
        yield from locks.acquire("t1", "r", X)
        yield from locks.acquire("t1", "r", X)
        yield from locks.acquire("t1", "r", S)  # weaker: covered
        return locks.grants

    assert run(kernel, proc()) == 1


def test_exclusive_blocks_until_release(kernel):
    locks = make(kernel)
    order = []

    def holder():
        yield from locks.acquire("t1", "r", X)
        yield 10
        locks.release_all("t1")

    def waiter():
        yield 1
        yield from locks.acquire("t2", "r", X)
        order.append(kernel.now)

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.run()
    assert order == [10.0]


def test_fifo_fairness_no_reader_overtaking(kernel):
    """A shared request behind a queued exclusive one must wait."""
    locks = make(kernel)
    order = []

    def reader1():
        yield from locks.acquire("r1", "r", S)
        yield 10
        locks.release_all("r1")

    def writer():
        yield 1
        yield from locks.acquire("w", "r", X)
        order.append(("w", kernel.now))
        locks.release_all("w")

    def reader2():
        yield 2
        yield from locks.acquire("r2", "r", S)
        order.append(("r2", kernel.now))
        locks.release_all("r2")

    kernel.spawn(reader1())
    kernel.spawn(writer())
    kernel.spawn(reader2())
    kernel.run()
    assert order == [("w", 10.0), ("r2", 10.0)]


def test_upgrade_sole_holder_instant(kernel):
    locks = make(kernel)

    def proc():
        yield from locks.acquire("t1", "r", S)
        yield from locks.acquire("t1", "r", X)
        return locks.holds("t1", "r", X)

    assert run(kernel, proc()) is True


def test_upgrade_waits_for_other_readers(kernel):
    locks = make(kernel)
    times = {}

    def other_reader():
        yield from locks.acquire("t2", "r", S)
        yield 5
        locks.release_all("t2")

    def upgrader():
        yield from locks.acquire("t1", "r", S)
        yield 1
        yield from locks.acquire("t1", "r", X)
        times["upgraded"] = kernel.now

    kernel.spawn(other_reader())
    kernel.spawn(upgrader())
    kernel.run()
    assert times["upgraded"] == 5.0


def test_upgrade_has_priority_over_waiters(kernel):
    locks = make(kernel)
    order = []

    def reader():
        yield from locks.acquire("t1", "r", S)
        yield 2
        yield from locks.acquire("t1", "r", X)  # upgrade
        order.append(("t1-upgraded", kernel.now))
        yield 2
        locks.release_all("t1")

    def writer():
        yield 1
        yield from locks.acquire("t2", "r", X)
        order.append(("t2", kernel.now))
        locks.release_all("t2")

    kernel.spawn(reader())
    kernel.spawn(writer())
    kernel.run()
    assert order[0][0] == "t1-upgraded"


def test_deadlock_detected_requester_aborts(kernel):
    locks = make(kernel)
    outcome = {}

    def t1():
        yield from locks.acquire("t1", "a", X)
        yield 2
        try:
            yield from locks.acquire("t1", "b", X)
            outcome["t1"] = "ok"
        except DeadlockDetected:
            outcome["t1"] = "deadlock"
            locks.release_all("t1")

    def t2():
        yield from locks.acquire("t2", "b", X)
        yield 2
        try:
            yield from locks.acquire("t2", "a", X)
            outcome["t2"] = "ok"
        except DeadlockDetected:
            outcome["t2"] = "deadlock"
            locks.release_all("t2")

    kernel.spawn(t1())
    kernel.spawn(t2())
    kernel.run()
    assert sorted(outcome.values()) == ["deadlock", "ok"]
    assert locks.deadlocks == 1


def test_three_way_deadlock_detected(kernel):
    locks = make(kernel)
    deadlocks = []

    def worker(me, first, second):
        yield from locks.acquire(me, first, X)
        yield 2
        try:
            yield from locks.acquire(me, second, X)
            yield 2
        except DeadlockDetected:
            deadlocks.append(me)
        locks.release_all(me)

    kernel.spawn(worker("t1", "a", "b"))
    kernel.spawn(worker("t2", "b", "c"))
    kernel.spawn(worker("t3", "c", "a"))
    kernel.run()
    assert len(deadlocks) >= 1  # at least one victim breaks the cycle


def test_timeout_raises_and_cleans_queue(kernel):
    locks = make(kernel, timeout=5)
    result = {}

    def holder():
        yield from locks.acquire("t1", "r", X)
        yield 100
        locks.release_all("t1")

    def waiter():
        yield 1
        try:
            yield from locks.acquire("t2", "r", X)
        except LockTimeout:
            result["t2"] = kernel.now

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.run()
    assert result["t2"] == 6.0
    assert locks.timeouts == 1


@pytest.mark.parametrize(
    "table,timeout", [(PAGE_TABLE, 50.0), (READ_WRITE_TABLE, 150.0)], ids=["L0", "L1"]
)
def test_granted_wait_retires_its_timeout(kernel, table, timeout):
    """A grant ends the run at the grant, not at the unused deadline."""
    locks = LockManager(kernel, "s0", table, default_timeout=timeout)

    def holder():
        yield from locks.acquire("t1", "r", X)
        yield 1
        locks.release_all("t1")

    def waiter():
        yield from locks.acquire("t2", "r", X)

    kernel.spawn(holder())
    kernel.spawn(waiter())
    assert kernel.run() == 1.0
    # Two starts, the release, the waiter's resumption: no timeout event.
    assert kernel.events_dispatched == 4
    assert locks.holds("t2", "r", X)


def test_release_all_wakes_compatible_batch(kernel):
    locks = make(kernel)
    woke = []

    def writer():
        yield from locks.acquire("w", "r", X)
        yield 5
        locks.release_all("w")

    def reader(name):
        yield 1
        yield from locks.acquire(name, "r", S)
        woke.append((name, kernel.now))

    kernel.spawn(writer())
    kernel.spawn(reader("r1"))
    kernel.spawn(reader("r2"))
    kernel.run()
    assert woke == [("r1", 5.0), ("r2", 5.0)]


def test_cancel_wait_fails_future(kernel):
    locks = make(kernel)
    result = {}

    def holder():
        yield from locks.acquire("t1", "r", X)
        yield 100
        locks.release_all("t1")

    def waiter():
        yield 1
        try:
            yield from locks.acquire("t2", "r", X)
        except RuntimeError as exc:
            result["err"] = str(exc)

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.call_at(3, lambda: locks.cancel_wait("t2", RuntimeError("killed")))
    kernel.run()
    assert result["err"] == "killed"


def test_crash_fails_all_waiters(kernel):
    from repro.errors import SiteCrashed

    locks = make(kernel)
    result = []

    def holder():
        yield from locks.acquire("t1", "r", X)
        yield 100

    def waiter():
        yield 1
        try:
            yield from locks.acquire("t2", "r", X)
        except SiteCrashed:
            result.append("crashed")

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.call_at(2, locks.crash)
    kernel.run(raise_failures=False)
    assert result == ["crashed"]
    assert locks.holders_of("r") == {}


@pytest.mark.parametrize("timeout", [None, 50.0])
def test_interrupted_wait_leaves_no_queued_request(kernel, timeout):
    """A waiter killed in the queue must not be granted the lock later."""
    locks = make(kernel, timeout=timeout)
    queued = []

    def holder():
        yield from locks.acquire("t1", "r", X)
        yield 10
        locks.release_all("t1")

    def waiter():
        yield 1
        try:
            yield from locks.acquire("t2", "r", X)
        finally:
            locks.release_all("t2")  # what a dying transaction does

    def later():
        yield 2
        yield from locks.acquire("t3", "r", X)
        queued.append(kernel.now)
        locks.release_all("t3")

    kernel.spawn(holder())
    victim = kernel.spawn(waiter())
    kernel.spawn(later())
    kernel.call_at(5, victim.interrupt, "crashed")
    kernel.run(raise_failures=False)
    assert queued == [10.0]  # t3 got the lock t2 no longer waits for
    assert locks.holders_of("r") == {}


def test_metrics_wait_and_hold_time(kernel):
    locks = make(kernel)

    def holder():
        yield from locks.acquire("t1", "r", X)
        yield 10
        locks.release_all("t1")

    def waiter():
        yield from locks.acquire("t2", "r", X)
        yield 5
        locks.release_all("t2")

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.run()
    assert locks.total_wait_time == pytest.approx(10.0)
    assert locks.total_hold_time == pytest.approx(15.0)
    assert locks.waits == 1
