"""The lock manager over the L1 conflict tables."""

import pytest

from repro.errors import DeadlockDetected, LockTimeout
from repro.localdb.locks import LockManager, LockMode
from repro.mlt.conflicts import READ_WRITE_TABLE, SEMANTIC_TABLE
from tests.conftest import run

S, I, X = LockMode.SHARED, LockMode.INCREMENT, LockMode.EXCLUSIVE


def make(kernel, table=SEMANTIC_TABLE, timeout=None):
    return LockManager(kernel, "L1", table, default_timeout=timeout)


def test_increment_locks_commute(kernel):
    locks = make(kernel)

    def proc():
        yield from locks.acquire("g1", ("t", "x"), I)
        yield from locks.acquire("g2", ("t", "x"), I)
        return sorted(locks.holders_of(("t", "x")))

    assert run(kernel, proc()) == ["g1", "g2"]


def test_exclusive_blocks_increment(kernel):
    locks = make(kernel)
    grant_time = {}

    def writer():
        yield from locks.acquire("g1", ("t", "x"), X)
        yield 8
        locks.release_all("g1")

    def incrementer():
        yield 1
        yield from locks.acquire("g2", ("t", "x"), I)
        grant_time["g2"] = kernel.now

    kernel.spawn(writer())
    kernel.spawn(incrementer())
    kernel.run()
    assert grant_time["g2"] == 8.0


def test_rw_table_serializes_increments(kernel):
    locks = make(kernel, table=READ_WRITE_TABLE)
    grant_time = {}

    def first():
        yield from locks.acquire("g1", ("t", "x"), X)
        yield 5
        locks.release_all("g1")

    def second():
        yield 1
        yield from locks.acquire("g2", ("t", "x"), X)
        grant_time["g2"] = kernel.now

    kernel.spawn(first())
    kernel.spawn(second())
    kernel.run()
    assert grant_time["g2"] == 5.0


def test_conversion_holds_the_join(kernel):
    """A holder holds one mode: S then I converts to X, which covers both."""
    locks = make(kernel)

    def proc():
        yield from locks.acquire("g1", ("t", "x"), S)
        yield from locks.acquire("g1", ("t", "x"), I)
        yield from locks.acquire("g1", ("t", "x"), S)  # covered: no grant
        return locks.holders_of(("t", "x"))["g1"], locks.grants

    assert run(kernel, proc()) == (X, 2)
    assert locks.holds("g1", ("t", "x"), I)


def test_conversion_priority_no_self_deadlock(kernel):
    """A holder converting S->I must not queue behind a compatible waiter
    that waits on its own held S mode (the FIFO self-deadlock)."""
    locks = make(kernel)
    done = []

    def holder():
        yield from locks.acquire("g1", ("t", "x"), S)
        yield 2
        # g2's I request is queued (conflicts with our S); our own I
        # conversion must jump the queue.
        yield from locks.acquire("g1", ("t", "x"), I)
        done.append(("g1", kernel.now))
        locks.release_all("g1")

    def other():
        yield 1
        yield from locks.acquire("g2", ("t", "x"), I)
        done.append(("g2", kernel.now))
        locks.release_all("g2")

    kernel.spawn(holder())
    kernel.spawn(other())
    kernel.run()
    assert done[0][0] == "g1"
    assert len(done) == 2


def test_conversion_deadlock_detected(kernel):
    """Two S-holders both converting to X is a true deadlock."""
    locks = make(kernel)
    outcomes = {}

    def worker(name):
        yield from locks.acquire(name, ("t", "x"), S)
        yield 2
        try:
            yield from locks.acquire(name, ("t", "x"), X)
            outcomes[name] = "converted"
            yield 1
        except DeadlockDetected:
            outcomes[name] = "deadlock"
        locks.release_all(name)

    kernel.spawn(worker("g1"))
    kernel.spawn(worker("g2"))
    kernel.run()
    assert sorted(outcomes.values()) == ["converted", "deadlock"]


def test_cross_object_deadlock_detected(kernel):
    locks = make(kernel)
    outcomes = {}

    def worker(name, first, second):
        yield from locks.acquire(name, first, X)
        yield 2
        try:
            yield from locks.acquire(name, second, X)
            outcomes[name] = "ok"
        except DeadlockDetected:
            outcomes[name] = "deadlock"
        locks.release_all(name)

    kernel.spawn(worker("g1", ("t", "a"), ("t", "b")))
    kernel.spawn(worker("g2", ("t", "b"), ("t", "a")))
    kernel.run()
    assert sorted(outcomes.values()) == ["deadlock", "ok"]


def test_timeout(kernel):
    locks = make(kernel, timeout=4)
    outcome = {}

    def holder():
        yield from locks.acquire("g1", ("t", "x"), X)
        yield 100
        locks.release_all("g1")

    def waiter():
        yield 1
        try:
            yield from locks.acquire("g2", ("t", "x"), X)
        except LockTimeout:
            outcome["g2"] = kernel.now

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.run()
    assert outcome["g2"] == 5.0


def test_cancel_wait(kernel):
    locks = make(kernel)
    outcome = {}

    def holder():
        yield from locks.acquire("g1", ("t", "x"), X)
        yield 100
        locks.release_all("g1")

    def waiter():
        yield 1
        try:
            yield from locks.acquire("g2", ("t", "x"), X)
        except RuntimeError:
            outcome["g2"] = "cancelled"

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.call_at(3, lambda: locks.cancel_wait("g2", RuntimeError()))
    kernel.run()
    assert outcome["g2"] == "cancelled"


def test_release_wakes_queue_in_order(kernel):
    locks = make(kernel)
    order = []

    def holder():
        yield from locks.acquire("g1", ("t", "x"), X)
        yield 5
        locks.release_all("g1")

    def incrementer(name, delay):
        yield delay
        yield from locks.acquire(name, ("t", "x"), I)
        order.append((name, kernel.now))

    kernel.spawn(holder())
    kernel.spawn(incrementer("g2", 1))
    kernel.spawn(incrementer("g3", 2))
    kernel.run()
    # Both increments are compatible: granted together at release time.
    assert order == [("g2", 5.0), ("g3", 5.0)]


def test_hold_time_metric(kernel):
    locks = make(kernel)

    def proc():
        yield from locks.acquire("g1", ("t", "x"), I)
        yield 7
        locks.release_all("g1")

    run(kernel, proc())
    assert locks.total_hold_time == pytest.approx(7.0)
