"""The lock manager over the page table (L0): grants, waits, upgrades, deadlocks, timeouts."""

import pytest

from repro.errors import DeadlockDetected, LockTimeout
from repro.localdb.locks import PAGE_TABLE, LockManager, LockMode
from repro.mlt.conflicts import READ_WRITE_TABLE
from repro.sim.kernel import Kernel
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


def play(kernel, locks, requests):
    """Issue ``(time, txn, resource, mode)`` requests; nobody releases.

    Returns each request's outcome: ``"granted"``, the deadlock message,
    or ``"waiting"`` for one still queued when the run goes idle.
    """
    outcomes = {}

    def request(key, time, txn, resource, mode):
        yield time
        outcomes[key] = "waiting"
        try:
            yield from locks.acquire(txn, resource, mode)
            outcomes[key] = "granted"
        except DeadlockDetected as exc:
            outcomes[key] = str(exc)

    for time, txn, resource, mode in requests:
        key = (txn, resource, mode)
        kernel.spawn(request(key, time, txn, resource, mode))
    kernel.run()
    return outcomes


def test_waits_for_chain_is_not_a_deadlock(kernel):
    locks = make(kernel)
    outcomes = play(kernel, locks, [
        (0, "c", "r2", X), (0, "b", "r1", X),
        (1, "b", "r2", X),  # b waits for c
        (2, "a", "r1", X),  # a waits for b
    ])
    assert outcomes[("b", "r2", X)] == outcomes[("a", "r1", X)] == "waiting"
    assert locks.deadlocks == 0


def test_two_cycle_aborts_the_requester(kernel):
    locks = make(kernel)
    outcomes = play(kernel, locks, [
        (0, "t1", "a", X), (0, "t2", "b", X),
        (1, "t1", "b", X),
        (2, "t2", "a", X),
    ])
    assert outcomes[("t1", "b", X)] == "waiting"
    assert outcomes[("t2", "a", X)] == "site: t2 in cycle t2 -> t1 -> t2"
    assert locks.deadlocks == 1


def test_four_cycle_aborts_the_requester(kernel):
    locks = make(kernel)
    ring = ["t1", "t2", "t3", "t4"]
    holds = [(0, txn, f"r{i}", X) for i, txn in enumerate(ring)]
    waits = [(1 + i, txn, f"r{(i + 1) % 4}", X) for i, txn in enumerate(ring)]
    outcomes = play(kernel, locks, holds + waits)
    assert [outcomes[(txn, resource, X)] for _, txn, resource, _ in waits] == [
        "waiting", "waiting", "waiting",
        "site: t4 in cycle t4 -> t1 -> t2 -> t3 -> t4",
    ]


def test_conversion_queues_ahead_of_waiters_without_a_deadlock(kernel):
    """t1's upgrade waits for the other reader only, not the queued writer."""
    locks = make(kernel)
    outcomes = play(kernel, locks, [
        (0, "t1", "r", S), (0, "t2", "r", S),
        (1, "t3", "r", X),  # waits for t1 and t2
        (2, "t1", "r", X),  # conversion: at the front, waits for t2
    ])
    assert outcomes[("t1", "r", X)] == outcomes[("t3", "r", X)] == "waiting"
    assert locks.deadlocks == 0
    locks.release_all("t2")
    kernel.run()
    assert locks.holders_of("r") == {"t1": X}


def test_two_conversions_deadlock_on_their_own_reads(kernel):
    """A converter never waits for its own hold; two of them do deadlock."""
    locks = make(kernel)
    outcomes = play(kernel, locks, [
        (0, "t1", "r", S), (0, "t2", "r", S),
        (1, "t1", "r", X),
        (2, "t2", "r", X),
    ])
    assert outcomes[("t1", "r", X)] == "waiting"
    assert outcomes[("t2", "r", X)] == "site: t2 in cycle t2 -> t1 -> t2"


def test_same_script_reports_the_same_cycle():
    """Two cycles close at once; neighbours are searched in sorted order."""

    def once():
        kernel = Kernel(seed=1)
        return play(kernel, make(kernel), [
            (0, "a", "ra", X), (0, "c", "rb", S), (0, "b", "rb", S),
            (1, "c", "ra", X),  # c waits for a
            (2, "b", "ra", X),  # b waits for a (and c, queued ahead)
            (3, "a", "rb", X),  # a waits for b and c: closes both cycles
        ])

    assert once()[("a", "rb", X)] == "site: a in cycle a -> b -> a"
    assert once() == once()


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
