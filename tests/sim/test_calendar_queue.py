"""Calendar-queue kernel mechanics: slot drains, pooling, accounting.

The byte-identity matrix (``test_golden_identity``) proves the rewrite
changed nothing observable; these tests pin down the new machinery's
own invariants -- live slot drains (whichever of ``_schedule`` and
``_resume`` feeds them), mid-slot exception recovery, ``stop()`` from
inside a drain, the timed wait's deadline bookkeeping and the
``events_dispatched`` counter -- so a future change that breaks one
fails with a named behaviour, not a trace diff.
"""

from __future__ import annotations

import pytest

from repro.errors import KernelStopped, ProcessInterrupted, SimulationError
from repro.sim.events import TIMED_OUT, Future, TimedWait
from repro.sim.kernel import Kernel
from repro.sim.sync import FifoLock, Mailbox


@pytest.fixture
def kernel():
    return Kernel(seed=1)


# -- slot drains ------------------------------------------------------------


def test_zero_delay_followup_joins_the_live_slot(kernel):
    """A 0-delay event scheduled mid-drain fires in the same drain,
    after everything already queued at that instant (sequence order)."""
    order = []
    kernel.call_at(1.0, lambda: (order.append("a"),
                                 kernel.call_at(1.0, order.append, "a0")))
    kernel.call_at(1.0, order.append, "b")
    kernel.run()
    assert order == ["a", "b", "a0"]


def test_distinct_timestamps_fire_in_time_order_across_buckets(kernel):
    order = []
    for time in (3.0, 1.0, 2.0, 1.0):
        kernel.call_at(time, order.append, time)
    kernel.run()
    assert order == [1.0, 1.0, 2.0, 3.0]


def test_exception_mid_slot_preserves_the_undispatched_tail(kernel):
    """A callback exception drops only the failing entry; the rest of
    the slot (and later slots) fire on the next run() call."""
    order = []

    def boom():
        raise ValueError("boom")

    kernel.call_at(1.0, order.append, 1)
    kernel.call_at(1.0, boom)
    kernel.call_at(1.0, order.append, 2)
    kernel.call_at(2.0, order.append, 3)
    with pytest.raises(ValueError):
        kernel.run()
    assert order == [1]
    assert kernel.queued == 2
    kernel.run()
    assert order == [1, 2, 3]


def test_stop_inside_a_drain_discards_the_rest_of_the_slot(kernel):
    order = []

    def first():
        order.append("first")
        kernel.stop()

    kernel.call_at(1.0, first)
    kernel.call_at(1.0, order.append, "second")
    kernel.call_at(2.0, order.append, "later")
    kernel.run()
    assert order == ["first"]
    assert kernel.queued == 0
    with pytest.raises(KernelStopped):
        kernel.call_at(3.0, order.append, "never")


def test_exception_mid_slot_keeps_live_appends_in_the_tail(kernel):
    """Entries appended to the live slot before the failure -- by either
    scheduling path -- survive it, in order, behind the older tail."""
    order = []

    def noop():
        order.append("spawned")
        return
        yield

    def first():
        order.append("first")
        kernel.call_at(1.0, order.append, "scheduled")  # via _schedule
        kernel.spawn(noop())  # via _resume

    def boom():
        raise ValueError("boom")

    kernel.call_at(1.0, first)
    kernel.call_at(1.0, boom)
    kernel.call_at(1.0, order.append, "old tail")
    with pytest.raises(ValueError):
        kernel.run()
    assert order == ["first"]
    assert kernel.queued == 3
    assert kernel.events_dispatched == 2  # first + boom
    kernel.run()
    assert order == ["first", "old tail", "scheduled", "spawned"]
    assert kernel.events_dispatched == 5


def test_resume_after_stop_inside_a_drain_is_refused(kernel):
    """``stop()`` retires the live slot too: a zero-delay wake-up from
    the same callback must raise, not land in a dead list."""

    def noop():
        return
        yield

    def stopper():
        kernel.stop()
        with pytest.raises(KernelStopped):
            kernel.spawn(noop())
        with pytest.raises(KernelStopped):
            kernel.call_at(kernel.now, lambda: None)

    kernel.call_at(1.0, stopper)
    kernel.call_at(1.0, lambda: pytest.fail("discarded by stop()"))
    kernel.run()
    assert kernel.queued == 0
    assert kernel.events_dispatched == 1


def test_slot_of_cancelled_timers_leaves_the_clock_alone(kernel):
    first, second = kernel.timer(5.0), kernel.timer(5.0)
    kernel.call_at(2.0, first.resolve, None)
    kernel.call_at(2.0, second.resolve, None)
    assert kernel.run() == 2.0
    assert kernel.now == 2.0
    assert kernel.events_dispatched == 2
    assert kernel.queued == 0


def test_run_until_leaves_future_slots_queued(kernel):
    order = []
    kernel.call_at(1.0, order.append, 1)
    kernel.call_at(5.0, order.append, 5)
    assert kernel.run(until=2.0) == 2.0
    assert order == [1]
    assert kernel.queued == 1
    kernel.run()
    assert order == [1, 5]


# -- bulk scheduling --------------------------------------------------------


def test_call_at_bulk_interleaves_with_call_at_by_sequence(kernel):
    order = []
    kernel.call_at(1.0, order.append, "a")
    kernel.call_at_bulk([
        (1.0, order.append, ("b",)),
        (0.5, order.append, ("c",)),
    ])
    kernel.call_at(1.0, order.append, "d")
    kernel.run()
    assert order == ["c", "a", "b", "d"]


def test_call_at_bulk_rejects_past_times(kernel):
    kernel.call_at(1.0, lambda: None)
    kernel.run()
    with pytest.raises(SimulationError):
        kernel.call_at_bulk([(0.5, lambda: None, ())])


# -- timed waits --------------------------------------------------------------


def _park(kernel, wait, log):
    def proc():
        try:
            log.append((yield wait))
        except ProcessInterrupted:
            log.append("interrupted")
            yield 1000.0

    return kernel.spawn(proc(), name="waiter")


def test_woken_timed_wait_retires_its_deadline(kernel):
    """The winner cancels; the deadline's entry is skipped -- no event,
    no clock movement -- exactly like a cancelled ``Kernel.timer``."""
    log = []
    wait = TimedWait(5.0)

    def proc():
        log.append((yield wait))
        wait.cancel()

    kernel.spawn(proc(), name="waiter")
    kernel.call_at(1.0, wait.wake, 42)
    assert kernel.run() == 1.0
    assert log == [42]
    assert kernel.events_dispatched == 3  # first step, the wake, the resumption


def test_expired_timed_wait_resumes_with_the_sentinel(kernel):
    log = []
    wait = TimedWait(2.0)
    _park(kernel, wait, log)
    kernel.call_at(3.0, wait.wake, "too late")  # ignored: already settled
    assert kernel.run() == 3.0
    assert log == [TIMED_OUT]


def test_timed_wait_without_deadline_and_failure(kernel):
    log = []
    wait = TimedWait()

    def proc():
        try:
            yield wait
        except KeyError as exc:
            log.append(exc)

    kernel.spawn(proc(), name="waiter")
    boom = KeyError("boom")
    kernel.call_at(4.0, lambda: wait.wake(exc=boom))
    assert kernel.run() == 4.0
    assert log == [boom]


def test_timed_wait_settled_before_parking_still_costs_one_hop(kernel):
    log = []
    wait = TimedWait(5.0)
    wait.wake("early")
    _park(kernel, wait, log)
    kernel.run()
    assert log == ["early"]
    # first step + the hop; the uncancelled deadline then fires for real.
    assert kernel.events_dispatched == 3
    assert kernel.now == 5.0


def test_wait_with_timeout_bridges_a_future(kernel):
    future = Future(label="work")
    kernel.call_at(1.0, future.resolve, 42)
    outcome = []

    def proc():
        outcome.append((yield from kernel.wait_with_timeout(future, 5.0)))
        outcome.append((yield from kernel.wait_with_timeout(Future(), 2.0)))

    kernel.spawn(proc(), name="racer")
    assert kernel.run() == 3.0  # 1.0 + the second wait's 2.0; not the stale 5.0
    assert outcome == [(True, 42), (False, None)]


# -- interrupted waiters and their stale queue entries ------------------------


def test_interrupted_timed_waiter_leaves_a_live_deadline(kernel):
    """An interrupted waiter never cancels: its deadline fires as a real
    event (the clock moves) and queues a stale, no-op step -- what the
    future-and-timer race did, and final times depend on it."""
    log = []
    wait = TimedWait(5.0)
    process = _park(kernel, wait, log)
    kernel.call_at(1.0, process.interrupt, "crash")
    kernel.run(until=10.0)
    assert log == ["interrupted"]
    before = kernel.events_dispatched
    assert before == 5  # start, interrupt call, its step, deadline, stale step
    wait.wake("reply after the fact")  # settled by the deadline: ignored
    kernel.run(until=20.0)
    assert kernel.events_dispatched == before
    assert process.alive


def test_stale_reply_to_an_interrupted_timed_waiter_is_a_noop_step(kernel):
    log = []
    wait = TimedWait(5.0)
    process = _park(kernel, wait, log)
    kernel.call_at(1.0, process.interrupt, "crash")
    kernel.call_at(2.0, wait.wake, "reply")
    kernel.run(until=10.0)
    assert log == ["interrupted"]  # the reply woke nobody
    # ... but cost its hop, and the never-cancelled deadline still fired.
    assert kernel.events_dispatched == 6


def test_interrupted_mailbox_waiter_still_consumes_the_next_item(kernel):
    """The parked ``(process, epoch)`` pair stays queued; the next put
    is spent on it (a no-op step) -- the hazard callers own."""
    box = Mailbox()
    log = []

    def receiver(tag):
        try:
            log.append((tag, (yield from box.recv())))
        except ProcessInterrupted:
            log.append((tag, "interrupted"))

    victim = kernel.spawn(receiver("victim"))
    kernel.spawn(receiver("next"))
    kernel.call_at(1.0, victim.interrupt)
    kernel.call_at(2.0, box.put, "lost")
    kernel.call_at(3.0, box.put, "kept")
    kernel.run()
    assert log == [("victim", "interrupted"), ("next", "kept")]
    assert len(box) == 0


def test_interrupted_fifolock_waiter_is_still_handed_the_lock(kernel):
    lock = FifoLock()
    log = []

    def holder():
        yield from lock.acquire()
        yield 5.0
        lock.release()

    def waiter():
        try:
            yield from lock.acquire()
            log.append("acquired")
        except ProcessInterrupted:
            log.append("interrupted")

    kernel.spawn(holder())
    victim = kernel.spawn(waiter())
    kernel.call_at(1.0, victim.interrupt)
    kernel.run()
    assert log == ["interrupted"]
    # The hand-over went to the stale entry: nobody owns the lock now.
    assert lock.locked


# -- accounting -------------------------------------------------------------


def test_events_dispatched_counts_fired_events_only(kernel):
    timer = kernel.timer(1.0)
    timer.resolve(None)  # cancelled before firing: queue maintenance
    kernel.call_at(2.0, lambda: None)
    kernel.run()
    assert kernel.events_dispatched == 1


def test_queued_and_repr_reflect_pending_events(kernel):
    kernel.call_at(1.0, lambda: None)
    kernel.call_at(1.0, lambda: None)
    kernel.call_at(2.0, lambda: None)
    assert kernel.queued == 3
    assert "queued=3" in repr(kernel)
    kernel.run()
    assert kernel.queued == 0
