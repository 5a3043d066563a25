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

from repro.errors import KernelStopped, ProcessInterrupted
from repro.sim.events import TIMED_OUT, TimedWait
from repro.sim.kernel import Kernel
from repro.sim.sync import FifoLock, Mailbox


@pytest.fixture
def kernel():
    return Kernel(seed=1)


def _park(kernel, wait, log):
    def proc():
        try:
            log.append((yield wait))
        except ProcessInterrupted:
            log.append("interrupted")
            yield 1000.0

    return kernel.spawn(proc(), name="waiter")


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
    first, second = TimedWait(5.0), TimedWait(5.0)
    _park(kernel, first, [])
    _park(kernel, second, [])
    kernel.call_at(2.0, first.wake)
    kernel.call_at(2.0, second.wake)
    assert kernel.run() == 2.0
    assert kernel.now == 2.0
    assert kernel.events_dispatched == 6  # two parks, two wakes, two resumptions
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


# -- timed waits --------------------------------------------------------------


def test_woken_timed_wait_retires_its_deadline(kernel):
    """The wake settles the wait; the deadline's entry is skipped -- no
    event, no clock movement."""
    log = []
    wait = TimedWait(5.0)
    _park(kernel, wait, log)
    kernel.call_at(1.0, wait.wake, 42)
    assert kernel.run() == 1.0
    assert log == [42]
    assert kernel.events_dispatched == 3  # first step, the wake, the resumption


def test_wake_earlier_in_the_deadlines_instant_skips_the_deadline(kernel):
    log = []
    wait = TimedWait(5.0)
    kernel.call_at(5.0, wait.wake, "reply")  # queued ahead of the deadline
    _park(kernel, wait, log)
    assert kernel.run() == 5.0
    assert log == ["reply"]
    assert kernel.events_dispatched == 3  # the park, the wake, its step


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
    # first step + the hop; the deadline, armed at the park, is spent.
    assert kernel.events_dispatched == 2
    assert kernel.now == 0.0


def test_a_woken_wait_leaves_no_deadline_behind(kernel):
    first = TimedWait(5.0)
    kernel.call_at(1.0, first.wake, 42)
    outcome = []

    def proc():
        outcome.append((yield first))
        outcome.append((yield TimedWait(2.0)))

    kernel.spawn(proc(), name="racer")
    assert kernel.run() == 3.0  # 1.0 + the second wait's 2.0; not the stale 5.0
    assert outcome == [42, TIMED_OUT]


# -- interrupted waiters and their stale queue entries ------------------------


def test_interrupted_timed_waiter_leaves_a_live_deadline(kernel):
    """An interrupt does not settle the wait: its deadline fires as a
    real event (the clock moves) and queues a stale, no-op step."""
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
    # ... but cost its hop, and settled the wait: the deadline is skipped.
    assert kernel.events_dispatched == 5


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
    wait = TimedWait(1.0)
    _park(kernel, wait, [])
    kernel.call_at(0.5, wait.wake)  # its deadline is now queue maintenance
    kernel.call_at(2.0, lambda: None)
    kernel.run()
    assert kernel.events_dispatched == 4  # the park, the wake, its step, the call


def test_queued_and_repr_reflect_pending_events(kernel):
    kernel.call_at(1.0, lambda: None)
    kernel.call_at(1.0, lambda: None)
    kernel.call_at(2.0, lambda: None)
    assert kernel.queued == 3
    assert "queued=3" in repr(kernel)
    kernel.run()
    assert kernel.queued == 0
