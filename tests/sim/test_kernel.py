"""Kernel scheduling, time, determinism and failure propagation."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import TIMED_OUT, TimedWait
from repro.sim.kernel import Kernel
from tests.conftest import run


def test_time_starts_at_zero(kernel):
    assert kernel.now == 0.0


def test_delay_advances_time(kernel):
    def proc():
        yield 5
        return kernel.now

    assert run(kernel, proc()) == 5.0


def test_numeric_yield_accepts_int_and_float(kernel):
    def proc():
        yield 1
        yield 2.5
        return kernel.now

    assert run(kernel, proc()) == 3.5


def test_events_fire_in_time_order(kernel):
    order = []
    kernel._schedule(3, lambda: order.append("c"))
    kernel._schedule(1, lambda: order.append("a"))
    kernel._schedule(2, lambda: order.append("b"))
    kernel.run()
    assert order == ["a", "b", "c"]


def test_ties_break_in_insertion_order(kernel):
    order = []
    for name in "abcde":
        kernel._schedule(1.0, lambda n=name: order.append(n))
    kernel.run()
    assert order == list("abcde")


def test_run_until_stops_at_horizon(kernel):
    fired = []
    kernel._schedule(10, lambda: fired.append(1))
    final = kernel.run(until=5)
    assert final == 5
    assert not fired


def test_negative_delay_rejected(kernel):
    with pytest.raises(SimulationError):
        kernel._schedule(-1, lambda: None)


def test_process_return_value(kernel):
    def proc():
        yield 1
        return "done"

    assert run(kernel, proc()) == "done"


def test_join_process(kernel):
    def child():
        yield 4
        return 99

    def parent():
        value = yield kernel.spawn(child())
        return (value, kernel.now)

    assert run(kernel, parent()) == (99, 4.0)


def test_join_already_finished_process(kernel):
    def child():
        return 7
        yield

    def parent():
        proc = kernel.spawn(child())
        yield 10
        value = yield proc
        return value

    assert run(kernel, parent()) == 7


def test_unobserved_failure_raises_after_run(kernel):
    def bad():
        yield 1
        raise ValueError("boom")

    kernel.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        kernel.run()


def test_observed_failure_propagates_to_joiner_only(kernel):
    def bad():
        yield 1
        raise ValueError("boom")

    def parent():
        try:
            yield kernel.spawn(bad())
        except ValueError:
            return "caught"
        return "missed"

    assert run(kernel, parent()) == "caught"


def test_a_failure_is_kept_only_while_nobody_observed_it(kernel):
    """A failure its joiner was waiting for is never kept.  One nobody
    joined is kept and raised; a later join observes it, and the run
    that follows drops it."""
    def bad():
        yield 1
        raise ValueError("boom")

    def parent():
        try:
            yield kernel.spawn(bad())
        except ValueError:
            return "caught"

    assert run(kernel, parent()) == "caught"
    assert kernel.failures == []
    proc = kernel.spawn(bad())
    with pytest.raises(ValueError, match="boom"):
        kernel.run()
    assert [entry[0] for entry in kernel.failures] == [proc]

    def late():
        try:
            yield proc
        except ValueError:
            return "caught"

    assert run(kernel, late()) == "caught"
    assert kernel.failures == []


def test_timed_wait_woken_in_time(kernel):
    wait = TimedWait(10)
    kernel.call_at(2, wait.wake, "done")

    def proc():
        value = yield wait
        return value, kernel.now

    assert run(kernel, proc()) == ("done", 2.0)


def test_timed_wait_expires(kernel):
    def proc():
        value = yield TimedWait(3)
        return value, kernel.now

    assert run(kernel, proc()) == (TIMED_OUT, 3.0)


def test_same_seed_same_schedule():
    def workload(kernel):
        trace = []

        def proc(i):
            rng = kernel.rng.stream("jitter")
            yield rng.uniform(0, 10)
            trace.append((i, kernel.now))

        for i in range(5):
            kernel.spawn(proc(i))
        kernel.run()
        return trace

    assert workload(Kernel(seed=7)) == workload(Kernel(seed=7))


def test_different_seed_different_schedule():
    def workload(kernel):
        rng = kernel.rng.stream("jitter")
        return [rng.random() for _ in range(5)]

    assert workload(Kernel(seed=7)) != workload(Kernel(seed=8))


def test_stop_discards_pending_and_refuses_scheduling(kernel):
    from repro.errors import KernelStopped

    fired = []
    kernel._schedule(5, lambda: fired.append(1))
    kernel.stop()
    kernel.run()
    assert not fired
    with pytest.raises(KernelStopped):
        kernel._schedule(1, lambda: None)


def test_call_at_absolute_time(kernel):
    seen = []

    def proc():
        yield 2
        kernel.call_at(9, lambda: seen.append(kernel.now))
        yield 10

    run(kernel, proc())
    assert seen == [9.0]


def test_cancelled_timer_does_not_advance_clock(kernel):
    """A deadline retired early is skipped by the run loop without
    advancing simulated time -- a sim must not end at the deadline of
    a retransmit/timeout timer that was cancelled long before."""
    from repro.sim.events import TimedWait

    wait = TimedWait(1000.0)
    kernel.call_at(1.0, wait.wake)  # cancel: the awaited event arrived

    def proc():
        yield wait
        yield 2.0

    run(kernel, proc())
    assert kernel.now == 3.0


def test_winning_wake_skips_its_timer(kernel):
    """When the wake wins the race, the timeout timer is skipped, so
    the queue drains at the wake's time, not the timeout's."""
    wait = TimedWait(500.0)

    def waker():
        yield 2.0
        wait.wake("value")

    def waiter():
        value = yield wait
        return value

    kernel.spawn(waker(), name="waker")
    process = kernel.spawn(waiter(), name="waiter")
    end = kernel.run()
    assert process.value == "value"
    assert end == 2.0
