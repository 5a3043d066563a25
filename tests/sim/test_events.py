"""Futures and timed waits."""

import pytest

from repro.sim.events import TIMED_OUT, Future, TimedWait
from tests.conftest import run


def test_future_resolve_and_value():
    future = Future(label="f")
    assert not future.done
    future.resolve(42)
    assert future.done
    assert future.value == 42


def test_future_fail_raises_on_value():
    future = Future()
    future.fail(RuntimeError("nope"))
    with pytest.raises(RuntimeError):
        future.value


def test_future_double_resolve_rejected():
    future = Future()
    future.resolve(1)
    with pytest.raises(RuntimeError):
        future.resolve(2)


def test_value_before_resolution_rejected():
    with pytest.raises(RuntimeError):
        Future().value


def test_process_wakes_on_future(kernel):
    future = Future()

    def waiter():
        value = yield future
        return value, kernel.now

    def resolver():
        yield 6
        future.resolve("hello")

    kernel.spawn(resolver())
    assert run(kernel, waiter()) == ("hello", 6.0)


def test_failed_future_raises_in_process(kernel):
    future = Future()

    def waiter():
        try:
            yield future
        except KeyError:
            return "caught"

    def failer():
        yield 1
        future.fail(KeyError("gone"))

    kernel.spawn(failer())
    assert run(kernel, waiter()) == "caught"


def test_timed_wait_deadline_beats_a_later_wake(kernel):
    wait = TimedWait(3)
    kernel.call_at(10.0, wait.wake, "late")

    def proc():
        value = yield wait
        return value, kernel.now

    assert run(kernel, proc()) == (TIMED_OUT, 3.0)


def test_timed_wait_ignores_later_wakes(kernel):
    wait = TimedWait(50.0)

    def proc():
        value = yield wait
        yield 5  # let the later wake land afterwards
        return value

    def waker():
        yield 1
        wait.wake("fast")
        yield 1
        wait.wake("slow")

    kernel.spawn(waker())
    assert run(kernel, proc()) == "fast"


def test_timed_wait_woken_before_its_park_arms_and_retires_its_deadline(kernel):
    wait = TimedWait(3)
    wait.wake("now")

    def proc():
        value = yield wait
        return value, kernel.now

    assert run(kernel, proc()) == ("now", 0.0)
    # Spawn, deadline and resumption each took a sequence number; the
    # spent deadline was skipped without moving the clock.
    assert kernel._sequence == 3
    assert kernel.now == 0.0
