"""Effects and synchronization primitives for the simulation kernel.

A process yields one of the following to the kernel:

* a bare ``int``/``float`` -- resume after that much simulated time.
* :class:`Future` -- resume when the future resolves; if it fails, the
  stored exception is thrown into the process.
* :class:`TimedWait` -- park until woken or a deadline, whichever is
  first: the kernel's one wait with a deadline (request/reply, lock
  waits).
* another :class:`~repro.sim.process.Process` -- processes are futures,
  so yielding one joins it.
* a :class:`~repro.sim.sync.Mailbox` or :class:`~repro.sim.sync.FifoLock`
  -- park in its queue (their ``recv``/``acquire`` helpers do this).

Everything but a bare number is *parked on*: the process calls the
effect's ``_add_waiter(process, epoch)`` and goes to sleep; whoever
completes the effect wakes it with ``kernel._resume(process, epoch,
value, exc)``, which queues the process's next step at the current
instant.  A waiter is a bare ``(process, epoch)`` pair -- no closure,
no intermediate future -- and a wake-up whose epoch the process has
moved past (it was interrupted meanwhile) is a no-op step.

Futures favour flat slots and lazy structures: the waiter list is
only materialised when someone actually waits.
"""

from __future__ import annotations

from typing import Any, Optional


class Future:
    """A one-shot container for a value or an exception.

    ``resolve`` and ``fail`` may each be called at most once; each
    process parked on the future (``value = yield future``) is then
    queued to resume at the current simulated instant.

    The waiter list (``_callbacks``) is ``None`` until the first waiter
    arrives -- most futures resolve with exactly one -- and holds the
    ``(process, epoch)`` pairs planted by :meth:`_add_waiter`, which
    completion turns straight into a kernel-queued step of the process.
    """

    __slots__ = ("_done", "_value", "_exception", "_callbacks", "label")

    def __init__(self, label: str = ""):
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: Optional[list] = None
        self.label = label

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise RuntimeError(f"future {self.label!r} not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception if self._done else None

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        if self._done:
            raise RuntimeError(f"future {self.label!r} resolved twice")
        self._done = True
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            self._notify(callbacks)

    def fail(self, exception: BaseException) -> None:
        """Complete the future with an exception."""
        if self._done:
            raise RuntimeError(f"future {self.label!r} resolved twice")
        self._done = True
        self._exception = exception
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            self._notify(callbacks)

    def _notify(self, waiters: list) -> None:
        for process, epoch in waiters:
            process._kernel._resume(process, epoch, self._value, self._exception)

    def _add_waiter(self, process, epoch: int) -> None:
        """Register a process to be stepped when this future completes.

        The waiter is a ``(process, epoch)`` pair and completion queues
        the process's next step.  If the future is already done, the
        step is queued now -- at the current instant, preserving the
        one-event resumption hop a pending future would have cost.
        """
        if self._done:
            process._kernel._resume(process, epoch, self._value, self._exception)
        elif self._callbacks is None:
            self._callbacks = [(process, epoch)]
        else:
            self._callbacks.append((process, epoch))

    def __repr__(self) -> str:
        state = "done" if self._done else "pending"
        return f"<Future {self.label!r} {state}>"


#: What a :class:`TimedWait` resumes its process with when the deadline
#: wins.  A sentinel rather than ``None``: ``wake(None)`` is legitimate.
TIMED_OUT = object()


class TimedWait:
    """Effect: park until woken, failed or past a deadline.

    The kernel's one wait with a deadline: one object is the
    pending-table entry the waker looks up, the argument of the
    deadline's queue entry, and the thing the process yields.
    ``value = yield wait`` resumes with the value passed to
    :meth:`wake`, with :data:`TIMED_OUT` if the deadline came first, or
    by raising the exception passed to ``wake(exc=...)``.  The first of
    the three settles the wait; later ones are ignored.

    One flag, ``_done``: the wait is settled.  :meth:`wake` sets it, so
    a woken wait's deadline is spent at once -- the kernel's run loops
    test exactly this flag on timer entries and skip a spent deadline
    without advancing the clock or counting a dispatch.  A waiter that
    is interrupted is not woken, so its deadline still fires later and
    queues a stale (no-op) step.
    """

    __slots__ = ("timeout", "_process", "_epoch", "_done", "_early")

    def __init__(self, timeout: Optional[float] = None):
        self.timeout = timeout
        self._process = None
        self._done = False

    def _add_waiter(self, process, epoch: int) -> None:
        """Park ``process`` and arm the deadline (if there is one)."""
        self._process = process
        self._epoch = epoch
        kernel = process._kernel
        if self.timeout is not None:
            kernel._schedule(self.timeout, kernel._fire_timer, self)
        if self._done:
            # Settled before the process got here: still one hop.
            kernel._resume(process, epoch, *self._early)

    def wake(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        """Settle the wait with ``value`` (or by raising ``exc``)."""
        if self._done:
            return
        self._done = True
        process = self._process
        if process is None:
            self._early = (value, exc)
        else:
            process._kernel._resume(process, self._epoch, value, exc)

    def _expire(self) -> None:
        """The deadline fired first (the run loops skip a settled wait's)."""
        self.wake(TIMED_OUT)

    def __repr__(self) -> str:
        state = "settled" if self._done else "pending"
        return f"<TimedWait timeout={self.timeout} {state}>"
