"""Synchronization helpers.

:class:`Mailbox` is the building block for message queues (network
nodes) and FIFO work queues (communication managers).

Both primitives are effects in their own right: a blocked caller parks
as a bare ``(process, epoch)`` pair in the primitive's queue and the
waker (``put``, ``release``) queues the process's next step directly
-- no future per blocking call.  A waiter that was interrupted while
parked stays in the queue with its now-stale epoch and still consumes
the next item (or lock hand-over); the step it is woken with is a
no-op.  Callers that interrupt waiters own that hazard.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator


class Mailbox:
    """Unbounded FIFO queue with blocking receive.

    ``put`` never blocks.  ``recv`` is a generator to be driven with
    ``yield from``; it returns the next item, waiting if the queue is
    empty.  Multiple receivers are served in FIFO order.
    """

    def __init__(self, name: str = "mailbox"):
        self.name = name
        self._items: deque[Any] = deque()
        self._waiters: deque[tuple[Any, int]] = deque()

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting receiver if any."""
        if self._waiters:
            process, epoch = self._waiters.popleft()
            process._kernel._resume(process, epoch, item, None)
        else:
            self._items.append(item)

    def recv(self) -> Generator[Any, Any, Any]:
        """Dequeue the next item, blocking the caller until one arrives."""
        if self._items:
            return self._items.popleft()
        item = yield self
        return item

    def _add_waiter(self, process, epoch: int) -> None:
        """Park ``process`` until an item arrives (see :meth:`recv`)."""
        self._waiters.append((process, epoch))

    def drain(self) -> list[Any]:
        """Remove and return all queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        return items

    def fail_waiters(self, exc: BaseException) -> None:
        """Fail every blocked receiver (used when a node crashes)."""
        waiters, self._waiters = self._waiters, deque()
        for process, epoch in waiters:
            process._kernel._resume(process, epoch, None, exc)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:
        return f"<Mailbox {self.name} items={len(self._items)} waiters={len(self._waiters)}>"


class FifoLock:
    """A fair mutex for processes (used e.g. to serialize OCC commits).

    Usage::

        yield from lock.acquire()
        try:
            ...
        finally:
            lock.release()
    """

    def __init__(self, name: str = "lock"):
        self.name = name
        self._locked = False
        self._waiters: deque[tuple[Any, int]] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Generator[Any, Any, None]:
        if not self._locked:
            self._locked = True
            return
        yield self

    def _add_waiter(self, process, epoch: int) -> None:
        """Park ``process`` until the lock is handed to it."""
        self._waiters.append((process, epoch))

    def release(self) -> None:
        if not self._locked:
            raise RuntimeError(f"{self.name} released while unlocked")
        if self._waiters:
            # Hand the lock directly to the next waiter (stays locked).
            process, epoch = self._waiters.popleft()
            process._kernel._resume(process, epoch, None, None)
        else:
            self._locked = False

    def reset(self, exc: BaseException) -> None:
        """Fail every waiter and unlock (used when a site crashes)."""
        waiters, self._waiters = self._waiters, deque()
        for process, epoch in waiters:
            process._kernel._resume(process, epoch, None, exc)
        self._locked = False

    def __repr__(self) -> str:
        state = "locked" if self._locked else "free"
        return f"<FifoLock {self.name} {state} waiters={len(self._waiters)}>"
