"""Generator-based simulation processes.

A :class:`Process` wraps a generator.  Each ``yield`` hands an effect to
the kernel (see :mod:`repro.sim.events`); the kernel resumes the
generator when the effect completes.  A process is itself a
:class:`~repro.sim.events.Future` completing with the generator's
return value, so processes can be joined by yielding them.

Interruption (used for deadlock victims, lock timeouts and site
crashes) throws :class:`~repro.errors.ProcessInterrupted` into the
generator at its current suspension point.  A *wait epoch* counter
invalidates any resumption that was already scheduled for the
interrupted wait, so a process is never resumed twice for one yield.
A finished process has epoch ``-1``, which no queued step carries.

Resumptions sit on the kernel's queue as the module-level
:func:`_step` with ``(process, epoch, value, exc)`` arguments -- not a
closure and not a bound method: stepping is the single hottest path in
the simulator, and either would cost an allocation per event.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import ProcessInterrupted, SimulationError
from repro.sim.events import Future

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel

ProcessGenerator = Generator[Any, Any, Any]

_anonymous_ids = itertools.count(1)


def _step(
    process: "Process",
    epoch: int,
    send_value: Any,
    throw_exc: Optional[BaseException],
) -> None:
    """Advance ``process`` by one yield (the kernel's queue entry)."""
    if epoch != process._epoch:
        return  # stale resumption from an interrupted wait, or finished
    try:
        if throw_exc is None:
            effect = process._generator.send(send_value)
        else:
            effect = process._generator.throw(throw_exc)
    except StopIteration as stop:
        process._finish(stop.value)
        return
    except ProcessInterrupted as exc:
        # An unhandled interrupt terminates the process quietly: the
        # interrupter is responsible for the cleanup story.
        process._finish(exc)
        return
    except Exception as exc:
        process._finish_err(exc)
        return
    process._epoch = epoch = epoch + 1
    cls = effect.__class__
    if cls is float or cls is int:
        process._kernel._schedule(effect, _step, process, epoch, None, None)
        return
    try:
        effect._add_waiter(process, epoch)
    except AttributeError:
        if hasattr(effect, "_add_waiter"):
            raise  # a real effect's own bug, not a bad yield
        process._odd_effect(effect, epoch)


class Process(Future):
    """A running simulation process; also a future of its return value.

    Creating one starts it: the first step is queued at the current
    instant (:meth:`Kernel.spawn` is the public spelling).
    """

    __slots__ = ("_kernel", "_generator", "_epoch", "_observed")

    def __init__(self, kernel: "Kernel", generator: ProcessGenerator, name: str = ""):
        self._done = False
        self._value = None
        self._exception = None
        self._callbacks = None
        self.label = name or f"process-{next(_anonymous_ids)}"
        self._kernel = kernel
        self._generator = generator
        self._epoch = 0
        self._observed = False
        kernel._resume(self, 0, None, None)

    @property
    def name(self) -> str:
        return self.label

    def _add_waiter(self, process: "Process", epoch: int) -> None:  # type: ignore[override]
        """Joining a process observes it: its failure counts as handled."""
        self._observed = True
        Future._add_waiter(self, process, epoch)

    @property
    def alive(self) -> bool:
        return self._epoch >= 0

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`ProcessInterrupted` into the process.

        A no-op on a finished process.  The interrupt is delivered at
        the current simulated instant; any resumption scheduled for the
        wait being interrupted becomes stale and is dropped.
        """
        if self._epoch < 0:
            return
        self._epoch += 1
        self._kernel._resume(self, self._epoch, None, ProcessInterrupted(cause))

    # -- completion ----------------------------------------------------------

    def _odd_effect(self, effect: Any, epoch: int) -> None:
        """The rare yields: a numeric subclass (say, ``True``), or garbage."""
        if isinstance(effect, (int, float)):
            self._kernel._schedule(float(effect), _step, self, epoch, None, None)
            return
        # Still suspended at the bad yield: unwind its finally blocks.
        self._generator.close()
        self._finish_err(
            SimulationError(f"{self.label} yielded unsupported effect {effect!r}")
        )

    def _finish(self, value: Any) -> None:
        # The generator has already returned or raised: nothing to
        # close.  Resolution is inlined -- most processes (one per
        # handled message) finish with nobody waiting.
        self._epoch = -1
        self._done = True
        self._value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            self._notify(callbacks)

    def _finish_err(self, exc: BaseException) -> None:
        self._epoch = -1
        self._kernel._on_process_failure(self, exc)
        self.fail(exc)

    def __repr__(self) -> str:
        state = "alive" if self._epoch >= 0 else "finished"
        return f"<Process {self.label} {state}>"
