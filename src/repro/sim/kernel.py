"""The discrete-event simulation kernel.

The kernel dispatches ``(time, sequence, fn, args)`` entries in
``(time, sequence)`` order.  The sequence number breaks ties in
insertion order, making every run deterministic.  Processes are spawned
with :meth:`Kernel.spawn` and stepped by callbacks the kernel schedules
on their behalf.

Scheduling stores the callable and its arguments separately instead of
wrapping them in a closure: the hot paths (message delivery, process
resumption) schedule millions of events per run, and a per-event
closure allocation is pure overhead.

Dispatch structure -- a two-tier calendar queue
-----------------------------------------------

Earlier revisions kept one global binary heap and paid a ``heappush`` +
``heappop`` (each ``O(log n)`` with tuple comparisons) for *every*
event.  Profiles of the sharded benchmarks showed that most events
share their timestamp with the previous one -- batching windows,
zero-delay resumptions and fixed-latency deliveries all produce wide
same-timestamp frontiers -- so almost all of that heap churn re-sorted
events whose relative order was already fully determined by their
sequence numbers.

The queue is now a calendar of *slots*, one per distinct pending
timestamp:

* ``_buckets`` maps each pending timestamp to a slot-local FIFO list of
  entries.  Scheduling into an existing slot is a dict hit plus a list
  append -- O(1), no comparisons.  Within a slot, FIFO order *is*
  sequence order, because sequence numbers increase monotonically.
* ``_times`` is the overflow tier: a min-heap over the distinct pending
  timestamps (each appears exactly once -- slot existence in
  ``_buckets`` gates the push).  Only the *first* event of a timestamp
  pays a heap operation; the frontier behind it rides the slot for
  free.

The run loop drains one slot at a time by iterating the slot's list
while it is still registered in ``_buckets`` (the *live* slot), so
events scheduled *at the current instant while the slot drains*
(zero-delay follow-ups) append to it and fire in the same drain,
exactly where the heap would have placed them -- a CPython list
iterator sees appends.  :meth:`Kernel._resume`, the one way a process
step is queued at the current instant, appends to the live slot
directly; everything else goes through :meth:`Kernel._schedule`.
Dispatch order is byte-identical to the old heap loop: ``(time,
sequence)`` ascending, cancelled timers skipped without advancing the
clock.  ``docs/performance.md`` lists the invariants.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import length_hint
from typing import Any, Callable, Generator, Optional

from repro.errors import KernelStopped, SimulationError
from repro.sim.process import Process, _step
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceLog


class Kernel:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    seed:
        Master seed for the kernel's named random streams
        (:attr:`rng`).  Two kernels created with the same seed and fed
        the same process structure produce identical traces.
    """

    __slots__ = (
        "_buckets", "_times", "_live", "_sequence", "_now", "_stopped", "rng",
        "trace", "failures", "_fire_timer", "scheduler", "events_dispatched",
    )

    def __init__(self, seed: int = 0):
        # Calendar queue: slot-local FIFO lists keyed by exact pending
        # timestamp, plus a heap over the distinct timestamps.  A
        # timestamp is in ``_times`` iff it has a slot in ``_buckets``
        # that the run loop has not started draining.
        self._buckets: dict[float, list[tuple[float, int, Callable[..., None], tuple]]] = {}
        self._times: list[float] = []
        # The slot :meth:`run` is draining right now (``None`` outside a
        # drain, under a controlled scheduler, and once stopped): the
        # target of :meth:`_resume`'s append.
        self._live: Optional[list] = None
        self._sequence = 0
        self._now = 0.0
        self._stopped = False
        self.rng = RandomStreams(seed)
        self.trace = TraceLog(self)
        # Failed processes nobody has joined yet, with their exceptions.
        self.failures: list[tuple[Process, BaseException]] = []
        # Bound exactly once: the run loops recognise timer entries by
        # identity (``fn is self._fire_timer``), and a fresh bound
        # method per access would never compare identical.  Its one
        # argument has ``_done`` ("this deadline is spent") and
        # ``_expire()``: a :class:`~repro.sim.events.TimedWait`, or
        # the network's reliable-transmission record.
        self._fire_timer = self._resolve_timer
        # Events fired by the run loops (skipped cancelled timers are
        # queue maintenance, not events).  The perf benchmarks divide
        # this by wall-clock time for an honest simulator throughput.
        self.events_dispatched = 0
        # Optional controlled-scheduling hook (the ``repro.check``
        # exploration layer).  ``None`` -- the default, and the only
        # value production code ever sees -- takes the fast run loop
        # below.  A scheduler object with a ``pick(kernel, batch)``
        # method instead routes every step through
        # :meth:`_run_controlled`, which offers the scheduler the whole
        # frontier of same-time events to order.
        self.scheduler = None

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def queued(self) -> int:
        """Number of pending (not yet dispatched) entries."""
        return sum(len(bucket) for bucket in self._buckets.values())

    # -- scheduling ------------------------------------------------------------

    def _schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        if self._stopped:
            raise KernelStopped("kernel already stopped")
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self._now + delay
        self._sequence = sequence = self._sequence + 1
        bucket = self._buckets.get(time)
        if bucket is not None:
            bucket.append((time, sequence, callback, args))
        else:
            self._buckets[time] = [(time, sequence, callback, args)]
            heappush(self._times, time)

    def _resume(
        self,
        process: Process,
        epoch: int,
        value: Any = None,
        exc: Optional[BaseException] = None,
    ) -> None:
        """Queue ``process``'s next step at the current instant.

        Every wake-up -- a resolved future, a mailbox ``put``, a lock
        hand-over, a spawn, an interrupt -- comes through here.  While
        :meth:`run` drains a slot the entry is appended to that live
        list directly: the same position ``_schedule(0.0, ...)`` would
        give it (the live slot *is* ``_buckets[now]``), minus the float
        add, the float-keyed dict probe and the argument repacking.
        Outside a drain -- and always under a subclass whose own
        ``run`` never sets ``_live``, like the heap reference in
        ``tests/sim/test_golden_identity.py`` -- it is an ordinary
        zero-delay ``_schedule``.
        """
        live = self._live
        if live is None:
            self._schedule(0.0, _step, process, epoch, value, exc)
        else:
            self._sequence = sequence = self._sequence + 1
            live.append((self._now, sequence, _step, (process, epoch, value, exc)))

    def call_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated ``time`` (>= now)."""
        self._schedule(time - self._now, callback, *args)

    def spawn(self, generator: Generator[Any, Any, Any], name: str = "") -> Process:
        """Create and start a process from ``generator``."""
        return Process(self, generator, name)

    def _resolve_timer(self, timer: Any) -> None:
        timer._expire()

    # -- running ---------------------------------------------------------------

    def run(self, until: Optional[float] = None, raise_failures: bool = True) -> float:
        """Run until the event queue drains or simulated time ``until``.

        Returns the final simulated time.  If ``raise_failures`` is
        true, the first exception that escaped a process nobody joined
        is re-raised after the run, so bugs never pass silently.
        """
        if self.scheduler is not None:
            return self._run_controlled(until, raise_failures)
        buckets = self._buckets
        times = self._times
        fire_timer = self._fire_timer
        dispatched = 0
        try:
            while times:
                time = times[0]
                if until is not None and time > until:
                    self._now = until
                    break
                heappop(times)
                # The slot stays registered in ``_buckets`` while it
                # drains, so zero-delay follow-ups land in it whichever
                # way they are scheduled; the list iterator sees them.
                self._live = bucket = buckets[time]
                previous, self._now = self._now, time
                fired = dispatched
                drain = iter(bucket)
                try:
                    for entry in drain:
                        fn = entry[2]
                        if fn is fire_timer and entry[3][0]._done:
                            continue  # cancelled: not an event
                        dispatched += 1
                        fn(*entry[3])
                except BaseException:
                    # An exception escaped mid-slot: keep the
                    # undispatched tail queued so a subsequent run
                    # resumes exactly where the old heap loop would
                    # have (a ``stop()`` may have emptied it first).
                    del bucket[:len(bucket) - length_hint(drain)]
                    if not bucket:
                        buckets.pop(time, None)
                    elif buckets.get(time) is bucket:
                        heappush(times, time)
                    raise
                buckets.pop(time, None)
                if dispatched == fired:
                    # Only cancelled timers here: nothing ran, nothing
                    # saw the clock -- it does not advance.
                    self._now = previous
        finally:
            self._live = None
            self.events_dispatched += dispatched
        self._settle_failures(raise_failures)
        return self._now

    def _next_due(self) -> Optional[float]:
        """The earliest queued timestamp, or ``None`` if nothing is queued."""
        times = self._times
        return times[0] if times else None

    def run_alone(self, generator: Generator[Any, Any, Any]) -> Any:
        """Drive ``generator`` in place, alone on the calendar; return its value.

        The same result as ``kernel.spawn(generator)``, :meth:`run` and
        the process's ``.value`` -- same clock, ``_sequence`` and
        ``events_dispatched`` -- for a generator that only yields delays
        while nothing else is due.  Each step is charged what the
        calendar would have charged it (one sequence number for its
        queue entry, one dispatch) without the entry ever being queued.
        Anything that could let another event run first -- a yield that
        is not a number, or a queued entry due at or before the next
        wake-up -- raises :class:`SimulationError` instead of silently
        reordering.  Entries due after the generator returns stay
        queued for the next :meth:`run`.  Its one caller is the
        counter-site loader (``workloads.counters.build_counter_site``),
        whose timed set-up its callers observe; a federation builds its
        tables as state, off the clock.
        """
        if self._stopped:
            raise KernelStopped("kernel already stopped")
        if self._live is not None:
            raise SimulationError("run_alone cannot nest inside a run")
        wake = self._now
        self._sequence += 1  # the spawn's queue entry
        try:
            while True:
                due = self._next_due()
                if due is not None and due <= wake:
                    raise SimulationError(
                        f"run_alone: an entry due at {due} would run before "
                        f"the wake-up at {wake}"
                    )
                self._now = wake
                self.events_dispatched += 1
                try:
                    effect = generator.send(None)
                except StopIteration as stop:
                    return stop.value
                if not isinstance(effect, (int, float)):
                    raise SimulationError(f"run_alone: unsupported effect {effect!r}")
                if effect < 0:
                    raise SimulationError(f"negative delay {effect}")
                wake = self._now + effect
                self._sequence += 1
        finally:
            generator.close()  # a refused yield unwinds its finally blocks

    def _run_controlled(self, until: Optional[float], raise_failures: bool) -> float:
        """Run loop with an external scheduling strategy in charge.

        At every step the *frontier* -- all queued events sharing the
        earliest timestamp, in scheduling (sequence) order, cancelled
        timers dropped -- is handed to ``scheduler.pick(kernel, batch)``,
        which returns the entry to fire next.  The rest of the frontier
        stays in its slot, so an event the scheduler defers remains
        eligible until actually fired.  Firing an event may grow the
        same-time frontier (zero-delay follow-ups); they join the next
        step's batch, which keeps causality: an event can never run
        before the event that scheduled it.

        Events at *different* timestamps are never reordered -- the
        checker explores interleavings, not timings -- so every
        controlled execution is also a legal execution of the default
        loop under some tie-break.
        """
        buckets = self._buckets
        times = self._times
        fire_timer = self._fire_timer
        scheduler = self.scheduler
        while times:
            time = times[0]
            if until is not None and time > until:
                self._now = until
                break
            bucket = buckets.get(time)
            batch = []
            if bucket:
                for entry in bucket:
                    if entry[2] is fire_timer and entry[3][0]._done:
                        continue  # cancelled timer: never offered
                    batch.append(entry)
            if not batch:
                heappop(times)
                buckets.pop(time, None)
                continue
            chosen = scheduler.pick(self, batch) if len(batch) > 1 else batch[0]
            bucket[:] = [entry for entry in batch if entry is not chosen]
            self._now = time
            self.events_dispatched += 1
            chosen[2](*chosen[3])
        self._settle_failures(raise_failures)
        return self._now

    def stop(self) -> None:
        """Discard all pending events and refuse further scheduling.

        For tearing down a simulation with self-perpetuating processes
        (periodic checkpointers, serve loops) when their state no longer
        matters.
        """
        # Clear the slot lists in place: a run loop draining one of
        # them holds a direct reference and must observe the discard.
        for bucket in self._buckets.values():
            bucket.clear()
        self._buckets.clear()
        self._times.clear()
        self._live = None
        self._stopped = True

    def _on_process_failure(self, process: Process, exc: BaseException) -> None:
        # A failure someone joined is handled; only an unobserved one is
        # kept, until a later join observes it (see _settle_failures).
        if not process._observed:
            self.failures.append((process, exc))

    def _settle_failures(self, raise_failures: bool) -> None:
        """Forget the failures observed since; raise the first one left."""
        failures = self.failures
        if failures:
            failures[:] = [entry for entry in failures if not entry[0]._observed]
            if raise_failures and failures:
                raise failures[0][1]

    def __repr__(self) -> str:
        return f"<Kernel t={self._now} queued={self.queued}>"
