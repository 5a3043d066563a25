"""Size-or-deadline flush groups (group-commit style batching).

One mechanism amortises both of the paper's §4.3 cost units: the
:class:`~repro.net.network.Network` outbox (messages per link -> one
envelope) and the :class:`~repro.core.gtm.DecisionPipeline` (decisions
per site -> one ``decide_group`` and one decision-log force).  Each
supplies only its send step to a :class:`FlushGroups`.

A group flushes when it reaches ``max_size`` items (``0`` disables the
size trigger) or when the deadline scheduled on its first item fires;
a per-key generation counter makes a deadline inert once its group was
flushed early or dropped.  With ``policy="adaptive"`` the deadline is
load-sensed by an :class:`AdaptiveWindow` fed on every flush, and only
a *busy* key (one that flushed within the current window) lingers: an
idle key flushes at the end of the current instant, Nagle-style, so a
lone message or decision no longer pays a window per hop.  A
crashed owner purges its groups with :meth:`FlushGroups.drop`; a
deadline that fires for a crashed owner still counts and feeds the
controller -- the send step is what refuses to transmit.  Everything is
pure arithmetic on simulated time, so runs stay byte-replayable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel

__all__ = ["AdaptiveWindow", "FlushGroups", "check_flush_knobs"]


def check_flush_knobs(window: float, policy: str, max_size: int) -> None:
    """Reject a flush configuration no :class:`FlushGroups` could run."""
    if window < 0:
        raise ValueError(f"negative flush window {window}")
    if policy not in ("static", "adaptive"):
        raise ValueError(f"unknown flush policy {policy!r}")
    if max_size < 0:
        raise ValueError(f"negative flush size cap {max_size}")


class AdaptiveWindow:
    """Multiplicative-adjust flush window bounded to ``[floor, base]``.

    The signal is the **total** wait a flushed group accumulated (sum
    over members of ``flush_time - enqueue_time``):

    * under a burst many items sit behind the deadline, total wait
      exceeds ``PRESSURE * current``, and the window *shrinks* by
      ``SHRINK`` so latecomers stop paying for a quiet-era deadline;
    * a flush whose total wait is at most ``RELIEF * current`` is
      relief, and after ``PATIENCE`` consecutive such flushes the
      window *re-widens* by ``GROW`` toward ``base``.  At quiescence
      every key is idle and :class:`FlushGroups` flushes it at the end
      of the instant, a wait of 0; a lone item on a busy key waits at
      most one window.  Both are relief.  One stray singleton amid a
      burst must not bounce the window back up and re-tax the burst's
      tail.

    The window only prices *lingering*: it is how long a busy key's
    group waits for company.  Whether an item lingers at all is the
    idle rule in :meth:`FlushGroups.add`.
    """

    #: ``floor = base * FLOOR``: the smallest window a burst can force.
    FLOOR = 1 / 8
    SHRINK = 0.5
    GROW = 2.0
    PRESSURE = 1.5
    RELIEF = 1.0
    PATIENCE = 6

    def __init__(self, base: float):
        if base <= 0:
            raise ValueError("adaptive window needs base > 0")
        self.base = base
        self.floor = base * self.FLOOR
        self._relief_streak = 0
        #: The window the next scheduled flush should use.
        self.current = base
        #: Telemetry: multiplicative steps taken in each direction.
        self.shrinks = 0
        self.widens = 0
        #: Flushes observed (size- and deadline-triggered alike).
        self.observations = 0

    def observe(self, total_wait: float) -> None:
        """Feed one flush's total queueing wait; adjust the window."""
        self.observations += 1
        if total_wait > self.PRESSURE * self.current:
            self._relief_streak = 0
            shrunk = max(self.floor, self.current * self.SHRINK)
            if shrunk < self.current:
                self.current = shrunk
                self.shrinks += 1
        elif total_wait <= self.RELIEF * self.current:
            self._relief_streak += 1
            if self._relief_streak < self.PATIENCE:
                return
            widened = min(self.base, self.current * self.GROW)
            if widened > self.current:
                self.current = widened
                self.widens += 1
        else:
            self._relief_streak = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AdaptiveWindow(current={self.current:g}, base={self.base:g}, "
            f"floor={self.floor:g}, shrinks={self.shrinks}, "
            f"widens={self.widens})"
        )


class _Group:
    """One key's state: buffered items, their enqueue times, the
    generation of the scheduled deadline, and the instant of the last
    flush (``None`` until the first)."""

    __slots__ = ("items", "times", "generation", "last_flush")

    def __init__(self) -> None:
        self.items: list = []
        # Enqueue timestamps, parallel to ``items`` (adaptive only).
        self.times: list[float] = []
        self.generation = 0
        self.last_flush: Optional[float] = None


class FlushGroups:
    """Keyed buffers flushed on size or on deadline.

    ``send(key, items)`` is the client's send step; it receives each
    flushed group exactly once, in insertion order.

    Under ``policy="adaptive"`` an item that opens an empty group
    lingers only if its key is *busy*: when the key last flushed less
    than ``controller.current`` ago, the deadline is that window as
    usual.  An *idle* key -- never flushed, or not within the window --
    gets a zero-delay deadline, which the kernel runs after everything
    already queued at the current instant: items sent in the same
    instant still share one group, and a lone item pays no window.
    """

    def __init__(
        self,
        kernel: "Kernel",
        window: float,
        policy: str,
        max_size: int,
        send: Callable[[Any, list], None],
    ):
        check_flush_knobs(window, policy, max_size)
        self.kernel = kernel
        self.window = window
        self.max_size = max_size
        self.send = send
        # The load-sensed controller exists only on the adaptive
        # policy; ``None`` keeps the static path free of enqueue-time
        # bookkeeping, its deadline always ``window``.
        self.controller: Optional[AdaptiveWindow] = (
            AdaptiveWindow(window) if policy == "adaptive" and window > 0 else None
        )
        # One record per key, never removed: key insertion order fixes
        # the order of :meth:`flush_all` and :meth:`drop`.
        self._groups: dict[Hashable, _Group] = {}
        self.size_flushes = 0
        self.deadline_flushes = 0

    def add(self, key: Hashable, item: Any) -> None:
        """Buffer ``item`` in ``key``'s group; flush it if full."""
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group()
        items = group.items
        items.append(item)
        controller = self.controller
        if controller is not None:
            now = self.kernel.now
            group.times.append(now)
        if self.max_size and len(items) >= self.max_size:
            # A full group has nothing to gain from waiting out the
            # deadline.
            self.size_flushes += 1
            self.flush(key)
        elif len(items) == 1:
            if controller is None:
                delay = self.window
            else:
                delay = controller.current
                last = group.last_flush
                if last is None or now - last >= delay:
                    delay = 0.0  # idle key: flush at the end of the instant
            self.kernel._schedule(delay, self._deadline, key, group.generation)

    def _deadline(self, key: Hashable, generation: int) -> None:
        # A matching generation means nothing flushed or dropped the
        # group since its first item scheduled this deadline.
        if self._groups[key].generation == generation:
            self.deadline_flushes += 1
            self.flush(key)

    def flush(self, key: Hashable) -> None:
        """Hand ``key``'s group to the send step now (no-op if empty)."""
        group = self._groups.get(key)
        if group is None or not group.items:
            return
        items = group.items
        group.items = []
        group.generation += 1
        group.last_flush = now = self.kernel.now
        controller = self.controller
        if controller is not None:
            controller.observe(sum(now - t for t in group.times))
            group.times = []
        self.send(key, items)

    def flush_all(self) -> None:
        """Hand every pending group to the send step now."""
        for key in list(self._groups):
            self.flush(key)

    def drop(self, keep: Optional[Callable[[Any], bool]] = None) -> list:
        """Discard every group whose key ``keep`` rejects (all if ``None``).

        The crash purge: returns the dropped items, in key order, and
        makes their scheduled deadlines inert.  A drop is not a flush:
        the key's last flush instant stays as it was.
        """
        dropped: list = []
        for key, group in self._groups.items():
            if not group.items or (keep is not None and keep(key)):
                continue
            dropped.extend(group.items)
            group.items = []
            group.times = []
            group.generation += 1
        return dropped

    @property
    def pending(self) -> int:
        """Items currently buffered across all groups."""
        return sum(len(group.items) for group in self._groups.values())
