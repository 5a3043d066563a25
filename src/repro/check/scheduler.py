"""Controlled-scheduling strategies for the systematic checker.

The kernel's :meth:`~repro.sim.kernel.Kernel._run_controlled` loop hands
each strategy the *frontier* -- every queued event sharing the earliest
timestamp -- and the strategy returns the entry to fire next.  The
strategies here agree on what a legal *choice point* is and differ only
in how they pick:

* Only **message deliveries** are reordered.  Internal events (process
  resumptions, timer firings) stay in scheduling order: the kernel's
  own invariants (a resumption runs before anything it scheduled) and
  node-local causality depend on it.
* Per-link **FIFO is preserved**.  The protocols were written against
  FIFO links, so of several same-time deliveries on one link only the
  earliest-scheduled is a candidate; later ones become eligible once it
  fired.  Reordering within a link would report phantom bugs the real
  network cannot produce.
* **Partial-order reduction**: same-time deliveries to *different*
  destinations commute.  They touch disjoint node state and exchange
  no information within one simulated instant, so either order yields
  the same continuation and exploring both is redundant.  Deliveries
  to the same destination share the receiver's state (lock queues,
  GTM bookkeeping, dedup tables) and are both explored.  Candidates
  are narrowed to those sharing the first candidate's destination; the
  alternatives are counted in :attr:`Strategy.pruned` instead of
  branched on.

Every strategy records the index it chose at each real choice point
(arity > 1) together with the arity, so any execution can be replayed
exactly by :class:`ReplayStrategy` and minimized by the shrinker.
"""

from __future__ import annotations

import random
from typing import Any

#: Kernel-callback names that deliver network messages.  Everything
#: else in a frontier is an internal event and keeps its order.
_DELIVERY_FNS = ("_deliver_all", "_deliver_reliable")

Entry = tuple  # (time, seq, fn, args) -- see Kernel._schedule


def _delivery_link(entry: Entry) -> tuple[str, str] | None:
    """The ``(sender, dest)`` link of a delivery entry, else ``None``."""
    fn = entry[2]
    name = getattr(fn, "__name__", "")
    if name not in _DELIVERY_FNS:
        return None
    # _deliver_all(messages) / _deliver_reliable(xmit, messages); one
    # transmission always carries messages of a single link.
    messages = entry[3][-1]
    return messages[0].link


class Strategy:
    """Base strategy: computes choice points, records the trail.

    Subclasses implement :meth:`choose` over a non-trivial candidate
    list.  ``trail`` holds one ``(choice, arity)`` pair per real choice
    point, in execution order.
    """

    def __init__(self) -> None:
        self.trail: list[tuple[int, int]] = []
        self.pruned = 0
        self.steps = 0

    @property
    def choices(self) -> list[int]:
        return [choice for choice, _arity in self.trail]

    def pick(self, kernel: Any, batch: list[Entry]) -> Entry:
        self.steps += 1
        batch = sorted(batch, key=lambda entry: entry[1])
        candidates = self._candidates(batch)
        if len(candidates) <= 1:
            return candidates[0] if candidates else batch[0]
        index = self.choose(kernel, candidates)
        self.trail.append((index, len(candidates)))
        return candidates[index]

    def _candidates(self, batch: list[Entry]) -> list[Entry]:
        """The deliveries legally swappable at this frontier.

        The maximal *delivery prefix* of the seq-ordered frontier is
        collected (an internal event acts as a barrier: deliveries are
        never pushed past it, because a resumption at the same node may
        not commute with them), reduced to the earliest entry per link,
        then POR-narrowed to the first candidate's destination.
        """
        if not batch or _delivery_link(batch[0]) is None:
            return batch[:1]
        per_link: dict[tuple[str, str], Entry] = {}
        for entry in batch:
            link = _delivery_link(entry)
            if link is None:
                break  # internal barrier: stop collecting
            if link not in per_link:
                per_link[link] = entry
        candidates = list(per_link.values())
        if len(candidates) > 1:
            anchor_dest = _delivery_link(candidates[0])[1]
            narrowed = [
                entry
                for entry in candidates
                if _delivery_link(entry)[1] == anchor_dest
            ]
            self.pruned += len(candidates) - len(narrowed)
            candidates = narrowed
        return candidates

    def choose(self, kernel: Any, candidates: list[Entry]) -> int:
        raise NotImplementedError


class ReplayStrategy(Strategy):
    """Follow a prescribed choice list; default to 0 beyond its end.

    The default-0 tail is what makes shrinking sound: a truncated
    schedule is still a complete, legal execution.
    """

    def __init__(self, schedule: list[int]):
        super().__init__()
        self.schedule = list(schedule)

    def choose(self, kernel: Any, candidates: list[Entry]) -> int:
        position = len(self.trail)
        if position < len(self.schedule):
            # Clamp: a shrunk/edited schedule may name an index the
            # (changed) execution no longer offers.
            return min(self.schedule[position], len(candidates) - 1)
        return 0


class DfsStrategy(Strategy):
    """One execution of the bounded exhaustive (DFS) exploration.

    Follows ``prefix`` at the first choice points, picks 0 afterwards,
    and records arities so the explorer can compute the next prefix
    (rightmost position with an unexplored sibling).  Choice points
    past ``depth`` always take 0 and are excluded from backtracking,
    which is what bounds the search space.
    """

    def __init__(self, prefix: list[int], depth: int):
        super().__init__()
        self.prefix = list(prefix)
        self.depth = depth

    def choose(self, kernel: Any, candidates: list[Entry]) -> int:
        position = len(self.trail)
        if position < len(self.prefix):
            return min(self.prefix[position], len(candidates) - 1)
        return 0

    def bounded_trail(self) -> list[tuple[int, int]]:
        """The backtrackable part of the trail (within the depth bound)."""
        return self.trail[: self.depth]


class PctStrategy(Strategy):
    """PCT-style randomized priority schedule.

    Each link gets a random priority on first sight; every choice point
    fires the highest-priority candidate.  ``change_points`` pre-sampled
    step indices demote the currently hottest link when crossed, which
    is the PCT trick for hitting bugs that need a priority inversion.
    Fully deterministic given ``seed``.
    """

    def __init__(self, seed: int, change_points: int = 3, horizon: int = 256):
        super().__init__()
        self._rng = random.Random(seed)
        self._priorities: dict[tuple[str, str], float] = {}
        self._changes = sorted(
            self._rng.randrange(1, max(2, horizon)) for _ in range(change_points)
        )

    def _priority(self, link: tuple[str, str]) -> float:
        if link not in self._priorities:
            self._priorities[link] = self._rng.random()
        return self._priorities[link]

    def choose(self, kernel: Any, candidates: list[Entry]) -> int:
        while self._changes and self.steps >= self._changes[0]:
            self._changes.pop(0)
            if self._priorities:
                hottest = max(self._priorities, key=self._priorities.get)
                self._priorities[hottest] = self._rng.random() * 0.1
        best = 0
        best_priority = -1.0
        for index, entry in enumerate(candidates):
            priority = self._priority(_delivery_link(entry))
            if priority > best_priority:
                best, best_priority = index, priority
        return best
