"""Greedy counterexample shrinking.

A violating schedule found by DFS or PCT can carry dozens of incidental
choices.  The shrinker minimizes it by re-execution: a candidate
schedule is kept only if the violation *persists* when the scenario is
replayed under it.  Three reducers run to a fixed point:

1. **Truncation** -- drop the whole tail (shortest surviving prefix
   wins).  Sound because :class:`~repro.check.scheduler.ReplayStrategy`
   defaults to choice 0 past the schedule's end, so every prefix is a
   complete legal execution.
2. **Zeroing** -- set individual non-zero choices to the default
   branch.
3. **Trailing-zero stripping** -- a trailing 0 is the default anyway
   and carries no information.

The result is the shortest, most-default schedule this greedy descent
reaches -- not a global minimum, but in practice a handful of choices
that each provably matter.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.check.engine import replay_execution
from repro.check.scenarios import CheckSpec
from repro.faults.injector import CrashPoint


def shrink_schedule(
    violates: Callable[[list[int]], bool],
    schedule: list[int],
    max_attempts: int = 200,
) -> list[int]:
    """Minimize ``schedule`` while ``violates`` keeps returning true.

    ``violates`` must be deterministic (re-running the same candidate
    must give the same answer); each call costs one full execution, so
    ``max_attempts`` bounds the shrink budget.
    """
    best = list(schedule)
    attempts = 0

    def try_candidate(candidate: list[int]) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        return violates(candidate)

    changed = True
    while changed and attempts < max_attempts:
        changed = False
        # Shortest surviving prefix first: one success here removes
        # every later choice in one step.
        for cut in range(len(best)):
            candidate = best[:cut]
            if try_candidate(candidate):
                best = candidate
                changed = True
                break
        # Default individual choices.
        for position, choice in enumerate(best):
            if choice == 0:
                continue
            candidate = best[:position] + [0] + best[position + 1:]
            if try_candidate(candidate):
                best = candidate
                changed = True
        # Trailing defaults are pure noise.
        while best and best[-1] == 0:
            candidate = best[:-1]
            if not try_candidate(candidate):
                break
            best = candidate
            changed = True
    return best


def shrink_counterexample(
    spec: CheckSpec,
    schedule: list[int],
    crashes: tuple[CrashPoint, ...] = (),
    max_attempts: int = 200,
) -> Optional[list[int]]:
    """Shrink a violating schedule for ``spec`` by re-execution.

    Returns the minimized schedule, or ``None`` if the original
    schedule does not actually reproduce a violation (a stale or
    non-deterministic report -- the caller should treat that as a bug).
    """

    def violates(candidate: list[int]) -> bool:
        return not replay_execution(spec, candidate, crashes=crashes).ok

    if not violates(list(schedule)):
        return None
    return shrink_schedule(violates, list(schedule), max_attempts=max_attempts)
