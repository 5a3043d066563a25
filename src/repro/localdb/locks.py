"""Strict two-phase-locking lock manager, one for every level.

The paper's multi-level transactions (§4.1) run the same strict 2PL at
every level; only the conflict definition changes.  So one lock manager
serves them all -- each site's page locks (L0), the GTM's semantic L1
table, and every level of :mod:`repro.mlt.nested` -- with a
:class:`ConflictTable` per level: FIFO queueing, conversions ahead of
waiters, deadlock detection (requester aborts) and optional wait
timeouts.  The lock table is the manager's only state: waits-for
cycles are read off its holders and queues.  Lock waits, hold times
and grants are counted so the experiments can report the paper's
central quantity: how long locks are held under each commit protocol.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Any, Generator, Hashable, Iterable, Optional

from repro.errors import DeadlockDetected, LockTimeout, ProcessInterrupted, SiteCrashed
from repro.sim.events import TIMED_OUT, TimedWait

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class LockMode(enum.Enum):
    """Lock modes; a level's conflict table says which ones it uses."""

    SHARED = "S"        # read
    INCREMENT = "I"     # commutative increment/decrement
    EXCLUSIVE = "X"     # write / insert / delete


class ConflictTable:
    """Compatibility between the lock modes of one level.

    ``compatible_pairs`` lists the unordered mode pairs that may be held
    concurrently (at L1: the operations commute); everything else
    conflicts.  Compatibility is symmetric by construction and every
    mode self-conflicts unless listed.  ``mode_of_kind`` maps operation
    kinds to the mode they lock with.
    """

    def __init__(
        self,
        name: str,
        mode_of_kind: dict[str, LockMode],
        compatible_pairs: Iterable[frozenset[LockMode]],
    ):
        self.name = name
        self._mode_of_kind = dict(mode_of_kind)
        pairs = {frozenset(pair) for pair in compatible_pairs}
        #: mode -> the modes it may be held alongside; precomputed, as
        #: the acquire path looks it up once per holder.
        self.compatible_with: dict[LockMode, frozenset[LockMode]] = {
            mode: frozenset(
                other for other in LockMode if frozenset((mode, other)) in pairs
            )
            for mode in LockMode
        }

    def mode_for(self, kind: str) -> LockMode:
        """Lock mode an operation of ``kind`` must hold."""
        if kind not in self._mode_of_kind:
            raise ValueError(f"no lock mode for operation kind {kind!r}")
        return self._mode_of_kind[kind]

    def compatible(self, a: LockMode, b: LockMode) -> bool:
        """May the two modes be held concurrently?"""
        return b in self.compatible_with[a]

    def join(self, a: LockMode, b: LockMode) -> LockMode:
        """The one mode a holder of both ``a`` and ``b`` holds.

        Distinct modes join to exclusive.  That is exact -- the join
        conflicts with precisely what ``a`` or ``b`` conflicts with --
        whenever distinct modes conflict, as in every shipped table; in
        a table where they commute it is conservative.
        """
        return a if a is b else LockMode.EXCLUSIVE

    def conflicts(self, kind_a: str, kind_b: str) -> bool:
        """Do operations of these kinds conflict on the same object?"""
        return not self.compatible(self.mode_for(kind_a), self.mode_for(kind_b))

    def __repr__(self) -> str:
        return f"<ConflictTable {self.name}>"


#: Page locks (L0): readers share, everything else conflicts.
PAGE_TABLE = ConflictTable("page", {}, [frozenset((LockMode.SHARED,))])


class _Request:
    __slots__ = ("txn_id", "mode", "wait", "request_time", "grant_time")

    def __init__(self, txn_id: str, mode: LockMode, request_time: float):
        self.txn_id = txn_id
        self.mode = mode
        # What a queued request parks on; ``None`` until it parks.
        self.wait: Optional[TimedWait] = None
        self.request_time = request_time
        self.grant_time: Optional[float] = None


class _ResourceState:
    __slots__ = ("resource", "serial", "holders", "waiters")

    def __init__(self, resource: Hashable, serial: int) -> None:
        self.resource = resource
        # Creation order of this incarnation of the resource entry;
        # release_all uses it to visit a transaction's resources in
        # lock-table order without scanning the whole table.
        self.serial = serial
        self.holders: dict[str, _Request] = {}
        self.waiters: deque[_Request] = deque()


class LockManager:
    """Lock table of one level: a site's pages, or global objects."""

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        table: ConflictTable = PAGE_TABLE,
        default_timeout: Optional[float] = None,
    ):
        self._kernel = kernel
        self.name = name
        self.table = table
        self.default_timeout = default_timeout
        self._resources: dict[Hashable, _ResourceState] = {}
        self._state_serial = 0
        # txn_id -> resources it holds (an ordered set).  Turns the
        # release_all table scan into a direct lookup; kept in sync by
        # _grant / release_all / crash.
        self._held: dict[str, dict[Hashable, None]] = {}
        # Metrics.
        self.grants = 0
        self.waits = 0
        self.releases = 0
        self.downgrades = 0
        self.total_wait_time = 0.0
        self.total_hold_time = 0.0
        self.max_hold_time = 0.0
        # Exclusive holds are what block other work; Short-Commit's
        # early downgrade shows up here, not in the total.
        self.total_exclusive_hold_time = 0.0
        self.deadlocks = 0
        self.timeouts = 0
        # Observability hook: called as ``hold_observer(resource, hold)``
        # on every release.  ``None`` (the default) keeps the release
        # path at a single attribute test -- the TraceLog.enabled idiom.
        self.hold_observer: Optional[Any] = None

    # -- queries -----------------------------------------------------------

    def holders_of(self, resource: Hashable) -> dict[str, LockMode]:
        state = self._resources.get(resource)
        if state is None:
            return {}
        return {txn: req.mode for txn, req in state.holders.items()}

    def holds(self, txn_id: str, resource: Hashable, mode: LockMode) -> bool:
        """Does ``txn_id`` hold a lock that covers ``mode``?"""
        state = self._resources.get(resource)
        held = state.holders.get(txn_id) if state is not None else None
        return held is not None and self.table.join(held.mode, mode) is held.mode

    # -- acquisition ---------------------------------------------------------

    def acquire(
        self,
        txn_id: str,
        resource: Hashable,
        mode: LockMode,
        timeout: Optional[float] = None,
    ) -> Generator[Any, Any, None]:
        """Acquire ``mode`` on ``resource`` for ``txn_id``, blocking.

        A holder's second request converts its lock to the join of both
        modes.  Raises :class:`DeadlockDetected` if the request closes a
        waits-for cycle (the requester is the victim) and
        :class:`LockTimeout` if the wait exceeds the timeout.
        """
        if timeout is None:
            timeout = self.default_timeout
        state = self._resources.get(resource)
        if state is None:
            self._state_serial += 1
            state = self._resources[resource] = _ResourceState(
                resource, self._state_serial
            )
        held = state.holders.get(txn_id)
        if held is not None:
            mode = self.table.join(held.mode, mode)
            if mode is held.mode:
                return  # already covered
            request = _Request(txn_id, mode, self._kernel.now)
            if self._grantable(state, request):
                self._grant(state, request)
                return
            # Conversions go first: queued behind a waiter that conflicts
            # with the *held* mode they would deadlock undetectably.
            state.waiters.appendleft(request)
        else:
            request = _Request(txn_id, mode, self._kernel.now)
            if not state.waiters and self._grantable(state, request):
                self._grant(state, request)
                return
            state.waiters.append(request)

        cycle = self._find_cycle(txn_id)
        if cycle is not None:
            self._remove_waiter(resource, request)
            self.deadlocks += 1
            raise DeadlockDetected(
                f"{self.name}: {txn_id} in cycle {' -> '.join(cycle)}"
            )

        request.wait = TimedWait(timeout)
        self.waits += 1
        yield from self._wait(resource, request)
        self.total_wait_time += self._kernel.now - request.request_time

    def _wait(self, resource: Hashable, request: _Request) -> Generator[Any, Any, None]:
        """Park on the request's wait until the grant, a failure or the timeout.

        A grant (or :meth:`cancel_wait`'s or :meth:`crash`'s failure)
        wakes the :class:`~repro.sim.events.TimedWait`, which retires
        its deadline at once: the run loop skips a settled wait's.  A
        grant in the same instant as the deadline, but after it fired,
        still counts as an acquisition.
        """
        try:
            value = yield request.wait
        except ProcessInterrupted:
            # The waiter died (crash): a request left queued would be
            # granted later to nobody and never released.
            if request.grant_time is None:
                self._remove_waiter(resource, request)
            raise
        if value is not TIMED_OUT or request.grant_time is not None:
            return
        self._remove_waiter(resource, request)
        self.timeouts += 1
        raise LockTimeout(f"{self.name}: {request.txn_id} on {resource}")

    def cancel_wait(self, txn_id: str, exc: BaseException) -> None:
        """Abort any pending wait of ``txn_id`` by raising ``exc`` in it."""
        for resource, state in self._resources.items():
            for request in list(state.waiters):
                if request.txn_id == txn_id and request.wait is not None:
                    self._remove_waiter(resource, request)
                    request.wait.wake(exc=exc)

    # -- release ---------------------------------------------------------------

    def release_all(self, txn_id: str) -> None:
        """Strict 2PL release: drop every lock of ``txn_id`` at once."""
        held = self._held.pop(txn_id, None)
        if held:
            # Visit in lock-table creation order -- the order the old
            # whole-table scan produced -- so the dispatch (and hence
            # grant/event) sequence is unchanged.
            resources = sorted(
                held, key=lambda r: self._resources[r].serial
            ) if len(held) > 1 else list(held)
            for resource in resources:
                state = self._resources.get(resource)
                request = state.holders.pop(txn_id, None) if state is not None else None
                if request is not None:
                    self._account_hold(resource, request)
                    self.releases += 1
                    self._dispatch(resource)

    def short_release(self, txn_id: str, downgrade: bool = True) -> list[Hashable]:
        """Early release at commit-phase start (Short-Commit).

        Shared locks are released outright; exclusive locks are
        *downgraded* to shared, so readers may proceed while writers
        stay blocked until the final :meth:`release_all`.  Returns the
        resources that lost exclusive protection, in lock-table order
        -- the engine marks those pages exposed.

        ``downgrade=False`` (the seeded ``short_release_all`` mutant)
        releases the exclusive locks too.

        The exclusive hold is what blocks other work, so a downgraded
        lock's hold time is accounted at the downgrade; the residual
        shared hold is clocked from the downgrade instant.
        """
        held = self._held.get(txn_id)
        if not held:
            return []
        resources = sorted(
            held, key=lambda r: self._resources[r].serial
        ) if len(held) > 1 else list(held)
        exposed: list[Hashable] = []
        for resource in resources:
            state = self._resources.get(resource)
            request = state.holders.get(txn_id) if state is not None else None
            if request is None:
                continue
            was_exclusive = request.mode is LockMode.EXCLUSIVE
            if was_exclusive and downgrade:
                self._account_hold(resource, request)
                request.mode = LockMode.SHARED
                request.grant_time = self._kernel.now
                self.downgrades += 1
                exposed.append(resource)
                self._dispatch(resource)
                continue
            if was_exclusive:
                exposed.append(resource)
            self._release_one(txn_id, resource)
        return exposed

    def _release_one(self, txn_id: str, resource: Hashable) -> None:
        state = self._resources.get(resource)
        request = state.holders.pop(txn_id, None) if state is not None else None
        if request is None:
            return
        held = self._held.get(txn_id)
        if held is not None:
            held.pop(resource, None)
            if not held:
                del self._held[txn_id]
        self._account_hold(resource, request)
        self.releases += 1
        self._dispatch(resource)

    def _account_hold(self, resource: Hashable, request: _Request) -> None:
        grant_time = (
            request.grant_time
            if request.grant_time is not None
            else request.request_time
        )
        hold = self._kernel.now - grant_time
        self.total_hold_time += hold
        if request.mode is LockMode.EXCLUSIVE:
            self.total_exclusive_hold_time += hold
        if hold > self.max_hold_time:
            self.max_hold_time = hold
        if self.hold_observer is not None:
            self.hold_observer(resource, hold)

    # -- internals ----------------------------------------------------------------

    def _grantable(self, state: _ResourceState, request: _Request) -> bool:
        compatible = self.table.compatible_with[request.mode]
        for holder in state.holders.values():
            if holder.mode not in compatible and holder.txn_id != request.txn_id:
                return False
        return True

    def _grant(self, state: _ResourceState, request: _Request) -> None:
        request.grant_time = self._kernel.now
        held = state.holders.get(request.txn_id)
        if held is not None:
            # A conversion: the hold is still clocked from the first grant.
            held.mode = request.mode
        else:
            state.holders[request.txn_id] = request
            resources = self._held.get(request.txn_id)
            if resources is None:
                self._held[request.txn_id] = {state.resource: None}
            else:
                resources[state.resource] = None
        self.grants += 1
        if request.wait is not None:
            request.wait.wake()

    def _dispatch(self, resource: Hashable) -> None:
        """Grant from the queue front while requests are compatible."""
        state = self._resources.get(resource)
        if state is None:
            return
        while state.waiters and self._grantable(state, state.waiters[0]):
            self._grant(state, state.waiters.popleft())
        if not state.holders and not state.waiters:
            del self._resources[resource]

    def _remove_waiter(self, resource: Hashable, request: _Request) -> None:
        state = self._resources.get(resource)
        if state is None:
            return
        try:
            state.waiters.remove(request)
        except ValueError:
            pass
        self._dispatch(resource)

    def _find_cycle(self, start: str) -> Optional[list[str]]:
        """A waits-for cycle through ``start``, read off the lock table.

        A waiter waits for the holders it conflicts with and for the
        conflicting requests queued ahead of it (conversions queue at
        the front).  The search is depth-first from ``start`` with
        neighbours in sorted order, so the same table always yields the
        same cycle; a cycle that does not pass through ``start`` is not
        reported.
        """
        compatible_with = self.table.compatible_with
        adjacency: dict[str, set[str]] = {}
        for state in self._resources.values():
            if not state.waiters:
                continue
            ahead: list[_Request] = []
            for waiter in state.waiters:
                compatible = compatible_with[waiter.mode]
                blockers = {
                    txn for txn, holder in state.holders.items()
                    if holder.mode not in compatible
                }
                blockers.update(
                    prior.txn_id for prior in ahead if prior.mode not in compatible
                )
                blockers.discard(waiter.txn_id)
                if blockers:
                    adjacency.setdefault(waiter.txn_id, set()).update(blockers)
                ahead.append(waiter)

        path: list[str] = []
        on_path: set[str] = set()
        visited: set[str] = set()

        def dfs(node: str) -> Optional[list[str]]:
            path.append(node)
            on_path.add(node)
            for neighbour in sorted(adjacency.get(node, ())):
                if neighbour == start:
                    return path + [start]
                if neighbour in on_path or neighbour in visited:
                    continue
                cycle = dfs(neighbour)
                if cycle is not None:
                    return cycle
            on_path.discard(node)
            visited.add(node)
            path.pop()
            return None

        return dfs(start)

    def crash(self) -> None:
        """Site crash: fail every waiter, drop the whole lock table."""
        for state in self._resources.values():
            for request in state.waiters:
                if request.wait is not None:
                    request.wait.wake(exc=SiteCrashed(f"{self.name} crashed"))
        self._resources.clear()
        self._held.clear()

    def __repr__(self) -> str:
        return (
            f"<LockManager {self.name} table={self.table.name} "
            f"resources={len(self._resources)}>"
        )
