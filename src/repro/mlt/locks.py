"""Semantic lock manager for level L1 (global objects).

Key-granularity locks whose modes come from a
:class:`~repro.mlt.conflicts.ConflictTable`.  A transaction may hold
several modes on one object (e.g. it both read and incremented it);
a request is granted when its mode commutes with every mode held by
*other* transactions.  FIFO queueing, waits-for deadlock detection
(requester aborts) and optional timeouts mirror the L0 lock manager.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator, Hashable, Optional

from repro.errors import DeadlockDetected, LockTimeout
from repro.localdb.deadlock import WaitsForGraph
from repro.mlt.conflicts import ConflictTable, L1Mode
from repro.sim.events import AnyOf, Future

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class _Request:
    __slots__ = ("txn_id", "mode", "future", "request_time", "granted")

    def __init__(self, txn_id: str, mode: L1Mode, request_time: float):
        self.txn_id = txn_id
        self.mode = mode
        self.future: Optional[Future] = None
        self.request_time = request_time
        self.granted = False


class _ResourceState:
    __slots__ = ("holders", "waiters", "first_grant")

    def __init__(self) -> None:
        self.holders: dict[str, set[L1Mode]] = {}
        self.waiters: deque[_Request] = deque()
        self.first_grant: dict[str, float] = {}


class SemanticLockManager:
    """L1 lock table shared by all global transactions."""

    def __init__(
        self,
        kernel: "Kernel",
        table: ConflictTable,
        default_timeout: Optional[float] = None,
        name: str = "L1",
    ):
        self._kernel = kernel
        self.table = table
        self.default_timeout = default_timeout
        self.name = name
        self._resources: dict[Hashable, _ResourceState] = {}
        self._graph = WaitsForGraph()
        # Metrics.
        self.grants = 0
        self.waits = 0
        self.total_wait_time = 0.0
        self.total_hold_time = 0.0
        self.deadlocks = 0
        self.timeouts = 0

    # -- queries -----------------------------------------------------------

    def holders_of(self, resource: Hashable) -> dict[str, set[L1Mode]]:
        state = self._resources.get(resource)
        return {t: set(m) for t, m in state.holders.items()} if state else {}

    def holds(self, txn_id: str, resource: Hashable, mode: L1Mode) -> bool:
        state = self._resources.get(resource)
        return bool(state and mode in state.holders.get(txn_id, ()))

    # -- acquisition ---------------------------------------------------------

    def acquire(
        self,
        txn_id: str,
        resource: Hashable,
        mode: L1Mode,
        timeout: Optional[float] = None,
    ) -> Generator[Any, Any, None]:
        """Acquire ``mode`` on ``resource``; blocks, may raise.

        Raises :class:`DeadlockDetected` (requester is the victim) or
        :class:`LockTimeout` exactly like the L0 manager, so global
        transactions can be aborted and retried by the GTM.
        """
        if timeout is None:
            timeout = self.default_timeout
        state = self._resources.setdefault(resource, _ResourceState())
        held = state.holders.get(txn_id, set())
        if mode in held:
            return
        request = _Request(txn_id, mode, self._kernel.now)
        if held:
            # Mode conversion: the transaction already holds this object.
            # Conversions get priority over plain waiters (queueing them
            # behind a waiter that conflicts with the *held* mode would
            # deadlock undetectably), so grant or queue at the front.
            if self._grantable(state, request):
                self._grant(state, request)
                return
            state.waiters.appendleft(request)
        elif not state.waiters and self._grantable(state, request):
            self._grant(state, request)
            return
        else:
            state.waiters.append(request)
        self._restate_blockers(resource)
        cycle = self._graph.find_cycle_from(txn_id)
        if cycle is not None:
            self._remove_waiter(resource, request)
            self.deadlocks += 1
            raise DeadlockDetected(
                f"{self.name}: {txn_id} in cycle {' -> '.join(cycle)}"
            )
        request.future = Future(label=f"{self.name}:{resource}:{txn_id}")
        self.waits += 1
        if timeout is None:
            yield request.future
        else:
            timer = self._kernel.timer(timeout, label="l1-lock-timeout")
            index, _ = yield AnyOf([request.future, timer])
            if index != 0 and not request.granted:
                self._remove_waiter(resource, request)
                self.timeouts += 1
                raise LockTimeout(f"{self.name}: {txn_id} on {resource}")
        self.total_wait_time += self._kernel.now - request.request_time

    def cancel_wait(self, txn_id: str, exc: BaseException) -> None:
        """Fail any pending waits of ``txn_id`` (external abort)."""
        for resource, state in self._resources.items():
            for request in list(state.waiters):
                if request.txn_id == txn_id and request.future is not None:
                    self._remove_waiter(resource, request)
                    request.future.fail(exc)

    # -- release ---------------------------------------------------------------

    def release_all(self, txn_id: str) -> None:
        """Drop every L1 lock of ``txn_id`` (end of global transaction)."""
        for resource, state in list(self._resources.items()):
            if txn_id in state.holders:
                del state.holders[txn_id]
                grant_time = state.first_grant.pop(txn_id, self._kernel.now)
                self.total_hold_time += self._kernel.now - grant_time
                self._dispatch(resource)
        self._graph.clear_txn(txn_id)

    # -- internals ----------------------------------------------------------------

    def _grantable(self, state: _ResourceState, request: _Request) -> bool:
        return all(
            self.table.compatible(request.mode, held_mode)
            for holder, modes in state.holders.items()
            if holder != request.txn_id
            for held_mode in modes
        )

    def _grant(self, state: _ResourceState, request: _Request) -> None:
        state.holders.setdefault(request.txn_id, set()).add(request.mode)
        state.first_grant.setdefault(request.txn_id, self._kernel.now)
        request.granted = True
        self.grants += 1
        if request.future is not None and not request.future.done:
            request.future.resolve(None)

    def _dispatch(self, resource: Hashable) -> None:
        state = self._resources.get(resource)
        if state is None:
            return
        while state.waiters and self._grantable(state, state.waiters[0]):
            front = state.waiters.popleft()
            self._graph.clear(resource, front.txn_id)
            self._grant(state, front)
        self._restate_blockers(resource)
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
        self._graph.clear(resource, request.txn_id)
        self._dispatch(resource)

    def _restate_blockers(self, resource: Hashable) -> None:
        state = self._resources.get(resource)
        if state is None:
            return
        ahead: list[_Request] = []
        for waiter in state.waiters:
            blockers = {
                holder
                for holder, modes in state.holders.items()
                if holder != waiter.txn_id
                and any(not self.table.compatible(waiter.mode, m) for m in modes)
            }
            blockers.update(
                prior.txn_id
                for prior in ahead
                if prior.txn_id != waiter.txn_id
                and not self.table.compatible(waiter.mode, prior.mode)
            )
            self._graph.set_blockers(resource, waiter.txn_id, blockers)
            ahead.append(waiter)

    def __repr__(self) -> str:
        return f"<SemanticLockManager {self.name} table={self.table.name} resources={len(self._resources)}>"
