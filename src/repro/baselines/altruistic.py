"""Altruistic locking [AGK 87, GS 87] -- early release with wake tracking.

"The goal of altruistic locking is the early release of locks without
violating serializability.  Compared to multi-level transactions, a
more complicated algorithm maintaining dependencies between
transactions is used" (§5).

Model implemented here (simplified to direct wakes, which is sufficient
for the chain-free workloads of the experiments):

* A global transaction *donates* an object as soon as it has executed
  its last access to it (the GTM knows the full operation list, so the
  donation point is computable).
* A donated lock no longer blocks others, but a transaction acquiring a
  donated object enters the donor's *wake*: it may not reach its global
  decision before the donor finished.
* Wake dependencies are the "more complicated algorithm" the paper
  mentions -- they must be maintained per transaction pair, while the
  multi-level scheme gets its concurrency from a static conflict table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Hashable, Optional

from repro.core.protocols.base import ProtocolContext
from repro.core.protocols.commit_before import CommitBefore
from repro.errors import LockTimeout
from repro.localdb.locks import ConflictTable, LockManager, _Request, _ResourceState
from repro.mlt.actions import Operation
from repro.sim.events import TIMED_OUT, TimedWait

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class AltruisticLockManager(LockManager):
    """L1 lock table with donations and wake dependencies."""

    def __init__(
        self,
        kernel: "Kernel",
        name: str,
        table: ConflictTable,
        default_timeout: Optional[float] = None,
    ):
        super().__init__(kernel, f"{name}-altruistic", table, default_timeout)
        #: resource -> donors that released it early but still run
        self._donated: dict[Hashable, set[str]] = {}
        #: txn -> donors whose wake it entered
        self.wake: dict[str, set[str]] = {}
        #: Finished donors some ``wake`` set still names (their wakes are over)
        self._finished: set[str] = set()
        #: running donor -> the pending wake waits its finish settles, in order
        self._wake_waits: dict[str, list[TimedWait]] = {}
        self.donations = 0
        self.wake_entries = 0

    # -- donation ------------------------------------------------------------

    def donate(self, txn_id: str, resource: Hashable) -> None:
        """Release ``resource`` early: others may pass, entering the wake."""
        state = self._resources.get(resource)
        if state is None or txn_id not in state.holders:
            return
        self._donated.setdefault(resource, set()).add(txn_id)
        self.donations += 1
        self._dispatch(resource)

    def _grantable(self, state: _ResourceState, request: _Request) -> bool:
        donors = self._donated.get(state.resource, set())
        for holder in state.holders.values():
            if holder.txn_id == request.txn_id:
                continue
            if not self.table.compatible(request.mode, holder.mode):
                if holder.txn_id not in donors:
                    return False
                # Passing this donation would put the requester in the
                # donor's wake; refuse if that closes a wake cycle
                # (mutual waits would never resolve).
                if self._wake_reaches(holder.txn_id, request.txn_id):
                    return False
        return True

    def _wake_reaches(self, start: str, target: str) -> bool:
        """Is ``target`` reachable from ``start`` along wake edges?"""
        stack = [start]
        seen = set()
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.wake.get(node, ()))
        return False

    def _grant(self, state: _ResourceState, request: _Request) -> None:
        donors = self._donated.get(state.resource, set())
        for holder in state.holders.values():
            if holder.txn_id == request.txn_id or holder.txn_id not in donors:
                continue
            if not self.table.compatible(request.mode, holder.mode):
                # Passing a donated incompatible lock: enter the wake.
                self.wake.setdefault(request.txn_id, set()).add(holder.txn_id)
                self.wake_entries += 1
        super()._grant(state, request)

    # -- completion tracking -----------------------------------------------------

    def finish(self, txn_id: str) -> None:
        """The transaction ended: release, clear donations, wake waiters."""
        self.release_all(txn_id)
        for donors in self._donated.values():
            donors.discard(txn_id)
        if any(txn_id in donors for donors in self.wake.values()):
            self._finished.add(txn_id)
        for wait in self._wake_waits.pop(txn_id, ()):
            wait.wake()

    def wait_for_wake(
        self, txn_id: str, timeout: Optional[float] = None
    ) -> Generator[Any, Any, None]:
        """Block until every donor whose wake ``txn_id`` entered finished.

        Raises :class:`~repro.errors.LockTimeout` if a donor does not
        finish within ``timeout`` -- the escape hatch for residual
        cross-structure waits the simplified wake rule cannot exclude.
        """
        for donor in sorted(self.wake.get(txn_id, ())):
            wait = TimedWait(timeout)
            if donor in self._finished:
                wait.wake()  # still one hop, and the deadline is armed
            else:
                self._wake_waits.setdefault(donor, []).append(wait)
            if (yield wait) is TIMED_OUT:
                waits = self._wake_waits.get(donor, [])
                if wait in waits:
                    waits.remove(wait)
                if not waits:
                    self._wake_waits.pop(donor, None)
                self._leave_wakes(txn_id)
                raise LockTimeout(f"wake wait on {donor} timed out")
        self._leave_wakes(txn_id)

    def _leave_wakes(self, txn_id: str) -> None:
        """Drop ``txn_id``'s wake set, and every finished donor no other names."""
        for donor in self.wake.pop(txn_id, ()):
            if donor in self._finished and not any(
                donor in donors for donors in self.wake.values()
            ):
                self._finished.discard(donor)


class AltruisticCommit(CommitBefore):
    """Commit-before (always per action) with altruistic L1 locking.

    Donates each object after the transaction's last access to it, and
    waits out its wake dependencies before the global decision.
    """

    l1_manager = AltruisticLockManager
    fixed_granularity = "per_action"

    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        locks = ctx.l1
        assert isinstance(locks, AltruisticLockManager), (
            "altruistic protocol needs an AltruisticLockManager"
        )
        gtxn_id = ctx.gtxn.gtxn_id
        # Last access index per object, to find donation points.
        last_access: dict[tuple, int] = {}
        for index, operation in enumerate(ctx.decomposition.ordered):
            last_access[(operation.table, operation.key)] = index

        def donate(index: int, operation: Operation) -> None:
            resource = (operation.table, operation.key)
            if last_access[resource] == index:
                locks.donate(gtxn_id, resource)

        executed, failure = yield from self._execute_actions(ctx, on_action=donate)

        # The wake rule: do not decide before every donor finished.
        try:
            yield from locks.wait_for_wake(
                gtxn_id, timeout=ctx.config.msg_timeout * 20
            )
        except LockTimeout as exc:
            if failure is None:
                failure = ctx.failure_reason(exc)

        yield from self._conclude(
            ctx, failure, lambda: self._undo_actions(ctx, executed)
        )
        locks.finish(gtxn_id)
