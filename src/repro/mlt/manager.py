"""Two-level transaction execution against a single local engine.

This is the paper's §4.1 setting (and Figure 8): multi-level
transactions inside one database system.  Each L1 action runs as its
own short L0 transaction and commits immediately, releasing its page
locks; the L1 semantic lock is held until the L1 transaction ends.
Undo of an L1 transaction executes inverse actions as new L0
transactions.

:class:`SingleLevelManager` runs the same action list as one flat L0
transaction -- the baseline whose page locks are held to the very end.
The distributed versions of both strategies live in
:mod:`repro.core.protocols`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import DeadlockDetected, LockTimeout, TransactionAborted
from repro.localdb.locks import ConflictTable, LockManager
from repro.mlt.actions import Operation, UndoEntry, apply, inverse_of
from repro.mlt.conflicts import SEMANTIC_TABLE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.localdb.engine import LocalDatabase
    from repro.localdb.txn import LocalTransaction
    from repro.sim.kernel import Kernel


@dataclass
class L1Result:
    """Outcome of one L1 (multi-level) transaction."""

    name: str
    committed: bool
    reads: dict[str, Any] = field(default_factory=dict)
    actions_executed: int = 0
    inverse_actions: int = 0
    l0_retries: int = 0
    abort_reason: Optional[str] = None


class TwoLevelManager:
    """Runs L1 transactions as sequences of short L0 transactions."""

    def __init__(
        self,
        kernel: "Kernel",
        engine: "LocalDatabase",
        conflicts: ConflictTable = SEMANTIC_TABLE,
        l1_timeout: Optional[float] = None,
        max_l0_retries: int = 10,
    ):
        self.kernel = kernel
        self.engine = engine
        self.locks = LockManager(kernel, "L1", conflicts, default_timeout=l1_timeout)
        self.max_l0_retries = max_l0_retries
        self._seq = 0
        #: (seq, l1_txn, kind, table, key) of every executed L1 action,
        #: inverse actions included -- input to the L1 theory checker.
        self.l1_history: list[tuple[int, str, str, str, Any]] = []
        self.l1_commits = 0
        self.l1_aborts = 0

    def run(
        self,
        name: str,
        operations: list[Operation],
        abort_after: Optional[int] = None,
        think_time: float = 0.0,
    ) -> Generator[Any, Any, L1Result]:
        """Execute one L1 transaction.

        ``abort_after=n`` aborts the L1 transaction intentionally after
        ``n`` actions, exercising the inverse-action undo path.
        ``think_time`` elapses between actions (transaction logic,
        user interaction); at this level no L0 locks are held during it
        -- the source of the Figure 8 concurrency gain.
        """
        result = L1Result(name=name, committed=False)
        undo_log: list[UndoEntry] = []
        try:
            for index, operation in enumerate(operations):
                if abort_after is not None and index >= abort_after:
                    break
                if think_time and index > 0:
                    yield think_time
                value, before, retries = yield from self._execute_action(
                    name, operation
                )
                result.actions_executed += 1
                result.l0_retries += retries
                if operation.kind == "read":
                    result.reads[f"{operation.table}[{operation.key!r}]"] = value
                undo_log.append(
                    UndoEntry(operation, before, inverse_of(operation, before))
                )
            if abort_after is not None and abort_after <= len(operations):
                raise _IntendedAbort()
        except (_IntendedAbort, DeadlockDetected, LockTimeout, TransactionAborted) as exc:
            result.inverse_actions = yield from self._undo(name, undo_log)
            result.abort_reason = (
                "intended" if isinstance(exc, _IntendedAbort) else type(exc).__name__
            )
            self.l1_aborts += 1
            self.locks.release_all(name)
            return result
        result.committed = True
        self.l1_commits += 1
        self.locks.release_all(name)
        return result

    # -- internals -----------------------------------------------------------

    def _execute_action(
        self, l1_name: str, operation: Operation
    ) -> Generator[Any, Any, tuple[Any, Any, int]]:
        """One L1 action: L1 lock, then an L0 transaction, retried on
        erroneous L0 aborts (the action's effects are atomic at L0)."""
        mode = self.locks.table.mode_for(operation.kind)
        yield from self.locks.acquire(l1_name, (operation.table, operation.key), mode)
        retries = 0
        while True:
            try:
                value, before = yield from self._run_l0(l1_name, operation)
                break
            except TransactionAborted:
                retries += 1
                if retries > self.max_l0_retries:
                    raise
        self._seq += 1
        self.l1_history.append(
            (self._seq, l1_name, operation.kind, operation.table, operation.key)
        )
        return value, before, retries

    def _run_l0(
        self, l1_name: str, operation: Operation
    ) -> Generator[Any, Any, tuple[Any, Any]]:
        txn = self.engine.begin(gtxn_id=l1_name)
        value, before = yield from apply(self.engine, txn, operation)
        yield from self.engine.commit(txn)
        return value, before

    def _undo(
        self, l1_name: str, undo_log: list[UndoEntry]
    ) -> Generator[Any, Any, int]:
        """Execute inverse actions in reverse order, each as an L0 txn.

        Inverse actions are treated as normal actions (they appear in
        the L1 history); a failed inverse L0 transaction is repeated --
        the paper argues it cannot abort due to its logic.
        """
        executed = 0
        for entry in reversed(undo_log):
            if entry.inverse is None:
                continue
            retries = 0
            while True:
                try:
                    yield from self._run_l0(l1_name, entry.inverse)
                    break
                except TransactionAborted:
                    retries += 1
                    if retries > self.max_l0_retries:
                        raise
            self._seq += 1
            self.l1_history.append(
                (
                    self._seq,
                    l1_name,
                    entry.inverse.kind,
                    entry.inverse.table,
                    entry.inverse.key,
                )
            )
            executed += 1
        return executed


class SingleLevelManager:
    """Baseline: the action list runs as one flat L0 transaction."""

    def __init__(self, kernel: "Kernel", engine: "LocalDatabase"):
        self.kernel = kernel
        self.engine = engine
        self.commits = 0
        self.aborts = 0

    def run(
        self,
        name: str,
        operations: list[Operation],
        abort_after: Optional[int] = None,
        think_time: float = 0.0,
    ) -> Generator[Any, Any, L1Result]:
        """Execute all operations inside a single local transaction.

        ``think_time`` elapses between operations *while all page locks
        are held* -- flat transactions cannot release early.
        """
        engine = self.engine
        result = L1Result(name=name, committed=False)
        txn: "LocalTransaction" = engine.begin(gtxn_id=name)
        try:
            for index, operation in enumerate(operations):
                if abort_after is not None and index >= abort_after:
                    break
                if think_time and index > 0:
                    yield think_time
                value = yield from self._apply(txn, operation)
                result.actions_executed += 1
                if operation.kind == "read":
                    result.reads[f"{operation.table}[{operation.key!r}]"] = value
            if abort_after is not None and abort_after <= len(operations):
                yield from engine.abort(txn)
                result.abort_reason = "intended"
                self.aborts += 1
                return result
            yield from engine.commit(txn)
        except TransactionAborted as exc:
            result.abort_reason = str(exc.reason)
            self.aborts += 1
            return result
        result.committed = True
        self.commits += 1
        return result

    def _apply(self, txn: "LocalTransaction", operation: Operation) -> Generator[Any, Any, Any]:
        engine = self.engine
        if operation.kind == "read":
            value = yield from engine.read(txn, operation.table, operation.key)
            return value
        if operation.kind == "write":
            yield from engine.write(txn, operation.table, operation.key, operation.value)
        elif operation.kind == "increment":
            value = yield from engine.increment(
                txn, operation.table, operation.key, operation.value
            )
            return value
        elif operation.kind == "insert":
            yield from engine.insert(txn, operation.table, operation.key, operation.value)
        elif operation.kind == "delete":
            yield from engine.delete(txn, operation.table, operation.key)
        return None


class _IntendedAbort(Exception):
    """Internal marker: the L1 transaction chose to abort."""
