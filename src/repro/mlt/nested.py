"""Multi-level transactions over one local engine (§4.1, Figure 8).

The paper instantiates the multi-level model with two levels for the
federation, but defines it generally: a transaction at level ``L_i``
consists of actions, each executed as a transaction at level
``L_{i-1}``; each level has its own commutativity-based conflict
definition, locks held only for the duration of the level's
transaction, and inverse actions for undo.  "If all schedules at all
levels are serializable, the whole multi-level transaction is
serializable" [Wei 86].

This module implements the general model over one local engine:

* a :class:`LevelSpec` per abstraction level -- a conflict table plus,
  per action kind, how the action *expands* into actions of the level
  below, which lock resources it touches, and how to invert it;
* a :class:`NestedTransactionManager` that executes a top-level
  transaction recursively, acquiring each level's semantic locks,
  releasing them when that level's (sub)transaction completes, and
  undoing with inverse actions level by level;
* per-level histories for the serializability theorem checker.

The bottom level executes :class:`~repro.mlt.actions.Operation` objects,
each as one short engine transaction that commits at once and releases
its page locks; the level's semantic lock is held until the
transaction ends.  With ``[bottom_level()]`` alone this is the paper's
two-level setting of Figure 8.  :class:`SingleLevelManager` runs the
same action list as one flat engine transaction -- the baseline whose
page locks are held to the very end.  The distributed versions of both
strategies live in :mod:`repro.core.protocols`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.core.serializability import OpRecord
from repro.errors import DatabaseError, ReproError, TransactionAborted
from repro.localdb.locks import ConflictTable, LockManager
from repro.mlt.actions import MAX_L0_RETRIES, Operation, apply, inverse_of
from repro.mlt.conflicts import SEMANTIC_TABLE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.localdb.engine import LocalDatabase
    from repro.sim.kernel import Kernel


class NestedTransactionError(ReproError):
    """A nested transaction could not complete."""


@dataclass(frozen=True)
class ActionDef:
    """Semantics of one action kind at some level.

    ``expand(action, context)`` produces the actions of the next lower
    level implementing it; ``context`` carries results of the expansion
    (e.g. values read) back up so ``invert(action, context)`` can build
    the inverse action.  ``resources(action)`` lists the (table, key)
    objects whose level-lock the action needs.
    """

    kind: str
    mode_kind: str  # which conflict-table column to lock with
    expand: Callable[[Operation, dict], list[Operation]]
    invert: Callable[[Operation, dict], Optional[Operation]]
    resources: Callable[[Operation], list[tuple[str, Any]]]


@dataclass
class LevelSpec:
    """One abstraction level: a conflict table and its action kinds."""

    name: str
    conflicts: ConflictTable
    actions: dict[str, ActionDef] = field(default_factory=dict)

    def define(self, action: ActionDef) -> "LevelSpec":
        self.actions[action.kind] = action
        return self


def bottom_level(name: str = "L1", conflicts: ConflictTable = SEMANTIC_TABLE) -> LevelSpec:
    """The record-operation level: actions are plain operations.

    Each action executes as one short engine transaction; inverses come
    from the standard inverse-action algebra.
    """
    spec = LevelSpec(name, conflicts)
    for kind in ("read", "write", "increment", "insert", "delete"):
        spec.define(
            ActionDef(
                kind=kind,
                mode_kind=kind,
                expand=lambda action, context: [action],
                invert=lambda action, context: inverse_of(
                    action, context.get("before")
                ),
                resources=lambda action: [(action.table, action.key)],
            )
        )
    return spec


@dataclass
class NestedResult:
    """Outcome of a top-level transaction (nested or flat)."""

    name: str
    committed: bool
    reads: dict[str, Any] = field(default_factory=dict)
    inverse_actions: int = 0
    abort_reason: Optional[str] = None


class NestedTransactionManager:
    """Executes transactions over an arbitrary stack of levels.

    ``levels[0]`` is the topmost abstraction; the last entry must be a
    :func:`bottom_level` whose actions are engine operations.
    """

    def __init__(
        self,
        kernel: "Kernel",
        engine: "LocalDatabase",
        levels: list[LevelSpec],
    ):
        if not levels:
            raise ValueError("need at least one level")
        self.kernel = kernel
        self.engine = engine
        self.levels = levels
        self.locks = [LockManager(kernel, level.name, level.conflicts) for level in levels]
        self._seq = 0
        self._subtxn_counter = 0
        #: per level: one op record per action, owned by the top-level txn
        self.histories: list[list[OpRecord]] = [[] for _ in levels]
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------

    def run(
        self,
        name: str,
        actions: list[Operation],
        abort_after: Optional[int] = None,
        think_time: float = 0.0,
    ) -> Generator[Any, Any, NestedResult]:
        """Run a top-level transaction; returns its outcome.

        ``abort_after=n`` aborts it intentionally after ``n`` actions,
        exercising the inverse-action undo path.  ``think_time`` elapses
        between its actions (transaction logic, user interaction); only
        the top level's own locks are held during it, no page lock --
        the source of the Figure 8 concurrency gain.
        """
        result = NestedResult(name=name, committed=False)
        try:
            yield from self._run_level(
                0, name, actions, result, abort_after, think_time
            )
        except _ABORTS as exc:
            result.abort_reason = _abort_reason(exc)
            self.aborts += 1
            self.locks[0].release_all(name)
            return result
        result.committed = True
        self.commits += 1
        self.locks[0].release_all(name)
        return result

    # ------------------------------------------------------------------

    def _run_level(
        self,
        level_index: int,
        txn_name: str,
        actions: list[Operation],
        result: NestedResult,
        abort_after: Optional[int] = None,
        think_time: float = 0.0,
    ) -> Generator[Any, Any, None]:
        """One transaction at ``levels[level_index]``.

        Acquires this level's locks per action, executes each action as
        a transaction one level below (or against the engine at the
        bottom), and undoes the executed prefix with inverse actions if
        anything fails -- an intended abort, an erroneous L0 abort, an
        action's own database error, or a deadlock or lock timeout at
        any level.  Either way the *caller* releases this level's locks
        when ITS transaction ends -- except the top level, whose locks
        are released by :meth:`run`.
        """
        undo: list[tuple[Operation, dict]] = []
        try:
            for index, action in enumerate(actions):
                if abort_after is not None and index >= abort_after:
                    raise _IntendedAbort()
                if think_time and index > 0:
                    yield think_time
                context = yield from self._execute_action(
                    level_index, txn_name, action, result
                )
                undo.append((action, context))
            if abort_after is not None and abort_after >= len(actions):
                raise _IntendedAbort()
        except _ABORTS:
            yield from self._undo_level(level_index, txn_name, undo, result)
            raise

    def _execute_action(
        self,
        level_index: int,
        txn_name: str,
        action: Operation,
        result: NestedResult,
    ) -> Generator[Any, Any, dict]:
        level = self.levels[level_index]
        definition = level.actions.get(action.kind)
        if definition is None:
            raise NestedTransactionError(
                f"{level.name} has no action kind {action.kind!r}"
            )
        mode = level.conflicts.mode_for(definition.mode_kind)
        for resource in definition.resources(action):
            yield from self.locks[level_index].acquire(txn_name, resource, mode)
        context: dict = {}
        if level_index == len(self.levels) - 1:
            context = yield from self._execute_bottom(txn_name, action, result)
        else:
            sub_actions = definition.expand(action, context)
            self._subtxn_counter += 1
            sub_name = f"{txn_name}/{level.name}.{self._subtxn_counter}"
            try:
                # The subtransaction's own locks (next level down) are
                # released as soon as it completes -- open nesting.
                yield from self._run_level(
                    level_index + 1, sub_name, sub_actions, result
                )
            finally:
                self.locks[level_index + 1].release_all(sub_name)
        self._record(level_index, txn_name, action)
        return context

    def _execute_bottom(
        self, txn_name: str, action: Operation, result: NestedResult
    ) -> Generator[Any, Any, dict]:
        """Run one record operation as a short engine transaction.

        An erroneous abort is retried up to ``MAX_L0_RETRIES`` times.
        Any other database error aborts the open engine transaction and
        propagates, aborting the transaction at this level.
        """
        engine = self.engine
        retries = 0
        while True:
            txn = engine.begin(gtxn_id=txn_name)
            try:
                value, before = yield from apply(engine, txn, action)
                yield from engine.commit(txn)
            except TransactionAborted:
                retries += 1
                if retries > MAX_L0_RETRIES:
                    raise
                continue
            except DatabaseError:
                if txn.active:
                    yield from engine.abort(txn)
                raise
            if action.kind == "read":
                result.reads[f"{action.table}[{action.key!r}]"] = value
            return {"value": value, "before": before}

    def _undo_level(
        self,
        level_index: int,
        txn_name: str,
        undo: list[tuple[Operation, dict]],
        result: NestedResult,
    ) -> Generator[Any, Any, None]:
        """Undo executed actions of this level with inverse actions."""
        level = self.levels[level_index]
        for action, context in reversed(undo):
            definition = level.actions[action.kind]
            inverse = definition.invert(action, context)
            if inverse is None:
                continue
            yield from self._execute_action(level_index, txn_name, inverse, result)
            result.inverse_actions += 1

    def _record(self, level_index: int, txn_name: str, action: Operation) -> None:
        self._seq += 1
        # Attribute the action to the *top-level* transaction for the
        # serializability histories (T1/L2.3 -> T1).
        owner = txn_name.split("/", 1)[0]
        self.histories[level_index].append(
            OpRecord(self._seq, owner, None, action.kind, action.table, action.key)
        )

    # ------------------------------------------------------------------

    def level_reports(self, committed: Optional[set[str]] = None):
        """Per-level serializability reports (Weikum's theorem inputs)."""
        from repro.mlt.theory import check_l1

        return [
            check_l1(history, conflicts=level.conflicts, committed=committed)
            for history, level in zip(self.histories, self.levels)
        ]

    def serializable(self, committed: Optional[set[str]] = None) -> bool:
        """All levels serializable => the execution is serializable."""
        return all(bool(report) for report in self.level_reports(committed))


class SingleLevelManager:
    """Baseline: the action list runs as one flat engine transaction."""

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
    ) -> Generator[Any, Any, NestedResult]:
        """Execute all operations inside a single local transaction.

        ``think_time`` elapses between operations *while all page locks
        are held* -- flat transactions cannot release early.
        """
        engine = self.engine
        result = NestedResult(name=name, committed=False)
        txn = engine.begin(gtxn_id=name)
        try:
            for index, operation in enumerate(operations):
                if abort_after is not None and index >= abort_after:
                    raise _IntendedAbort()
                if think_time and index > 0:
                    yield think_time
                value, _ = yield from apply(engine, txn, operation)
                if operation.kind == "read":
                    result.reads[f"{operation.table}[{operation.key!r}]"] = value
            if abort_after is not None and abort_after >= len(operations):
                raise _IntendedAbort()
            yield from engine.commit(txn)
        except _ABORTS as exc:
            if txn.active:
                yield from engine.abort(txn)
            result.abort_reason = _abort_reason(exc)
            self.aborts += 1
            return result
        result.committed = True
        self.commits += 1
        return result


class _IntendedAbort(Exception):
    """Marker: the transaction's own logic decided to abort."""


#: What aborts a transaction at the level that raised it: its own
#: logic, or any database error -- an erroneous L0 abort past the
#: retries, an action's own failure (a duplicate key, say), or a
#: deadlock victim or lock timeout at any level's lock manager.
_ABORTS = (_IntendedAbort, DatabaseError)


def _abort_reason(exc: Exception) -> str:
    if isinstance(exc, _IntendedAbort):
        return "intended"
    if isinstance(exc, TransactionAborted):
        return str(exc.reason)
    return type(exc).__name__
