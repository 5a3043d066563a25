"""Level-by-level serializability verification (Weikum's theorem).

"If all schedules at all levels are serializable, the whole multi-level
transaction is serializable" (§4.1, citing [Wei 86]).  The checkers
here verify that property on actual executions:

* level L0: classical read/write conflicts between the short local
  transactions;
* level L1: semantic (commutativity-based) conflicts between the L1
  actions of different L1 transactions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.core.serializability import (
    HistoryOp,
    SerializabilityReport,
    check,
    ops_from_engine,
)
from repro.localdb.locks import ConflictTable
from repro.mlt.conflicts import SEMANTIC_TABLE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.localdb.engine import LocalDatabase


def check_l0(engine: "LocalDatabase") -> SerializabilityReport:
    """L0 serializability of the committed local transactions."""
    return check(ops_from_engine(engine, by_gtxn=False))


def check_l1(
    l1_history: Iterable[tuple[int, str, str, str, Any]],
    conflicts: ConflictTable = SEMANTIC_TABLE,
    committed: Optional[set[str]] = None,
) -> SerializabilityReport:
    """L1 serializability under a semantic conflict table.

    ``l1_history`` rows are ``(seq, l1_txn, kind, table, key)``, one
    level's entry of
    :attr:`~repro.mlt.nested.NestedTransactionManager.histories`.  With
    ``committed`` given, only those L1 transactions are considered
    (committed projection).
    """
    ops = [
        HistoryOp(seq, txn, kind, table, key)
        for seq, txn, kind, table, key in l1_history
        if committed is None or txn in committed
    ]
    return check(ops, conflicts.conflicts)
