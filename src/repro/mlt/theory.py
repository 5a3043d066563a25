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

from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.serializability import (
    OpRecord,
    SerializabilityReport,
    check,
    committed_history,
)
from repro.localdb.locks import ConflictTable
from repro.mlt.conflicts import SEMANTIC_TABLE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.localdb.engine import LocalDatabase


def check_l0(engine: "LocalDatabase") -> SerializabilityReport:
    """L0 serializability of the committed local transactions."""
    return check(committed_history(engine))


def check_l1(
    l1_history: Iterable[OpRecord],
    conflicts: ConflictTable = SEMANTIC_TABLE,
    committed: Optional[set[str]] = None,
) -> SerializabilityReport:
    """L1 serializability under a semantic conflict table.

    ``l1_history`` is one level's entry of
    :attr:`~repro.mlt.nested.NestedTransactionManager.histories`.  With
    ``committed`` given, only those L1 transactions are considered
    (committed projection).
    """
    if committed is not None:
        l1_history = [op for op in l1_history if op.txn_id in committed]
    return check(l1_history, conflicts.conflicts)
