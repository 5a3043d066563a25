"""Multi-level transactions (§4 of the paper).

Two levels, exactly as the paper instantiates them for integrated
database systems:

* **L1** -- global transactions; actions are semantic operations
  (``read``, ``write``, ``increment``, ``insert``, ``delete``) whose
  conflicts are defined by *commutativity* (two increments commute), and
  whose undo is an *inverse action* (decrement undoes increment).
* **L0** -- local transactions executed by the existing transaction
  managers; each L1 action runs as one short L0 transaction.

Both levels lock through the one strict-2PL lock manager
(:class:`~repro.localdb.locks.LockManager`); only the conflict table
differs (:mod:`repro.mlt.conflicts` holds the L1 tables).  That manager
and the inverse-action algebra (:mod:`repro.mlt.actions`) are reused by
the commit-before protocol, which is the paper's headline point: the
protocol adds no machinery beyond what multi-level transactions already
need.
"""

from repro.mlt.actions import Operation, UndoEntry, inverse_of
from repro.mlt.conflicts import READ_WRITE_TABLE, SEMANTIC_TABLE
from repro.mlt.manager import SingleLevelManager, TwoLevelManager
from repro.mlt.nested import (
    ActionDef,
    LevelSpec,
    NestedTransactionManager,
    bottom_level,
)

__all__ = [
    "ActionDef",
    "LevelSpec",
    "NestedTransactionManager",
    "Operation",
    "bottom_level",
    "READ_WRITE_TABLE",
    "SEMANTIC_TABLE",
    "SingleLevelManager",
    "TwoLevelManager",
    "UndoEntry",
    "inverse_of",
]
