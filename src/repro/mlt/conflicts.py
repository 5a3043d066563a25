"""L1 conflict tables.

Two L1 actions conflict iff they do not generally commute (§4.1).  The
*semantic* table knows that increments commute with each other; the
*read/write* table is the flat approximation used as ablation EXP-A1 --
it is what a system without semantic knowledge (or the commit-after
protocol's extra CC module) must assume.  Both are
:class:`~repro.localdb.locks.ConflictTable` instances for the one lock
manager every level uses.
"""

from __future__ import annotations

from repro.localdb.locks import ConflictTable, LockMode

_BASE_MODES = {
    "read": LockMode.SHARED,
    "write": LockMode.EXCLUSIVE,
    "insert": LockMode.EXCLUSIVE,
    "delete": LockMode.EXCLUSIVE,
}

#: Semantic table: reads share, increments commute with increments.
SEMANTIC_TABLE = ConflictTable(
    "semantic",
    {**_BASE_MODES, "increment": LockMode.INCREMENT},
    [
        frozenset((LockMode.SHARED,)),
        frozenset((LockMode.INCREMENT,)),
    ],
)

#: Flat read/write table: increments are plain writes (ablation EXP-A1).
READ_WRITE_TABLE = ConflictTable(
    "read-write",
    {**_BASE_MODES, "increment": LockMode.EXCLUSIVE},
    [
        frozenset((LockMode.SHARED,)),
    ],
)
