"""Undo machinery for the commit-before protocol (§3.3).

The *undo requirement*: locally committed subtransactions of a globally
aborted transaction must be undone by inverse transactions.  The
undo-log stores, per executed operation, the inverse action derived at
execution time (using the before-image the site returned) -- this is the
L1 undo-log that multi-level transactions maintain anyway, which is why
the protocol adds no overhead when combined with them (§4.3).

A committed inverse transaction puts the *local transaction* in its
aborted final state ("committing the undo means aborting the local
transaction", Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.mlt.actions import Operation


@dataclass
class UndoRecord:
    """Inverse action for one executed operation."""

    gtxn_id: str
    site: str
    sequence: int
    operation: Operation
    inverse: Optional[Operation]


@dataclass
class UndoLog:
    """Central (L1) undo-log, ordered by execution sequence."""

    records: list[UndoRecord] = field(default_factory=list)
    total_undos: int = 0
    # Next record's sequence number.  Never reused: :meth:`forget`
    # shrinks ``records``, and a repeated number would tie two objects
    # in :func:`optimize_inverses`' undo order.
    _next_sequence: int = field(default=0, init=False, repr=False)

    def record(
        self,
        gtxn_id: str,
        site: str,
        operation: Operation,
        inverse: Optional[Operation],
    ) -> UndoRecord:
        entry = UndoRecord(gtxn_id, site, self._next_sequence, operation, inverse)
        self._next_sequence += 1
        self.records.append(entry)
        return entry

    def inverses_for(self, gtxn_id: str, site: Optional[str] = None) -> list[UndoRecord]:
        """Undo records of a global transaction, newest first.

        Reverse execution order is the correct undo order; with the
        semantic conflict table the order among commuting actions is
        immaterial, but reverse order is always safe.
        """
        selected = [
            record
            for record in self.records
            if record.gtxn_id == gtxn_id
            and record.inverse is not None
            and (site is None or record.site == site)
        ]
        return list(reversed(selected))

    def note_undo(self) -> None:
        self.total_undos += 1

    def forget(self, gtxn_id: str) -> None:
        """Drop records of a finished global transaction."""
        self.records = [r for r in self.records if r.gtxn_id != gtxn_id]


def optimize_inverses(records: list[UndoRecord]) -> list[Operation]:
    """Collapse an inverse-transaction's operation list.

    The paper defers this: "Optimizing the execution of inverse actions
    is not considered in this paper" (§4.1).  This implements the two
    safe collapses per object:

    * a run of increments nets out to a single increment of the negated
      sum (dropped entirely when it nets to zero);
    * a run of state-based operations (write/insert/delete) reduces to
      restoring the *oldest* before-image -- intermediate restorations
      are dead writes.

    Objects mixing increments with state-based operations keep their
    full reverse-order inverse sequence (collapsing across the boundary
    would not commute).  ``records`` must be in execution order for one
    (gtxn, site); the result preserves reverse order across objects.
    """
    by_object: dict[tuple[str, Any], list[UndoRecord]] = {}
    last_seen: dict[tuple[str, Any], int] = {}
    for record in records:
        if record.inverse is None:
            continue
        key = (record.operation.table, record.operation.key)
        by_object.setdefault(key, []).append(record)
        last_seen[key] = record.sequence

    collapsed: list[tuple[int, list[Operation]]] = []
    for key, object_records in by_object.items():
        kinds = {r.operation.kind for r in object_records}
        if kinds <= {"increment"}:
            net = sum(r.operation.value for r in object_records)
            ops = (
                [replace_value(object_records[0].inverse, -net)] if net else []
            )
        elif "increment" not in kinds:
            # Restore the state before the FIRST touch of the object.
            oldest = object_records[0]
            ops = [oldest.inverse]
        else:
            ops = [r.inverse for r in reversed(object_records)]
        if ops:
            collapsed.append((last_seen[key], ops))

    # Undo objects in reverse order of their last forward touch.
    collapsed.sort(key=lambda item: item[0], reverse=True)
    return [op for _, ops in collapsed for op in ops]


def replace_value(operation: Operation, value: Any) -> Operation:
    """An increment inverse with a different delta."""
    from dataclasses import replace

    return replace(operation, value=value)
