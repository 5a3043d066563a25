"""Pages: the unit of disk transfer and of L0 locking.

A page stores the records of one table whose keys hash (or are pinned
explicitly, as in the paper's Figure 8 where ``x`` and ``y`` share page
``p``) to it.  ``page_lsn`` records the LSN of the last update applied,
which makes recovery redo idempotent.
"""

from __future__ import annotations

import copy
from typing import Any, Optional

#: Value types a shallow ``dict.copy`` already copies by value.
_IMMUTABLE_SCALARS = frozenset((int, float, str, bytes, bool, type(None)))


class Page:
    """An in-memory page image."""

    __slots__ = ("page_id", "table", "records", "page_lsn")

    def __init__(self, page_id: int, table: str):
        self.page_id = page_id
        self.table = table
        self.records: dict[Any, Any] = {}
        self.page_lsn = 0

    def get(self, key: Any) -> Optional[Any]:
        """Return the value stored under ``key`` or ``None``."""
        return self.records.get(key)

    def put(self, key: Any, value: Any, lsn: int) -> None:
        """Insert or overwrite ``key`` and stamp the page with ``lsn``."""
        self.records[key] = value
        self.page_lsn = max(self.page_lsn, lsn)

    def remove(self, key: Any, lsn: int) -> None:
        """Delete ``key`` if present and stamp the page with ``lsn``."""
        self.records.pop(key, None)
        self.page_lsn = max(self.page_lsn, lsn)

    def snapshot(self) -> "Page":
        """A private image sharing no mutable state with this page.

        Taken once per direction of a disk transfer.  Rows of immutable
        scalars -- the common case -- are copied by value with one
        ``dict.copy``; any other row (the commit-marker relation stores
        dicts) falls back to ``deepcopy``.
        """
        clone = Page(self.page_id, self.table)
        records = self.records
        if _IMMUTABLE_SCALARS.issuperset(map(type, records.values())):
            clone.records = records.copy()
        else:
            clone.records = copy.deepcopy(records)
        clone.page_lsn = self.page_lsn
        return clone

    def __contains__(self, key: Any) -> bool:
        return key in self.records

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (
            f"<Page {self.page_id} table={self.table} "
            f"records={len(self.records)} lsn={self.page_lsn}>"
        )
