"""Heap files: key -> page placement for one table.

Keys are placed on pages by hashing over a fixed set of buckets, except
where a key has been *pinned* to a specific page -- the mechanism used
to reproduce Figure 8 of the paper, where objects ``x`` and ``y`` live
on the same page ``p``.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Generator, Iterator, Optional

from repro.storage.page import Page

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import StableDisk


def _stable_hash(value: Any) -> int:
    digest = hashlib.sha256(repr(value).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class HeapFile:
    """The pages of one table, addressed through the buffer pool."""

    def __init__(
        self,
        table: str,
        disk: "StableDisk",
        buffer_pool: "BufferPool",
        first_page_id: int,
        bucket_count: int = 8,
    ):
        self.table = table
        self._disk = disk
        self._buffer = buffer_pool
        self.bucket_count = bucket_count
        self._page_ids = list(range(first_page_id, first_page_id + bucket_count))
        self._pinned_keys: dict[Any, int] = {}
        # key -> page id placement memo: the sha256 placement hash is
        # pure per key, and every record access recomputes it otherwise.
        # Invalidated by pin_key_to_page.
        self._placement: dict[Any, int] = {}

    @property
    def page_ids(self) -> list[int]:
        return list(self._page_ids)

    def initialize(self) -> Generator[Any, Any, None]:
        """Create the empty bucket pages on disk (done at table creation)."""
        for page_id in self._page_ids:
            if not self._disk.has_page(page_id):
                yield from self._disk.write_image(Page(page_id, self.table))

    # -- placement ----------------------------------------------------------

    def pin_key_to_page(self, key: Any, bucket_index: int) -> None:
        """Force ``key`` onto bucket ``bucket_index`` (Figure 8 setups)."""
        if not 0 <= bucket_index < self.bucket_count:
            raise ValueError(f"bucket {bucket_index} out of range")
        self._pinned_keys[key] = self._page_ids[bucket_index]
        self._placement.pop(key, None)

    def page_of(self, key: Any) -> int:
        """The page id storing ``key``."""
        page_id = self._placement.get(key)
        if page_id is not None:
            return page_id
        if key in self._pinned_keys:
            page_id = self._pinned_keys[key]
        else:
            page_id = self._page_ids[_stable_hash(key) % self.bucket_count]
        self._placement[key] = page_id
        return page_id

    # -- record access (generators: consume simulated I/O time) ---------------

    def read(self, key: Any) -> Generator[Any, Any, Optional[Any]]:
        """Value stored under ``key`` or ``None``."""
        page = yield from self._buffer.fetch(self.page_of(key))
        return page.get(key)

    def exists(self, key: Any) -> Generator[Any, Any, bool]:
        page = yield from self._buffer.fetch(self.page_of(key))
        return key in page

    def write(self, key: Any, value: Any, lsn: int) -> Generator[Any, Any, None]:
        """Insert or overwrite ``key`` and stamp the page with ``lsn``."""
        page_id = self.page_of(key)
        page = yield from self._buffer.fetch(page_id)
        page.put(key, value, lsn)
        self._buffer.mark_dirty(page_id, lsn)

    def delete(self, key: Any, lsn: int) -> Generator[Any, Any, None]:
        """Remove ``key`` and stamp the page with ``lsn``."""
        page_id = self.page_of(key)
        page = yield from self._buffer.fetch(page_id)
        page.remove(key, lsn)
        self._buffer.mark_dirty(page_id, lsn)

    def scan(self) -> Generator[Any, Any, list[tuple[Any, Any]]]:
        """All (key, value) pairs, in stable key order."""
        rows: list[tuple[Any, Any]] = []
        for page_id in self._page_ids:
            page = yield from self._buffer.fetch(page_id)
            rows.extend(page.records.items())
        rows.sort(key=lambda kv: repr(kv[0]))
        return rows

    def __iter__(self) -> Iterator[int]:
        return iter(self._page_ids)

    def __repr__(self) -> str:
        return f"<HeapFile {self.table} buckets={self.bucket_count}>"
