"""Buffer pool with steal / no-force policy and the WAL rule.

*Steal*: a dirty page may be evicted (flushed) before its transaction
commits -- which is why undo information must be logged.  *No-force*:
commit does not flush pages -- which is why redo information must be
logged.  Before flushing a dirty page the pool forces the log up to the
page's LSN (the write-ahead rule).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional

from repro.storage.page import Page

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.disk import StableDisk
    from repro.storage.wal import LogManager, UpdateRecord


class BufferPool:
    """Fixed-capacity page cache with LRU replacement."""

    def __init__(self, disk: "StableDisk", log: "LogManager", capacity: int = 64):
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self._disk = disk
        self._log = log
        self.capacity = capacity
        self._frames: OrderedDict[int, Page] = OrderedDict()
        self._dirty: set[int] = set()
        # Per dirty page: the LSN of the update that first dirtied it
        # (the recovery LSN) -- log truncation must never pass the
        # minimum of these.
        self._rec_lsn: dict[int, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- fetch -------------------------------------------------------------

    def fetch(self, page_id: int) -> Generator[Any, Any, Page]:
        """Return the in-memory image of ``page_id``, reading on a miss."""
        if page_id in self._frames:
            self.hits += 1
            self._frames.move_to_end(page_id)
            return self._frames[page_id]
        self.misses += 1
        yield from self._make_room()
        page = yield from self._disk.read_page(page_id)
        # A concurrent fetch may have loaded the page while we slept on
        # the disk read; keep the already-resident image in that case.
        if page_id in self._frames:
            self._frames.move_to_end(page_id)
            return self._frames[page_id]
        self._frames[page_id] = page
        return page

    def place(self, table: str, updates: Iterable[UpdateRecord]) -> None:
        """Apply logged inserts into ``table`` with no I/O, in log order.

        For building a pre-existing database: the pool ends as a
        :meth:`fetch` / ``put`` / :meth:`mark_dirty` per update would
        leave it.  The same victims leave in the same order, a dirty
        one after the log covering it is stable; its dropped frame
        becomes its image.  A page with no stable image yet comes in as
        a fresh empty page of ``table``: what ``HeapFile.initialize``
        would have written.
        """
        frames = self._frames
        dirty = self._dirty
        rec_lsn = self._rec_lsn
        log = self._log
        disk = self._disk
        capacity = self.capacity
        for update in updates:
            page_id = update.page_id
            page = frames.get(page_id)
            if page is not None:
                frames.move_to_end(page_id)
            else:
                if len(frames) >= capacity:
                    _, victim = frames.popitem(last=False)  # LRU first
                    if victim.page_id in dirty:
                        if victim.page_lsn > log.flushed_lsn:
                            log.harden(victim.page_lsn)  # the WAL rule
                        disk.install_image(victim)
                        dirty.discard(victim.page_id)
                        rec_lsn.pop(victim.page_id, None)
                page = disk.stable_page(page_id)
                if page is None:
                    page = Page(page_id, table)
                frames[page_id] = page
            lsn = update.lsn
            page.records[update.key] = update.after  # Page.put, inlined
            if lsn > page.page_lsn:
                page.page_lsn = lsn
            if page_id not in dirty:
                dirty.add(page_id)
                rec_lsn[page_id] = lsn

    def mark_dirty(self, page_id: int, lsn: int = 0) -> None:
        """Record that the resident image differs from the disk image.

        ``lsn`` is the log record responsible; the first one becomes
        the page's recovery LSN.
        """
        self._dirty.add(page_id)
        self._rec_lsn.setdefault(page_id, lsn)

    def is_dirty(self, page_id: int) -> bool:
        return page_id in self._dirty

    def min_rec_lsn(self) -> Optional[int]:
        """Oldest recovery LSN over all dirty pages (``None`` if clean)."""
        return min(self._rec_lsn.values()) if self._rec_lsn else None

    def resident(self, page_id: int) -> bool:
        return page_id in self._frames

    # -- eviction / flushing -------------------------------------------------------

    def _make_room(self) -> Generator[Any, Any, None]:
        while len(self._frames) >= self.capacity:
            # OrderedDict iterates LRU-first.
            yield from self._evict(next(iter(self._frames)))

    def _evict(self, page_id: int) -> Generator[Any, Any, None]:
        page = self._frames[page_id]
        if page_id in self._dirty:
            clean = yield from self._write_back(page_id, page)
            if not clean:
                # Re-dirtied while the flush was in flight: the frame
                # holds updates the disk image lacks -- do not evict.
                return
        if page_id in self._frames:
            del self._frames[page_id]
        self.evictions += 1

    def flush_page(self, page_id: int) -> Generator[Any, Any, None]:
        """Write one dirty page back without evicting it."""
        if page_id in self._dirty and page_id in self._frames:
            yield from self._write_back(page_id, self._frames[page_id])

    def _write_back(self, page_id: int, page: Page) -> Generator[Any, Any, bool]:
        """Flush one dirty page; returns True if it ended up clean.

        The write takes simulated time, during which another process
        may update the page; in that case the dirty flag (and recovery
        LSN) must survive, or the concurrent update would be lost.
        """
        stamp = page.page_lsn
        # Freeze the image *now*: updates landing while the force/write
        # below are in flight must not leak onto disk ahead of their
        # own log records (that would break the WAL rule).
        frozen = page.snapshot()
        # WAL rule: the log covering this image must be stable first.
        yield from self._log.force(stamp)
        yield from self._disk.write_image(frozen)
        if page.page_lsn != stamp:
            return False  # re-dirtied mid-flush; stays dirty
        self._dirty.discard(page_id)
        self._rec_lsn.pop(page_id, None)
        return True

    def flush_all(self) -> Generator[Any, Any, None]:
        """Write back every dirty page (checkpoint helper)."""
        for page_id in list(self._dirty):
            yield from self.flush_page(page_id)

    def crash(self) -> None:
        """Lose all volatile frames (site crash)."""
        self._frames.clear()
        self._dirty.clear()
        self._rec_lsn.clear()

    def __repr__(self) -> str:
        return (
            f"<BufferPool {len(self._frames)}/{self.capacity} frames, "
            f"{len(self._dirty)} dirty>"
        )
