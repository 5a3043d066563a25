"""Buffer pool: LRU, steal/no-force, WAL rule."""

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.disk import StableDisk
from repro.storage.page import Page
from repro.storage.wal import BeginRecord, LogManager, UpdateRecord
from tests.conftest import run


def make_pool(kernel, capacity=2):
    disk = StableDisk(kernel, "s")
    log = LogManager(disk)
    return disk, log, BufferPool(disk, log, capacity=capacity)


def seed_pages(kernel, disk, n):
    def proc():
        for i in range(n):
            yield from disk.write_page(Page(i, "t"))

    run(kernel, proc())


def test_fetch_miss_then_hit(kernel):
    disk, _, pool = make_pool(kernel)
    seed_pages(kernel, disk, 1)

    def proc():
        yield from pool.fetch(0)
        yield from pool.fetch(0)
        return pool.hits, pool.misses

    assert run(kernel, proc()) == (1, 1)


def test_lru_eviction_of_clean_page(kernel):
    disk, _, pool = make_pool(kernel, capacity=2)
    seed_pages(kernel, disk, 3)

    def proc():
        yield from pool.fetch(0)
        yield from pool.fetch(1)
        yield from pool.fetch(2)  # evicts page 0 (LRU)
        return pool.resident(0), pool.resident(1), pool.resident(2)

    assert run(kernel, proc()) == (False, True, True)


def test_fetch_refreshes_lru_position(kernel):
    disk, _, pool = make_pool(kernel, capacity=2)
    seed_pages(kernel, disk, 3)

    def proc():
        yield from pool.fetch(0)
        yield from pool.fetch(1)
        yield from pool.fetch(0)  # page 0 becomes most recent
        yield from pool.fetch(2)  # evicts page 1
        return pool.resident(0), pool.resident(1)

    assert run(kernel, proc()) == (True, False)


def test_dirty_eviction_writes_back(kernel):
    disk, _, pool = make_pool(kernel, capacity=1)
    seed_pages(kernel, disk, 2)

    def proc():
        page = yield from pool.fetch(0)
        page.put("k", "dirty", lsn=0)
        pool.mark_dirty(0)
        yield from pool.fetch(1)  # forces eviction of dirty page 0
        stable = disk.stable_page(0)
        return stable.get("k")

    assert run(kernel, proc()) == "dirty"


def test_wal_rule_forces_log_before_flush(kernel):
    disk, log, pool = make_pool(kernel, capacity=1)
    seed_pages(kernel, disk, 2)

    def proc():
        log.append(lambda lsn: BeginRecord(lsn=lsn, txn_id="t", prev_lsn=0))
        record = log.append(
            lambda lsn: UpdateRecord(
                lsn=lsn, txn_id="t", prev_lsn=1,
                table="t", key="k", before=None, after=1, page_id=0,
            )
        )
        page = yield from pool.fetch(0)
        page.put("k", 1, record.lsn)
        pool.mark_dirty(0)
        yield from pool.fetch(1)  # eviction must force the log first
        return log.flushed_lsn >= record.lsn

    assert run(kernel, proc()) is True


def test_flush_all_cleans_dirty_set(kernel):
    disk, _, pool = make_pool(kernel, capacity=4)
    seed_pages(kernel, disk, 3)

    def proc():
        for i in range(3):
            page = yield from pool.fetch(i)
            page.put("k", i, lsn=0)
            pool.mark_dirty(i)
        yield from pool.flush_all()
        return [disk.stable_page(i).get("k") for i in range(3)]

    assert run(kernel, proc()) == [0, 1, 2]
    assert not any(pool.is_dirty(i) for i in range(3))


def test_crash_clears_frames(kernel):
    disk, _, pool = make_pool(kernel, capacity=4)
    seed_pages(kernel, disk, 2)

    def proc():
        page = yield from pool.fetch(0)
        page.put("k", "volatile", lsn=0)
        pool.mark_dirty(0)

    run(kernel, proc())
    pool.crash()
    assert not pool.resident(0)
    assert disk.stable_page(0).get("k") is None  # never flushed


def test_capacity_must_be_positive(kernel):
    disk = StableDisk(kernel, "s")
    log = LogManager(disk)
    with pytest.raises(ValueError):
        BufferPool(disk, log, capacity=0)


def test_stored_page_never_aliases_the_buffered_one(kernel):
    """A flush copies the page once (the pool's frozen image is handed
    to the disk as is) and a read copies it once; neither direction may
    leave the stable image sharing state with a buffered frame -- for
    scalar rows (copied by value) or mutable ones (deep-copied)."""
    disk, _, pool = make_pool(kernel, capacity=2)
    seed_pages(kernel, disk, 1)

    def proc():
        page = yield from pool.fetch(0)
        page.put("scalar", 1, lsn=0)
        page.put("marker", {"before": [1]}, lsn=0)
        pool.mark_dirty(0)
        yield from pool.flush_page(0)
        # Mutate the buffered frame after the flush ...
        page.put("scalar", 2, lsn=0)
        page.get("marker")["before"].append(2)
        stable = disk.stable_page(0)
        after_flush = (stable.get("scalar"), stable.get("marker"))
        # ... and a re-read image after the read.
        reread = yield from disk.read_page(0)
        reread.put("scalar", 3, lsn=0)
        reread.get("marker")["before"].append(3)
        stable = disk.stable_page(0)
        return after_flush, (stable.get("scalar"), stable.get("marker"))

    expected = (1, {"before": [1]})
    assert run(kernel, proc()) == (expected, expected)


def test_flush_copies_the_page_exactly_once(kernel, monkeypatch):
    disk, _, pool = make_pool(kernel, capacity=2)
    seed_pages(kernel, disk, 1)
    snapshots = []
    original = Page.snapshot
    monkeypatch.setattr(
        Page, "snapshot", lambda self: snapshots.append(self.page_id) or original(self)
    )

    def proc():
        page = yield from pool.fetch(0)
        page.put("k", 1, lsn=0)
        pool.mark_dirty(0)
        del snapshots[:]
        yield from pool.flush_page(0)

    run(kernel, proc())
    assert snapshots == [0]
