"""Write-ahead log manager."""

from repro.storage.disk import StableDisk
from repro.storage.wal import (
    BeginRecord,
    CommitRecord,
    LogManager,
    UpdateRecord,
)
from tests.conftest import run


def make_log(kernel):
    disk = StableDisk(kernel, "s")
    return disk, LogManager(disk)


def append_begin(log, txn_id="t1"):
    return log.append(BeginRecord(lsn=log.next_lsn, txn_id=txn_id, prev_lsn=0))


def test_lsns_monotonic_from_one(kernel):
    _, log = make_log(kernel)
    records = [append_begin(log, f"t{i}") for i in range(3)]
    assert [r.lsn for r in records] == [1, 2, 3]


def test_record_at_returns_appended_record(kernel):
    _, log = make_log(kernel)
    record = append_begin(log)
    assert log.record_at(record.lsn) is record


def test_force_moves_tail_to_disk(kernel):
    disk, log = make_log(kernel)
    append_begin(log)
    append_begin(log, "t2")

    def proc():
        yield from log.force()

    run(kernel, proc())
    assert [r.lsn for r in disk.stable_log()] == [1, 2]
    assert log.flushed_lsn == 2
    assert log.tail_records() == []


def test_partial_force_up_to_lsn(kernel):
    disk, log = make_log(kernel)
    for i in range(4):
        append_begin(log, f"t{i}")

    def proc():
        yield from log.force(2)

    run(kernel, proc())
    assert [r.lsn for r in disk.stable_log()] == [1, 2]
    assert [r.lsn for r in log.tail_records()] == [3, 4]


def test_appends_during_a_partial_force_stay_volatile(kernel):
    disk, log = make_log(kernel)
    for i in range(3):
        append_begin(log, f"t{i}")

    def appender():
        append_begin(log, "late")  # while the force's disk write is in flight
        yield 0

    def proc():
        kernel.spawn(appender())
        yield from log.force(2)

    run(kernel, proc())
    assert [r.lsn for r in disk.stable_log()] == [1, 2]
    assert [r.lsn for r in log.tail_records()] == [3, 4]


def test_force_already_flushed_is_noop(kernel):
    disk, log = make_log(kernel)
    append_begin(log)

    def proc():
        yield from log.force()
        before = disk.log_forces
        yield from log.force()  # nothing new
        return before, disk.log_forces

    before, after = run(kernel, proc())
    assert before == after == 1


def test_crash_drops_tail_keeps_stable(kernel):
    disk, log = make_log(kernel)
    append_begin(log, "stable")

    def proc():
        yield from log.force()

    run(kernel, proc())
    append_begin(log, "volatile")
    log.crash()
    assert [r.txn_id for r in disk.stable_log()] == ["stable"]
    assert log.tail_records() == []


def test_rebuild_after_crash_continues_lsns(kernel):
    disk, log = make_log(kernel)
    append_begin(log)
    append_begin(log, "t2")

    def proc():
        yield from log.force()

    run(kernel, proc())
    append_begin(log, "lost")  # never forced
    log.crash()
    log.rebuild_after_crash()
    assert log.next_lsn == 3  # the lost record's LSN is reused
    record = append_begin(log, "after")
    assert record.lsn == 3
    assert log.record_at(1).lsn == 1  # index rebuilt from stable log


def test_update_record_images():
    record = UpdateRecord(
        lsn=1, txn_id="t", prev_lsn=0,
        table="acc", key="x", before=None, after=5, page_id=2,
    )
    assert record.before is None  # insert encoding
    delete = UpdateRecord(
        lsn=2, txn_id="t", prev_lsn=1,
        table="acc", key="x", before=5, after=None, page_id=2,
    )
    assert delete.after is None  # delete encoding


def test_commit_record_chain(kernel):
    _, log = make_log(kernel)
    begin = append_begin(log)
    commit = log.append(
        CommitRecord(lsn=log.next_lsn, txn_id="t1", prev_lsn=begin.lsn)
    )
    assert commit.prev_lsn == begin.lsn
