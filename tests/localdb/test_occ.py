"""Optimistic (backward-validation) scheduler."""


from repro.errors import TransactionAborted
from repro.localdb.config import LocalDBConfig
from repro.localdb.engine import LocalDatabase
from repro.localdb.txn import LocalAbortReason
from tests.conftest import run


def make_db(kernel):
    db = LocalDatabase(kernel, "occ-site", LocalDBConfig(scheduler="occ"))

    def init():
        yield from db.create_table("t", 4)
        txn = db.begin()
        yield from db.insert(txn, "t", "a", 10)
        yield from db.insert(txn, "t", "b", 20)
        yield from db.commit(txn)

    run(kernel, init())
    return db


def test_basic_commit(kernel):
    db = make_db(kernel)

    def proc():
        txn = db.begin()
        a = yield from db.read(txn, "t", "a")
        yield from db.write(txn, "t", "a", a + 1)
        yield from db.commit(txn)
        check = db.begin()
        value = yield from db.read(check, "t", "a")
        yield from db.commit(check)
        return value

    assert run(kernel, proc()) == 11


def test_reads_own_writes(kernel):
    db = make_db(kernel)

    def proc():
        txn = db.begin()
        yield from db.write(txn, "t", "a", 99)
        value = yield from db.read(txn, "t", "a")
        yield from db.abort(txn)
        return value

    assert run(kernel, proc()) == 99


def test_no_dirty_reads_before_install(kernel):
    db = make_db(kernel)
    observed = {}

    def writer():
        txn = db.begin()
        yield from db.write(txn, "t", "a", 999)
        yield 10  # long think time before commit
        yield from db.commit(txn)

    def reader():
        yield 2
        txn = db.begin()
        value = yield from db.read(txn, "t", "a")
        observed["a"] = value
        yield from db.commit(txn)

    kernel.spawn(writer())
    kernel.spawn(reader())
    kernel.run()
    assert observed["a"] == 10  # workspace writes invisible until commit


def test_validation_failure_on_stale_read(kernel):
    db = make_db(kernel)
    results = {}

    def slow():
        txn = db.begin()
        value = yield from db.read(txn, "t", "a")
        yield 10
        try:
            yield from db.write(txn, "t", "b", value)
            yield from db.commit(txn)
            results["slow"] = "committed"
        except TransactionAborted as exc:
            results["slow"] = exc.reason

    def fast():
        yield 2
        txn = db.begin()
        yield from db.write(txn, "t", "a", 0)
        yield from db.commit(txn)
        results["fast"] = "committed"

    kernel.spawn(slow())
    kernel.spawn(fast())
    kernel.run()
    assert results["fast"] == "committed"
    assert results["slow"] is LocalAbortReason.VALIDATION


def test_disjoint_transactions_both_commit(kernel):
    db = make_db(kernel)
    results = []

    def worker(key):
        txn = db.begin()
        value = yield from db.read(txn, "t", key)
        yield 5
        yield from db.write(txn, "t", key, value * 2)
        yield from db.commit(txn)
        results.append(key)

    kernel.spawn(worker("a"))
    kernel.spawn(worker("b"))
    kernel.run()
    assert sorted(results) == ["a", "b"]


def test_blind_writes_both_commit(kernel):
    """Writers with empty read sets never fail backward validation."""
    db = make_db(kernel)
    committed = []

    def writer(i):
        txn = db.begin()
        yield from db.write(txn, "t", "a", i)
        yield i  # stagger commits
        yield from db.commit(txn)
        committed.append(i)

    kernel.spawn(writer(1))
    kernel.spawn(writer(2))
    kernel.run()
    assert sorted(committed) == [1, 2]


def test_increment_in_occ(kernel):
    db = make_db(kernel)

    def proc():
        txn = db.begin()
        value = yield from db.increment(txn, "t", "a", 5)
        yield from db.commit(txn)
        return value

    assert run(kernel, proc()) == 15


def test_occ_abort_discards_workspace(kernel):
    db = make_db(kernel)

    def proc():
        txn = db.begin()
        yield from db.write(txn, "t", "a", 0)
        yield from db.abort(txn)
        check = db.begin()
        value = yield from db.read(check, "t", "a")
        yield from db.commit(check)
        return value

    assert run(kernel, proc()) == 10


def test_occ_delete_and_insert(kernel):
    db = make_db(kernel)

    def proc():
        txn = db.begin()
        yield from db.delete(txn, "t", "a")
        yield from db.insert(txn, "t", "c", 30)
        yield from db.commit(txn)
        check = db.begin()
        a = yield from db.read(check, "t", "a")
        c = yield from db.read(check, "t", "c")
        yield from db.commit(check)
        return a, c

    assert run(kernel, proc()) == (None, 30)


def test_occ_scan_merges_workspace(kernel):
    db = make_db(kernel)

    def proc():
        txn = db.begin()
        yield from db.write(txn, "t", "c", 30)
        yield from db.delete(txn, "t", "a")
        rows = yield from db.scan(txn, "t")
        yield from db.abort(txn)
        return rows

    assert run(kernel, proc()) == [("b", 20), ("c", 30)]


def test_validation_uses_start_snapshot_boundary(kernel):
    """Writes committed *before* a transaction starts never conflict."""
    db = make_db(kernel)

    def proc():
        t1 = db.begin()
        yield from db.write(t1, "t", "a", 1)
        yield from db.commit(t1)
        t2 = db.begin()  # starts after t1 committed
        yield from db.read(t2, "t", "a")
        yield from db.write(t2, "t", "b", 2)
        yield from db.commit(t2)
        return "ok"

    assert run(kernel, proc()) == "ok"


def read_keys(db, *keys):
    check = db.begin()
    values = []
    for key in keys:
        values.append((yield from db.read(check, "t", key)))
    yield from db.commit(check)
    return tuple(values)


def test_prepared_occ_abort_undoes_installed_writes(kernel):
    """Prepare installs the workspace; an abort after it must undo the
    installed writes through the log, as a 2PL rollback does."""
    db = make_db(kernel)

    def proc():
        txn = db.begin()
        yield from db.write(txn, "t", "a", 99)
        yield from db.delete(txn, "t", "b")
        yield from db.insert(txn, "t", "c", 30)
        yield from db.prepare(txn)
        yield from db.abort(txn)
        return (yield from read_keys(db, "a", "b", "c"))

    assert run(kernel, proc()) == (10, 20, None)
    assert db.aborts[LocalAbortReason.REQUESTED] == 1


def test_in_doubt_occ_abort_after_recovery_undoes_installed_writes(kernel):
    """A prepared optimistic transaction survives a crash in doubt;
    recovery reinstates it, and an abort then undoes its writes."""
    db = make_db(kernel)

    def prepare():
        txn = db.begin(gtxn_id="G1")
        yield from db.write(txn, "t", "a", 55)
        yield from db.prepare(txn)

    run(kernel, prepare())
    db.crash()
    run(kernel, db.restart())
    # Reinstated, in doubt: installed, but no transaction may read it.
    assert db.current_page(db.catalog.heap("t").page_of("a")).get("a") == 55

    def finish():
        yield from db.abort(db.find_by_gtxn("G1"))
        return (yield from read_keys(db, "a", "b"))

    assert run(kernel, finish()) == (10, 20)



def test_an_undone_prepared_write_fails_no_read_taken_before_it(kernel):
    """t2 reads ``a``; t1 writes ``a``, prepares (installing it) and
    aborts.  t2 read the committed value, so it commits, and no write
    set is kept once no running transaction can validate against it."""
    db = make_db(kernel)

    def proc():
        t2 = db.begin()
        a = yield from db.read(t2, "t", "a")
        t1 = db.begin()
        yield from db.write(t1, "t", "a", 99)
        yield from db.prepare(t1)
        yield from db.abort(t1)
        yield from db.write(t2, "t", "b", a)
        yield from db.commit(t2)
        return (yield from read_keys(db, "a", "b"))

    assert run(kernel, proc()) == (10, 10)
    assert db.aborts[LocalAbortReason.VALIDATION] == 0
    assert not db._held


def _read_of_undone_install(kernel, reader_begins_first):
    """t1 writes ``a=99`` and prepares; t2 reads ``a`` (99); t1 aborts;
    t2 writes ``b`` from what it read and tries to commit."""
    db = make_db(kernel)

    def proc():
        t2 = db.begin() if reader_begins_first else None
        t1 = db.begin()
        yield from db.write(t1, "t", "a", 99)
        yield from db.prepare(t1)
        t2 = t2 or db.begin()
        a = yield from db.read(t2, "t", "a")
        yield from db.abort(t1)
        yield from db.write(t2, "t", "b", a)
        try:
            yield from db.commit(t2)
        except TransactionAborted as exc:
            return a, exc.reason, (yield from read_keys(db, "a", "b"))

    return db, run(kernel, proc())


def test_a_read_of_an_undone_install_fails_validation(kernel):
    db, outcome = _read_of_undone_install(kernel, reader_begins_first=True)
    assert outcome == (99, LocalAbortReason.VALIDATION, (10, 20))
    assert not db._held


def test_a_read_of_an_undone_install_fails_validation_if_begun_after_it(kernel):
    """The reader began after t1's install ended, so t1's install is
    not above its start; the undo is."""
    db, outcome = _read_of_undone_install(kernel, reader_begins_first=False)
    assert outcome == (99, LocalAbortReason.VALIDATION, (10, 20))
    assert not db._held


def _reread_after_undone_install(kernel, rewrite_a):
    """t1 writes ``a=99`` and prepares; t2 reads ``a`` (99) and writes
    from it; t1 aborts; t2 reads ``a`` again and tries to commit.  The
    re-read (of the restored 10, or of t2's own workspace) does not
    erase the first read of the undone 99."""
    db = make_db(kernel)

    def proc():
        t1 = db.begin()
        yield from db.write(t1, "t", "a", 99)
        yield from db.prepare(t1)
        t2 = db.begin()
        a = yield from db.read(t2, "t", "a")
        yield from db.write(t2, "t", "a" if rewrite_a else "b", a + 1)
        yield from db.abort(t1)
        again = yield from db.read(t2, "t", "a")
        try:
            yield from db.commit(t2)
        except TransactionAborted as exc:
            return a, again, exc.reason, (yield from read_keys(db, "a", "b"))

    return db, run(kernel, proc())


def test_a_reread_does_not_hide_a_read_of_an_undone_install(kernel):
    db, outcome = _reread_after_undone_install(kernel, rewrite_a=False)
    assert outcome == (99, 10, LocalAbortReason.VALIDATION, (10, 20))
    assert not db._held


def test_a_reread_of_the_own_workspace_does_not_hide_an_undone_install(kernel):
    db, outcome = _reread_after_undone_install(kernel, rewrite_a=True)
    assert outcome == (99, 100, LocalAbortReason.VALIDATION, (10, 20))
    assert not db._held


def test_committed_write_sets_do_not_outlive_their_readers(kernel):
    """No write set is kept: a key keeps its last install's number."""
    db = make_db(kernel)

    def proc():
        for value in range(5):
            txn = db.begin()
            yield from db.write(txn, "t", "a", value)
            yield from db.commit(txn)
        assert not db._held
        reader = db.begin()
        yield from db.read(reader, "t", "a")
        writer = db.begin()
        yield from db.write(writer, "t", "a", 7)
        yield from db.commit(writer)
        assert db._last_write[("t", "a")] > reader.start_commit_seq
        yield from db.write(reader, "t", "b", 0)
        try:
            yield from db.commit(reader)
        except TransactionAborted as exc:
            return exc.reason

    assert run(kernel, proc()) is LocalAbortReason.VALIDATION
    assert not db._held


def test_a_read_of_an_undecided_prepared_install_fails_validation(kernel):
    """t1 writes ``a=99`` and prepares; t2 begins after that, reads
    ``a``, writes ``b`` from it and commits while t1 is still in doubt.
    That is a dirty read, so t2 fails validation, and t1's abort leaves
    no 99 anywhere."""
    db = make_db(kernel)

    def proc():
        t1 = db.begin()
        yield from db.write(t1, "t", "a", 99)
        yield from db.prepare(t1)
        t2 = db.begin()
        a = yield from db.read(t2, "t", "a")
        yield from db.write(t2, "t", "b", a)
        try:
            yield from db.commit(t2)
            reason = None
        except TransactionAborted as exc:
            reason = exc.reason
        yield from db.abort(t1)
        return a, reason, (yield from read_keys(db, "a", "b"))

    assert run(kernel, proc()) == (99, LocalAbortReason.VALIDATION, (10, 20))
    assert not db._held


def test_a_committed_prepared_install_stops_conflicting(kernel):
    """Once the prepared writer commits, its install is an ordinary
    committed write: a reader that begins afterwards commits."""
    db = make_db(kernel)

    def proc():
        t1 = db.begin()
        yield from db.write(t1, "t", "a", 99)
        yield from db.prepare(t1)
        yield from db.commit(t1)
        return (yield from read_keys(db, "a"))

    assert run(kernel, proc()) == (99,)
    assert db.aborts[LocalAbortReason.VALIDATION] == 0


def test_a_reinstated_in_doubt_install_stays_isolated(kernel):
    """A crash empties the transaction table; restart rebuilds the
    reinstated in-doubt transaction's install, so a read of its keys
    still fails validation until the decision, and none after."""
    db = make_db(kernel)

    def prepare():
        txn = db.begin(gtxn_id="G1")
        yield from db.write(txn, "t", "a", 55)
        yield from db.prepare(txn)

    run(kernel, prepare())
    db.crash()
    run(kernel, db.restart())

    def dirty_read():
        try:
            return (yield from read_keys(db, "a"))
        except TransactionAborted as exc:
            return exc.reason

    assert run(kernel, dirty_read()) is LocalAbortReason.VALIDATION
    run(kernel, db.commit(db.find_by_gtxn("G1")))
    assert run(kernel, read_keys(db, "a")) == (55,)


def test_a_blind_write_over_an_undecided_prepared_install_fails_validation(kernel):
    """t1 writes ``a=99`` and prepares; t2 overwrites ``a`` without
    reading it.  Committing t2 would let t1's abort restore ``a=10``
    over t2's committed write, so t2 fails validation instead."""
    db = make_db(kernel)

    def proc():
        t1 = db.begin()
        yield from db.write(t1, "t", "a", 99)
        yield from db.prepare(t1)
        t2 = db.begin()
        yield from db.write(t2, "t", "a", 5)
        try:
            yield from db.commit(t2)
            reason = None
        except TransactionAborted as exc:
            reason = exc.reason
        yield from db.abort(t1)
        return reason, (yield from read_keys(db, "a"))

    assert run(kernel, proc()) == (LocalAbortReason.VALIDATION, (10,))
    assert db.undo_clobbers == []


def test_a_read_of_the_value_a_rollback_restored_commits(kernel):
    """t2 begins while t1's prepared install of ``a=99`` is undecided;
    t1 aborts, and only then t2 reads ``a``.  t2 read the restored 10,
    which is the committed value, so it commits."""
    db = make_db(kernel)

    def proc():
        t1 = db.begin()
        yield from db.write(t1, "t", "a", 99)
        yield from db.prepare(t1)
        t2 = db.begin()
        yield from db.abort(t1)
        a = yield from db.read(t2, "t", "a")
        yield from db.write(t2, "t", "b", a + 1)
        yield from db.commit(t2)
        return (yield from read_keys(db, "a", "b"))

    assert run(kernel, proc()) == (10, 11)
    assert db.aborts[LocalAbortReason.VALIDATION] == 0
    assert not db._held


def test_a_read_before_an_install_aborted_part_way_commits(kernel):
    """t2 reads ``a``; t1's commit starts installing ``a=99`` and is
    aborted while it reads the page from disk, before its write lands.
    t2 read the value that is still committed, so it commits."""
    db = LocalDatabase(kernel, "occ-site", LocalDBConfig(scheduler="occ", buffer_capacity=1))

    def init():
        yield from db.create_table("t", 4)
        txn = db.begin()
        yield from db.insert(txn, "t", "a", 10)
        yield from db.insert(txn, "t", "b", 20)
        yield from db.commit(txn)

    run(kernel, init())
    heap = db.catalog.heap("t")
    assert heap.page_of("a") != heap.page_of("b")

    def writer(t1):
        yield from db.write(t1, "t", "a", 99)
        try:
            yield from db.commit(t1)
        except TransactionAborted as exc:
            return exc.reason

    def proc():
        t2 = db.begin()
        a = yield from db.read(t2, "t", "a")
        yield from db.read(t2, "t", "b")  # evicts the page of ``a``
        t1 = db.begin()
        install = kernel.spawn(writer(t1))
        for _ in range(100):
            if t1.last_lsn:  # the install logged its begin
                break
            yield 0.01
        assert not db.buffer.resident(heap.page_of("a"))
        yield db.force_abort(t1.txn_id, LocalAbortReason.SYSTEM)
        reason = yield install
        yield from db.write(t2, "t", "b", a + 1)
        yield from db.commit(t2)
        return reason, (yield from read_keys(db, "a", "b"))

    assert run(kernel, proc()) == (LocalAbortReason.SYSTEM, (10, 11))
    assert db.aborts[LocalAbortReason.VALIDATION] == 0
    assert not db._held


def test_the_validator_keeps_one_entry_per_key_written(kernel):
    """A reader stays running across 300 commits to ``a``: the
    validator keeps one sequence number for ``a``, not 300 write sets,
    and the reader still fails validation."""
    db = make_db(kernel)

    def proc():
        reader = db.begin()
        yield from db.read(reader, "t", "b")
        yield from db.read(reader, "t", "a")
        for value in range(300):
            txn = db.begin()
            yield from db.write(txn, "t", "a", value)
            yield from db.commit(txn)
        yield from db.write(reader, "t", "b", 0)
        try:
            yield from db.commit(reader)
        except TransactionAborted as exc:
            return exc.reason

    assert run(kernel, proc()) is LocalAbortReason.VALIDATION
    assert sorted(db._last_write) == [("t", "a"), ("t", "b")]
    assert not db._held
