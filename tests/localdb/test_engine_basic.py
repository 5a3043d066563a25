"""Local engine: CRUD, transactions, commit/abort semantics."""

import pytest

from repro.core.serializability import OpRecord
from repro.errors import (
    DuplicateKey,
    InvalidTransactionState,
    KeyNotFound,
    UnknownTable,
)
from repro.localdb.engine import LocalDatabase
from repro.localdb.txn import LocalAbortReason, LocalTxnState
from tests.conftest import run


@pytest.fixture
def db(kernel):
    engine = LocalDatabase(kernel, "site")
    run(kernel, engine.create_table("t", 4))
    return engine


def commit_rows(kernel, db, rows):
    def proc():
        txn = db.begin()
        for key, value in rows.items():
            yield from db.insert(txn, "t", key, value)
        yield from db.commit(txn)

    run(kernel, proc())


def test_insert_read_roundtrip(kernel, db):
    commit_rows(kernel, db, {"k": 10})

    def proc():
        txn = db.begin()
        value = yield from db.read(txn, "t", "k")
        yield from db.commit(txn)
        return value

    assert run(kernel, proc()) == 10


def test_read_missing_returns_none(kernel, db):
    def proc():
        txn = db.begin()
        value = yield from db.read(txn, "t", "nope")
        yield from db.commit(txn)
        return value

    assert run(kernel, proc()) is None


def test_write_is_upsert(kernel, db):
    def proc():
        txn = db.begin()
        yield from db.write(txn, "t", "k", 1)
        yield from db.write(txn, "t", "k", 2)
        yield from db.commit(txn)
        txn2 = db.begin()
        value = yield from db.read(txn2, "t", "k")
        yield from db.commit(txn2)
        return value

    assert run(kernel, proc()) == 2


def test_duplicate_insert_rejected_txn_survives(kernel, db):
    commit_rows(kernel, db, {"k": 1})

    def proc():
        txn = db.begin()
        try:
            yield from db.insert(txn, "t", "k", 2)
        except DuplicateKey:
            pass
        # Logic errors do not kill the transaction.
        yield from db.write(txn, "t", "other", 5)
        yield from db.commit(txn)
        return txn.state

    assert run(kernel, proc()) is LocalTxnState.COMMITTED


def test_delete_missing_key_rejected(kernel, db):
    def proc():
        txn = db.begin()
        try:
            yield from db.delete(txn, "t", "nope")
        except KeyNotFound:
            yield from db.abort(txn)
            return "keynotfound"

    assert run(kernel, proc()) == "keynotfound"


def test_increment_returns_new_value(kernel, db):
    commit_rows(kernel, db, {"c": 10})

    def proc():
        txn = db.begin()
        value = yield from db.increment(txn, "t", "c", -3)
        yield from db.commit(txn)
        return value

    assert run(kernel, proc()) == 7


def test_increment_missing_key_rejected(kernel, db):
    def proc():
        txn = db.begin()
        try:
            yield from db.increment(txn, "t", "ghost", 1)
        except KeyNotFound:
            yield from db.abort(txn)
            return "missing"

    assert run(kernel, proc()) == "missing"


def test_abort_undoes_everything(kernel, db):
    commit_rows(kernel, db, {"a": 1, "b": 2})

    def proc():
        txn = db.begin()
        yield from db.write(txn, "t", "a", 100)
        yield from db.delete(txn, "t", "b")
        yield from db.insert(txn, "t", "c", 3)
        yield from db.increment(txn, "t", "a", 5)
        yield from db.abort(txn)
        check = db.begin()
        a = yield from db.read(check, "t", "a")
        b = yield from db.read(check, "t", "b")
        c = yield from db.read(check, "t", "c")
        yield from db.commit(check)
        return a, b, c

    assert run(kernel, proc()) == (1, 2, None)


def test_operations_after_commit_rejected(kernel, db):
    def proc():
        txn = db.begin()
        yield from db.commit(txn)
        yield from db.read(txn, "t", "k")

    with pytest.raises(InvalidTransactionState):
        run(kernel, proc())


def test_unknown_table_rejected(kernel, db):
    def proc():
        txn = db.begin()
        yield from db.read(txn, "ghost_table", "k")

    with pytest.raises(UnknownTable):
        run(kernel, proc())


def test_scan_sees_committed_rows(kernel, db):
    commit_rows(kernel, db, {"a": 1, "b": 2, "c": 3})

    def proc():
        txn = db.begin()
        rows = yield from db.scan(txn, "t")
        yield from db.commit(txn)
        return rows

    assert run(kernel, proc()) == [("a", 1), ("b", 2), ("c", 3)]


def test_commit_forces_log(kernel, db):
    forces_before = db.disk.log_forces

    def proc():
        txn = db.begin()
        yield from db.write(txn, "t", "k", 1)
        yield from db.commit(txn)

    run(kernel, proc())
    assert db.disk.log_forces == forces_before + 1


def test_abort_does_not_force_log(kernel, db):
    def proc():
        txn = db.begin()
        yield from db.write(txn, "t", "k", 1)
        before = db.disk.log_forces
        yield from db.abort(txn)
        return before

    before = run(kernel, proc())
    assert db.disk.log_forces == before


def test_metrics_counters(kernel, db):
    commit_rows(kernel, db, {"k": 1})

    def proc():
        txn = db.begin()
        yield from db.read(txn, "t", "k")
        yield from db.abort(txn)

    run(kernel, proc())
    metrics = db.metrics()
    assert metrics["commits"] == 1
    assert metrics["aborts"] == {"requested": 1}
    assert metrics["ops"] >= 2


def test_gtxn_id_attached(kernel, db):
    txn = db.begin(gtxn_id="G1")
    assert txn.gtxn_id == "G1"
    assert db.find_by_gtxn("G1") is txn
    assert db.find_by_gtxn("G2") is None


def test_abort_reason_classification():
    assert not LocalAbortReason.REQUESTED.erroneous
    for reason in (
        LocalAbortReason.DEADLOCK,
        LocalAbortReason.TIMEOUT,
        LocalAbortReason.VALIDATION,
        LocalAbortReason.CRASH,
        LocalAbortReason.SYSTEM,
    ):
        assert reason.erroneous


def test_op_record_is_a_value():
    """Keyword construction, field equality, hash and the dataclass repr."""
    fields = dict(seq=3, txn_id="s:t1", gtxn_id="T1", kind="write", table="t", key="a")
    record = OpRecord(**fields)
    assert record == OpRecord(3, "s:t1", "T1", "write", "t", "a")
    assert hash(record) == hash(OpRecord(**fields))
    assert record != OpRecord(**{**fields, "key": "b"})
    assert record != tuple(fields.values())
    assert len({record, OpRecord(**fields)}) == 1
    assert repr(record) == (
        "OpRecord(seq=3, txn_id='s:t1', gtxn_id='T1', kind='write', table='t', key='a')"
    )
    assert record.writes and not OpRecord(**{**fields, "kind": "read"}).writes
    assert (record.node(by_gtxn=False), record.node(by_gtxn=True)) == ("s:t1", "T1")
    assert OpRecord(**{**fields, "gtxn_id": None}).node(by_gtxn=True) == "s:t1"
