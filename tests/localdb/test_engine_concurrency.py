"""Concurrent transactions against one engine: 2PL behaviour."""

import pytest

from repro.errors import TransactionAborted
from repro.localdb.config import LocalDBConfig
from repro.localdb.engine import LocalDatabase
from repro.localdb.txn import LocalAbortReason
from tests.conftest import run


def setup_db(kernel, **config_kwargs):
    db = LocalDatabase(kernel, "site", LocalDBConfig(**config_kwargs))

    def init():
        yield from db.create_table("t", 2)
        db.pin_key("t", "x", 0)
        db.pin_key("t", "y", 0)  # same page as x
        db.pin_key("t", "z", 1)
        txn = db.begin()
        for key in ("x", "y", "z"):
            yield from db.insert(txn, "t", key, 0)
        yield from db.commit(txn)

    run(kernel, init())
    return db


def test_writers_on_same_page_serialize(kernel):
    db = setup_db(kernel)
    timeline = []

    def writer(name, key):
        txn = db.begin()
        yield from db.write(txn, "t", key, name)
        timeline.append((name, "wrote", kernel.now))
        yield 5
        yield from db.commit(txn)
        timeline.append((name, "committed", kernel.now))

    kernel.spawn(writer("w1", "x"))
    kernel.spawn(writer("w2", "y"))  # same page -> must wait for w1
    kernel.run()
    w1_commit = next(t for n, e, t in timeline if n == "w1" and e == "committed")
    w2_write = next(t for n, e, t in timeline if n == "w2" and e == "wrote")
    assert w2_write >= w1_commit


def test_writers_on_different_pages_overlap(kernel):
    db = setup_db(kernel)
    writes = {}

    def writer(name, key):
        txn = db.begin()
        yield from db.write(txn, "t", key, name)
        writes[name] = kernel.now
        yield 5
        yield from db.commit(txn)

    kernel.spawn(writer("w1", "x"))
    kernel.spawn(writer("w2", "z"))  # different page: no blocking
    kernel.run()
    assert abs(writes["w1"] - writes["w2"]) < 5


def test_readers_share_page(kernel):
    db = setup_db(kernel)
    reads = {}

    def reader(name):
        txn = db.begin()
        yield from db.read(txn, "t", "x")
        reads[name] = kernel.now
        yield 5
        yield from db.commit(txn)

    kernel.spawn(reader("r1"))
    kernel.spawn(reader("r2"))
    kernel.run()
    assert abs(reads["r1"] - reads["r2"]) < 1


def test_deadlock_victim_rolled_back_automatically(kernel):
    db = setup_db(kernel, lock_timeout=None)
    results = {}

    def worker(name, first, second):
        txn = db.begin()
        try:
            yield from db.write(txn, "t", first, name)
            yield 2
            yield from db.write(txn, "t", second, name)
            yield from db.commit(txn)
            results[name] = "committed"
        except TransactionAborted as exc:
            results[name] = exc.reason

    kernel.spawn(worker("a", "x", "z"))
    kernel.spawn(worker("b", "z", "x"))
    kernel.run()
    assert sorted(str(v) for v in results.values()) == [
        "LocalAbortReason.DEADLOCK", "committed",
    ]
    # Victim's changes must be gone; winner's visible.
    def check():
        txn = db.begin()
        x = yield from db.read(txn, "t", "x")
        z = yield from db.read(txn, "t", "z")
        yield from db.commit(txn)
        return x, z

    x, z = run(kernel, check())
    winner = next(k for k, v in results.items() if v == "committed")
    assert x == winner and z == winner


def test_lock_timeout_aborts_waiter(kernel):
    db = setup_db(kernel, lock_timeout=5)
    results = {}

    def holder():
        txn = db.begin()
        yield from db.write(txn, "t", "x", 1)
        yield 50
        yield from db.commit(txn)

    def waiter():
        yield 1
        txn = db.begin()
        try:
            yield from db.write(txn, "t", "x", 2)
        except TransactionAborted as exc:
            results["reason"] = exc.reason

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.run()
    assert results["reason"] is LocalAbortReason.TIMEOUT


def test_force_abort_running_txn(kernel):
    db = setup_db(kernel)

    def victim():
        txn = db.begin()
        yield from db.write(txn, "t", "x", 99)
        db.force_abort(txn.txn_id, LocalAbortReason.SYSTEM)
        yield 5  # let the abort land
        return txn

    txn = run(kernel, victim())
    assert txn.abort_reason is LocalAbortReason.SYSTEM

    def check():
        check_txn = db.begin()
        x = yield from db.read(check_txn, "t", "x")
        yield from db.commit(check_txn)
        return x

    assert run(kernel, check()) == 0


def test_force_abort_waiting_txn_cancels_wait(kernel):
    db = setup_db(kernel, lock_timeout=None)
    results = {}

    def holder():
        txn = db.begin()
        yield from db.write(txn, "t", "x", 1)
        yield 50
        yield from db.commit(txn)

    def waiter():
        yield 1
        txn = db.begin()
        results["txn_id"] = txn.txn_id
        try:
            yield from db.write(txn, "t", "x", 2)
        except TransactionAborted:
            results["aborted_at"] = kernel.now

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.call_at(
        10, lambda: db.force_abort(results["txn_id"], LocalAbortReason.SYSTEM)
    )
    kernel.run()
    assert results["aborted_at"] == pytest.approx(10.0)


def test_force_abort_committed_txn_is_noop(kernel):
    db = setup_db(kernel)

    def proc():
        txn = db.begin()
        yield from db.write(txn, "t", "x", 42)
        yield from db.commit(txn)
        db.force_abort(txn.txn_id, LocalAbortReason.SYSTEM)
        yield 2
        check = db.begin()
        x = yield from db.read(check, "t", "x")
        yield from db.commit(check)
        return x

    assert run(kernel, proc()) == 42


def test_strict_2pl_no_dirty_reads(kernel):
    db = setup_db(kernel)
    observed = {}

    def writer():
        txn = db.begin()
        yield from db.write(txn, "t", "x", 99)
        yield 10
        yield from db.abort(txn)

    def reader():
        yield 1
        txn = db.begin()
        value = yield from db.read(txn, "t", "x")
        observed["x"] = value
        yield from db.commit(txn)

    kernel.spawn(writer())
    kernel.spawn(reader())
    kernel.run()
    # The reader blocked until the writer aborted: it saw the old value.
    assert observed["x"] == 0
