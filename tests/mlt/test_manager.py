"""Two-level transactions (Figure 8 semantics) and the flat baseline.

The two-level manager is the n-level executor with one semantic level
above the engine: ``NestedTransactionManager(kernel, db, [bottom_level()])``.
"""

from repro.core.serializability import OpRecord
from repro.localdb.engine import LocalDatabase
from repro.mlt.actions import delete, increment, read, write
from repro.mlt.conflicts import READ_WRITE_TABLE, SEMANTIC_TABLE
from repro.mlt.nested import NestedTransactionManager, SingleLevelManager, bottom_level
from repro.mlt.theory import check_l0, check_l1
from tests.conftest import run


def make_engine(kernel):
    db = LocalDatabase(kernel, "store")

    def init():
        yield from db.create_table("obj", 2)
        db.pin_key("obj", "x", 0)
        db.pin_key("obj", "y", 0)  # Figure 8: x and y share page p
        txn = db.begin()
        yield from db.insert(txn, "obj", "x", 0)
        yield from db.insert(txn, "obj", "y", 0)
        yield from db.commit(txn)

    run(kernel, init())
    return db


def two_level(kernel, db, conflicts=SEMANTIC_TABLE):
    return NestedTransactionManager(kernel, db, [bottom_level(conflicts=conflicts)])


def read_value(kernel, db, key):
    def proc():
        txn = db.begin()
        value = yield from db.read(txn, "obj", key)
        yield from db.commit(txn)
        return value

    return run(kernel, proc())


def test_committed_increments_apply(kernel):
    db = make_engine(kernel)
    mgr = two_level(kernel, db)
    result = run(kernel, mgr.run("T1", [increment("obj", "x", 3), increment("obj", "y", 2)]))
    assert result.committed
    assert read_value(kernel, db, "x") == 3
    assert read_value(kernel, db, "y") == 2


def test_figure8_concurrent_increments_on_same_object(kernel):
    """Both T1 and T2 hold increment locks on x concurrently (Figure 8)."""
    db = make_engine(kernel)
    mgr = two_level(kernel, db)
    overlap = {}

    def t1():
        result = yield from mgr.run("T1", [increment("obj", "x", 1), increment("obj", "y", 1)])
        overlap["T1"] = result.committed

    def t2():
        result = yield from mgr.run("T2", [increment("obj", "x", 1)])
        overlap["T2"] = result.committed

    kernel.spawn(t1())
    kernel.spawn(t2())
    kernel.run()
    assert overlap == {"T1": True, "T2": True}
    assert read_value(kernel, db, "x") == 2
    assert read_value(kernel, db, "y") == 1
    assert check_l0(db).serializable
    assert mgr.serializable(committed={"T1", "T2"})


def test_intended_abort_undoes_by_inverse_actions(kernel):
    db = make_engine(kernel)
    mgr = two_level(kernel, db)
    result = run(
        kernel,
        mgr.run("T1", [increment("obj", "x", 5), increment("obj", "y", 7)], abort_after=2),
    )
    assert not result.committed
    assert result.abort_reason == "intended"
    assert result.inverse_actions == 2
    assert read_value(kernel, db, "x") == 0
    assert read_value(kernel, db, "y") == 0


def test_undo_preserves_other_transactions_increment(kernel):
    """The Figure 8 recovery argument: undoing T1 by decrement must not
    destroy T2's interleaved increment (page-image undo would)."""
    db = make_engine(kernel)
    mgr = two_level(kernel, db)

    def t1():
        yield from mgr.run(
            "T1", [increment("obj", "x", 10), increment("obj", "y", 1)], abort_after=2
        )

    def t2():
        yield 0.5  # land between T1's actions
        yield from mgr.run("T2", [increment("obj", "x", 100)])

    kernel.spawn(t1())
    kernel.spawn(t2())
    kernel.run()
    assert read_value(kernel, db, "x") == 100  # T2 survives T1's undo


def test_partial_execution_abort(kernel):
    db = make_engine(kernel)
    mgr = two_level(kernel, db)
    result = run(
        kernel,
        mgr.run("T1", [increment("obj", "x", 5), increment("obj", "y", 7)], abort_after=1),
    )
    # One forward action on x, then its inverse; y was never touched.
    assert [(r.txn_id, r.kind, r.table, r.key) for r in mgr.histories[0]] == [
        ("T1", "increment", "obj", "x"), ("T1", "increment", "obj", "x"),
    ]
    assert result.inverse_actions == 1
    assert read_value(kernel, db, "x") == 0
    assert read_value(kernel, db, "y") == 0


def test_reads_collected(kernel):
    db = make_engine(kernel)
    mgr = two_level(kernel, db)
    result = run(kernel, mgr.run("T1", [increment("obj", "x", 4), read("obj", "x")]))
    assert result.reads == {"obj['x']": 4}


def test_inverse_actions_recorded_in_history(kernel):
    db = make_engine(kernel)
    mgr = two_level(kernel, db)
    run(kernel, mgr.run("T1", [increment("obj", "x", 5)], abort_after=1))
    kinds = [(record.txn_id, record.kind) for record in mgr.histories[0]]
    assert kinds == [("T1", "increment"), ("T1", "increment")]  # fwd + inverse


def test_rw_conflict_table_blocks_concurrent_increments(kernel):
    """Ablation: without commutativity the increments serialize."""
    db = make_engine(kernel)
    mgr = two_level(kernel, db, conflicts=READ_WRITE_TABLE)
    times = {}

    def t(name, delay):
        yield delay
        start = kernel.now
        yield from mgr.run(name, [increment("obj", "x", 1)])
        times[name] = (start, kernel.now)

    kernel.spawn(t("T1", 0))
    kernel.spawn(t("T2", 0.1))
    kernel.run()
    # T2 could not start its increment before T1 finished.
    assert times["T2"][1] > times["T1"][1]


def test_single_level_manager_commits(kernel):
    db = make_engine(kernel)
    mgr = SingleLevelManager(kernel, db)
    result = run(kernel, mgr.run("T1", [increment("obj", "x", 5), write("obj", "y", 9)]))
    assert result.committed
    assert read_value(kernel, db, "x") == 5
    assert read_value(kernel, db, "y") == 9


def test_single_level_blocks_on_shared_page(kernel):
    """Flat transactions hold page locks to the end: no Figure 8 overlap."""
    db = make_engine(kernel)
    mgr = SingleLevelManager(kernel, db)
    times = {}

    def t(name, key, delay):
        yield delay
        yield from mgr.run(name, [increment("obj", key, 1)], abort_after=None)
        times[name] = kernel.now

    def slow():
        txn = db.begin()
        yield from db.increment(txn, "obj", "x", 1)
        yield 20  # hold the page lock
        yield from db.commit(txn)
        times["slow"] = kernel.now

    kernel.spawn(slow())
    kernel.spawn(t("T2", "y", 1))  # same page as x -> blocked
    kernel.run()
    assert times["T2"] >= times["slow"]


def test_single_level_intended_abort(kernel):
    db = make_engine(kernel)
    mgr = SingleLevelManager(kernel, db)
    result = run(kernel, mgr.run("T1", [increment("obj", "x", 5)], abort_after=1))
    assert not result.committed
    assert read_value(kernel, db, "x") == 0


def test_single_level_database_error_aborts_its_transaction(kernel):
    """A failing operation (deleting an absent key) aborts the flat
    transaction instead of escaping with it still running."""
    db = make_engine(kernel)
    mgr = SingleLevelManager(kernel, db)
    result = run(kernel, mgr.run("T1", [increment("obj", "x", 5), delete("obj", "nope")]))
    assert not result.committed
    assert result.abort_reason == "KeyNotFound"
    assert db.active_txns() == []
    assert read_value(kernel, db, "x") == 0


def test_l1_checker_flags_nonserializable_history():
    history = [
        OpRecord(1, "T1", None, "read", "obj", "x"),
        OpRecord(2, "T2", None, "increment", "obj", "x"),
        OpRecord(3, "T1", None, "read", "obj", "x"),
    ]
    report = check_l1(history)
    assert not report.serializable  # T1 -> T2 -> T1 under semantic conflicts
