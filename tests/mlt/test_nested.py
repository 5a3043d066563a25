"""General n-level multi-level transactions.

A three-level banking stack:

* **L2** -- business actions: ``transfer`` (commutes with transfers)
  and ``audit`` (reads, conflicts with transfers);
* **L1** -- record operations (increments commute);
* **L0** -- the engine's page transactions.
"""

import pytest

from repro.localdb.engine import LocalDatabase
from repro.localdb.locks import ConflictTable, LockMode
from repro.mlt.actions import Operation
from repro.mlt.nested import (
    ActionDef,
    LevelSpec,
    NestedTransactionManager,
    bottom_level,
)
from tests.conftest import run

#: L2 conflict table: transfers commute (they are increments), audits
#: share with audits, audits conflict with transfers.
BUSINESS_TABLE = ConflictTable(
    "business",
    {
        "transfer": LockMode.INCREMENT,
        "audit": LockMode.SHARED,
        "write": LockMode.EXCLUSIVE,
        "read": LockMode.SHARED,
        "increment": LockMode.INCREMENT,
        "insert": LockMode.EXCLUSIVE,
        "delete": LockMode.EXCLUSIVE,
    },
    [frozenset({LockMode.SHARED}), frozenset({LockMode.INCREMENT})],
)


def expand_transfer(action: Operation, context: dict) -> list[Operation]:
    src, dst = action.key
    return [
        Operation("increment", action.table, src, -action.value),
        Operation("increment", action.table, dst, action.value),
    ]


def invert_transfer(action: Operation, context: dict) -> Operation:
    src, dst = action.key
    return Operation("transfer", action.table, (dst, src), action.value)


def expand_audit(action: Operation, context: dict) -> list[Operation]:
    return [Operation("read", action.table, key) for key in action.key]


def business_level() -> LevelSpec:
    level = LevelSpec("L2", BUSINESS_TABLE)
    level.define(
        ActionDef(
            kind="transfer",
            mode_kind="transfer",
            expand=expand_transfer,
            invert=invert_transfer,
            resources=lambda a: [(a.table, k) for k in a.key],
        )
    )
    level.define(
        ActionDef(
            kind="audit",
            mode_kind="audit",
            expand=expand_audit,
            invert=lambda a, c: None,
            resources=lambda a: [(a.table, k) for k in a.key],
        )
    )
    return level


@pytest.fixture
def stack(kernel):
    engine = LocalDatabase(kernel, "bank")

    def init():
        yield from engine.create_table("acc", 4)
        txn = engine.begin()
        for key in ("a", "b", "c"):
            yield from engine.insert(txn, "acc", key, 100)
        yield from engine.commit(txn)

    run(kernel, init())
    manager = NestedTransactionManager(
        kernel, engine, [business_level(), bottom_level()]
    )
    return engine, manager


def balance(kernel, engine, key, table="acc"):
    def proc():
        txn = engine.begin()
        value = yield from engine.read(txn, table, key)
        yield from engine.commit(txn)
        return value

    return run(kernel, proc())


def transfer(src, dst, amount):
    return Operation("transfer", "acc", (src, dst), amount)


def audit(*keys):
    return Operation("audit", "acc", tuple(keys))


def test_transfer_commits_through_three_levels(kernel, stack):
    engine, manager = stack
    result = run(kernel, manager.run("T1", [transfer("a", "b", 30)]))
    assert result.committed
    assert balance(kernel, engine, "a") == 70
    assert balance(kernel, engine, "b") == 130


def test_audit_reads_collected(kernel, stack):
    engine, manager = stack
    result = run(kernel, manager.run("T1", [audit("a", "b")]))
    assert result.committed
    assert result.reads == {"acc['a']": 100, "acc['b']": 100}


def test_intended_abort_undoes_transfer_by_inverse_transfer(kernel, stack):
    engine, manager = stack
    result = run(
        kernel,
        manager.run("T1", [transfer("a", "b", 30), transfer("b", "c", 10)], abort_after=2),
    )
    assert not result.committed
    assert result.inverse_actions == 2  # two inverse transfers at L2
    for key in ("a", "b", "c"):
        assert balance(kernel, engine, key) == 100


def test_partial_abort_undoes_prefix_only(kernel, stack):
    engine, manager = stack
    result = run(
        kernel,
        manager.run("T1", [transfer("a", "b", 30), transfer("b", "c", 10)], abort_after=1),
    )
    assert not result.committed
    assert result.inverse_actions == 1
    assert balance(kernel, engine, "a") == 100


def test_transfers_commute_at_l2(kernel, stack):
    """Two transfers over the same accounts run concurrently: the L2
    increment-mode locks commute, as do the L1 increments."""
    engine, manager = stack
    done = {}

    def t(name, src, dst, amount):
        result = yield from manager.run(
            name, [transfer(src, dst, amount)], think_time=3.0
        )
        done[name] = result.committed

    kernel.spawn(t("T1", "a", "b", 10))
    kernel.spawn(t("T2", "b", "a", 5))
    kernel.run()
    assert done == {"T1": True, "T2": True}
    assert balance(kernel, engine, "a") == 95
    assert balance(kernel, engine, "b") == 105
    assert manager.locks[0].waits == 0  # nobody queued at L2


def test_audit_blocks_on_concurrent_transfer(kernel, stack):
    """Audit (shared) conflicts with transfer (increment) at L2, so the
    audit sees an atomic picture."""
    engine, manager = stack
    observed = {}

    def transferer():
        yield from manager.run("T1", [transfer("a", "b", 50)], think_time=6.0)

    def auditor():
        yield 1.0
        result = yield from manager.run("T2", [audit("a", "b")])
        observed.update(result.reads)

    kernel.spawn(transferer())
    kernel.spawn(auditor())
    kernel.run()
    assert observed["acc['a']"] + observed["acc['b']"] == 200
    assert observed["acc['a']"] in (50, 100)  # before or after, never mid


def test_undo_preserves_interleaved_transfer(kernel, stack):
    """The Figure 8 argument lifted one level: T1's inverse transfer
    must not clobber T2's interleaved commuting transfer."""
    engine, manager = stack

    def t1():
        yield from manager.run(
            "T1", [transfer("a", "b", 10), transfer("a", "c", 10)],
            abort_after=2, think_time=4.0,
        )

    def t2():
        yield 2.0  # lands between T1's two actions
        yield from manager.run("T2", [transfer("a", "b", 100)])

    kernel.spawn(t1())
    kernel.spawn(t2())
    kernel.run()
    assert balance(kernel, engine, "a") == 0     # only T2's -100
    assert balance(kernel, engine, "b") == 200   # only T2's +100
    assert balance(kernel, engine, "c") == 100


def test_all_levels_serializable(kernel, stack):
    engine, manager = stack

    def t(name, src, dst):
        yield from manager.run(name, [transfer(src, dst, 5), audit("c")])

    kernel.spawn(t("T1", "a", "b"))
    kernel.spawn(t("T2", "b", "c"))
    kernel.run()
    assert manager.serializable(committed={"T1", "T2"})
    reports = manager.level_reports(committed={"T1", "T2"})
    assert len(reports) == 2
    assert all(report.serializable for report in reports)


def test_unknown_action_kind_rejected(kernel, stack):
    from repro.mlt.nested import NestedTransactionError

    engine, manager = stack

    def proc():
        yield from manager.run("T1", [Operation("write", "acc", "a", 1)])

    # L2 defines transfer/audit only; "write" is not an L2 action here.
    with pytest.raises(NestedTransactionError):
        run(kernel, proc())


def test_history_attributes_actions_to_top_level_txn(kernel, stack):
    engine, manager = stack
    run(kernel, manager.run("T1", [transfer("a", "b", 1)]))
    l2_owners = {record.txn_id for record in manager.histories[0]}
    l1_owners = {record.txn_id for record in manager.histories[1]}
    assert l2_owners == {"T1"}
    assert l1_owners == {"T1"}


@pytest.fixture
def two_keys(kernel):
    engine = LocalDatabase(kernel, "db")

    def init():
        yield from engine.create_table("t", 4)
        txn = engine.begin()
        for key in ("a", "b"):
            yield from engine.insert(txn, "t", key, 100)
        yield from engine.commit(txn)

    run(kernel, init())
    return engine


def bump_level() -> LevelSpec:
    """An L2 whose ``bump`` increments one record under an exclusive L2
    lock: bumps do not commute at L2, so crossing bumps deadlock there."""
    level = LevelSpec("L2", BUSINESS_TABLE)
    level.define(
        ActionDef(
            kind="bump",
            mode_kind="write",
            expand=lambda a, c: [Operation("increment", a.table, a.key, a.value)],
            invert=lambda a, c: Operation("bump", a.table, a.key, -a.value),
            resources=lambda a: [(a.table, a.key)],
        )
    )
    return level


@pytest.mark.parametrize("levels", ["nested", "two_level"])
def test_deadlock_victim_is_undone_and_releases(kernel, two_keys, levels):
    """T1 updates a then b, T2 updates b then a.  The deadlock aborts the
    victim at the level that raised it: its executed prefix is inverted
    and its locks are released, so the other transaction commits -- at
    L2 of a three-level stack (``nested``: exclusive bumps over L1
    increments) as at L1 of the two-level one (``two_level``: writes)."""
    engine = two_keys
    if levels == "nested":
        manager = NestedTransactionManager(kernel, engine, [bump_level(), bottom_level()])
        kind, expected = "bump", (101, 102)
    else:
        manager = NestedTransactionManager(kernel, engine, [bottom_level()])
        kind, expected = "write", (1, 2)
    results = {}

    def txn(name, first, second):
        results[name] = yield from manager.run(
            name,
            [Operation(kind, "t", *first), Operation(kind, "t", *second)],
            think_time=5,
        )

    kernel.spawn(txn("T1", ("a", 1), ("b", 2)))
    kernel.spawn(txn("T2", ("b", 1), ("a", 2)))
    kernel.run()
    assert results["T1"].committed
    assert not results["T2"].committed
    assert results["T2"].abort_reason == "DeadlockDetected"
    assert results["T2"].inverse_actions == 1
    assert (balance(kernel, engine, "a", "t"), balance(kernel, engine, "b", "t")) == expected
    assert all(lock.holders_of(("t", "b")) == {} for lock in manager.locks)


def test_lock_timeout_aborts_nested_transaction(kernel, two_keys):
    engine = two_keys
    manager = NestedTransactionManager(kernel, engine, [bottom_level()])
    manager.locks[0].default_timeout = 2.0
    results = {}

    def holder():
        results["T1"] = yield from manager.run(
            "T1", [Operation("write", "t", "a", 1), Operation("read", "t", "b")],
            think_time=5,
        )

    def waiter():
        yield 1.0
        results["T2"] = yield from manager.run(
            "T2", [Operation("write", "t", "b", 1), Operation("write", "t", "a", 2)]
        )

    kernel.spawn(holder())
    kernel.spawn(waiter())
    kernel.run()
    assert results["T2"].abort_reason == "LockTimeout"
    assert results["T2"].inverse_actions == 1
    assert results["T1"].committed
    assert results["T1"].reads == {"t['b']": 100}
    assert (balance(kernel, engine, "a", "t"), balance(kernel, engine, "b", "t")) == (1, 100)


def test_database_error_aborts_the_raising_level(kernel, two_keys):
    """An action's own DatabaseError (here the insert's DuplicateKey)
    aborts its open L0 transaction and then the transaction at the level
    that raised: the committed prefix is inverted, the locks are freed,
    and a later reader of the same object finishes."""
    engine = two_keys
    manager = NestedTransactionManager(kernel, engine, [bottom_level()])
    results = {}

    def writer():
        results["T1"] = yield from manager.run(
            "T1", [Operation("increment", "t", "a", 5), Operation("insert", "t", "a", 1)]
        )

    def reader():
        yield 50
        results["T2"] = yield from manager.run("T2", [Operation("read", "t", "a")])

    kernel.spawn(writer())
    kernel.spawn(reader())
    kernel.run()
    assert not results["T1"].committed
    assert results["T1"].abort_reason == "DuplicateKey"
    assert results["T1"].inverse_actions == 1
    assert results["T2"].committed
    assert results["T2"].reads == {"t['a']": 100}
    assert engine.active_txns() == []
    assert manager.locks[0].holders_of(("t", "a")) == {}
