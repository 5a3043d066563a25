"""A site forgets a transaction once it ends, and still answers for it.

The engine's transaction table holds running and ready transactions
only, as a standard transaction manager's does.  An ended transaction
leaves a tombstone: a committed id stays in ``committed_txn_ids`` and an
aborted one keeps its abort reason.  Every question a client can ask
about an ended id -- its status, its state, a data operation,
``commit``, ``abort``, ``force_abort`` -- gets the answer the
transaction itself would give: the same state, the same exception type,
message and reason.
"""

from __future__ import annotations

import pytest

from repro import Federation, FederationConfig, GTMConfig, SiteSpec, ops
from repro.errors import TransactionAborted
from repro.localdb.config import LocalDBConfig
from repro.localdb.engine import LocalDatabase
from repro.localdb.interface import StandardTMInterface
from repro.localdb.txn import LocalAbortReason, LocalTxnState
from repro.sim.kernel import Kernel
from tests.conftest import run


def _site():
    kernel = Kernel(seed=7)
    db = LocalDatabase(kernel, "site")
    run(kernel, db.create_table("t", 4))
    db.load("t", {"a": 1, "b": 2})
    return kernel, db, StandardTMInterface(db)


def _committed(kernel, db, tm):
    def proc():
        txn_id = tm.begin()
        yield from tm.write(txn_id, "t", "a", 5)
        yield from tm.commit(txn_id)
        return txn_id

    return run(kernel, proc())


def _requested(kernel, db, tm):
    def proc():
        txn_id = tm.begin()
        yield from tm.write(txn_id, "t", "a", 5)
        yield from tm.abort(txn_id)
        return txn_id

    return run(kernel, proc())


def _deadlock(kernel, db, tm):
    """Two writers take the two keys' pages in opposite orders."""
    assert db.catalog.heap("t").page_of("a") != db.catalog.heap("t").page_of("b")
    victims = []

    def writer(first, second, pause):
        txn_id = tm.begin()
        try:
            yield from tm.write(txn_id, "t", first, 10)
            yield pause
            yield from tm.write(txn_id, "t", second, 10)
            yield from tm.commit(txn_id)
        except TransactionAborted as exc:
            assert exc.reason is LocalAbortReason.DEADLOCK
            victims.append(txn_id)

    kernel.spawn(writer("a", "b", 2.0))
    kernel.spawn(writer("b", "a", 1.0))
    kernel.run()
    assert len(victims) == 1
    return victims[0]


def _crash(kernel, db, tm):
    def proc():
        txn_id = tm.begin()
        yield from tm.write(txn_id, "t", "a", 5)
        return txn_id

    txn_id = run(kernel, proc())
    db.crash()
    run(kernel, db.restart())
    return txn_id


ENDINGS = {
    "committed": (_committed, LocalTxnState.COMMITTED, None),
    "requested": (_requested, LocalTxnState.ABORTED, LocalAbortReason.REQUESTED),
    "deadlock": (_deadlock, LocalTxnState.ABORTED, LocalAbortReason.DEADLOCK),
    "crash": (_crash, LocalTxnState.ABORTED, LocalAbortReason.CRASH),
}

#: Each client call on an ended id, as (name, generator factory).
CALLS = (
    ("read", lambda tm, t: tm.read(t, "t", "a")),
    ("write", lambda tm, t: tm.write(t, "t", "a", 9)),
    ("insert", lambda tm, t: tm.insert(t, "t", "z", 9)),
    ("delete", lambda tm, t: tm.delete(t, "t", "a")),
    ("increment", lambda tm, t: tm.increment(t, "t", "a", 1)),
    ("scan", lambda tm, t: tm.scan(t, "t")),
    ("commit", lambda tm, t: tm.commit(t)),
    ("abort", lambda tm, t: tm.abort(t)),
)


def _answer(kernel, call):
    """The exception a call raised: (type name, message, reason)."""

    def proc():
        try:
            yield from call
        except Exception as exc:  # the answer is the exception
            return type(exc).__name__, str(exc), getattr(exc, "reason", None)
        return None

    return run(kernel, proc())


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_an_ended_id_answers_as_the_transaction_did(ending):
    make, state, reason = ENDINGS[ending]
    kernel, db, tm = _site()
    txn_id = make(kernel, db, tm)
    assert tm.status(txn_id) is state
    assert db.txn(txn_id).state is state
    assert db.txn(txn_id).abort_reason is reason
    counters = (db.commits, dict(db.aborts), db.ops)
    for name, call in CALLS:
        answer = _answer(kernel, call(tm, txn_id))
        if state is LocalTxnState.ABORTED:
            expected = ("TransactionAborted", f"transaction {txn_id} aborted: {reason}", reason)
        else:
            needs = "running" if name not in ("commit", "abort") else "running/ready"
            expected = (
                "InvalidTransactionState", f"{txn_id} is committed, needs {needs}", None
            )
        assert answer == expected, name
    process = db.force_abort(txn_id, LocalAbortReason.SYSTEM)
    kernel.run()
    assert process.done
    assert tm.status(txn_id) is state
    assert db.txn(txn_id).abort_reason is reason
    assert (db.commits, dict(db.aborts), db.ops) == counters


def test_an_unknown_id_is_still_unknown():
    kernel, db, tm = _site()
    assert tm.status("site:t99") is None
    answer = _answer(kernel, tm.read("site:t99", "t", "a"))
    assert answer == ("InvalidTransactionState", "unknown transaction site:t99", None)


def test_reinstated_transactions_are_live_in_begin_order():
    """Recovery reinstates in-doubt ids in string order ("t10" before
    "t9"); the table still lists live transactions in begin order, and a
    reinstated id answers from the live table, not the crash's tombstone."""
    kernel, db, _tm = _site()

    def proc():
        for _ in range(7):
            yield from db.commit(db.begin())
        prepared = []
        for key in ("a", "b"):
            txn = db.begin(gtxn_id=f"G{key}")
            yield from db.write(txn, "t", key, 0)
            yield from db.prepare(txn)
            prepared.append(txn.txn_id)
        return prepared

    prepared = run(kernel, proc())
    assert prepared == ["site:t9", "site:t10"]
    db.crash()
    assert db.active_txns() == []
    assert [db.txn(txn_id).abort_reason for txn_id in prepared] == [LocalAbortReason.CRASH] * 2
    run(kernel, db.restart())
    assert [txn.txn_id for txn in db.active_txns()] == prepared
    assert {db.txn(txn_id).state for txn_id in prepared} == {LocalTxnState.READY}
    run(kernel, db.commit(db.txn("site:t10")))
    assert db.txn("site:t10").state is LocalTxnState.COMMITTED
    assert [txn.txn_id for txn in db.active_txns()] == ["site:t9"]


@pytest.mark.parametrize("scheduler", ["2pl", "occ"])
def test_only_optimistic_transactions_carry_a_read_set_and_workspace(scheduler):
    kernel = Kernel(seed=7)
    db = LocalDatabase(kernel, "site", LocalDBConfig(scheduler=scheduler))
    run(kernel, db.create_table("t", 4))
    db.load("t", {"a": 1})
    txn = db.begin()
    assert run(kernel, db.read(txn, "t", "a")) == 1
    optimistic = scheduler == "occ"
    assert hasattr(txn, "read_set") is optimistic
    assert hasattr(txn, "workspace") is optimistic
    if optimistic:
        assert txn.read_set.keys() == {("t", "a")}


def _transfers(count: int, start: int) -> list[dict]:
    return [
        {
            "operations": [
                ops.increment("acc_a", f"a{n % 8}", -1),
                ops.increment("acc_b", f"b{n % 8}", +1),
            ],
            "name": f"T{start + n}",
            "delay": 3.0 * n,
        }
        for n in range(count)
    ]


def test_the_transaction_table_holds_only_live_transactions():
    """Whatever the run's length, a quiescent site's table is empty, and
    no more transactions are live at a site than are in flight."""
    fed = Federation(
        [
            SiteSpec("s0", tables={"acc_a": {f"a{k}": 1000 for k in range(8)}}),
            SiteSpec("s1", tables={"acc_b": {f"b{k}": 1000 for k in range(8)}}),
        ],
        FederationConfig(seed=3, gtm=GTMConfig(protocol="before", granularity="per_action")),
    )
    peaks = {site: 0 for site in fed.engines}

    def sampler(horizon):
        while fed.kernel.now <= horizon or fed.gtm.active:
            in_flight = len(fed.gtm.active)
            for site, engine in fed.engines.items():
                live = len(engine.active_txns())
                assert live <= in_flight, (site, fed.kernel.now, live, in_flight)
                peaks[site] = max(peaks[site], live)
            yield 0.5

    start = 0
    for count in (100, 400):
        fed.kernel.spawn(sampler(fed.kernel.now + 3.0 * count), name="sampler")
        outcomes = fed.run_transactions(_transfers(count, start))
        start += count
        assert all(outcome.committed for outcome in outcomes)
        for site, engine in fed.engines.items():
            assert engine._txns == {}, site
            assert engine.active_txns() == []
    assert all(peak >= 1 for peak in peaks.values())
