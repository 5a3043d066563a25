"""Concurrent optimistic transactions on one engine.

Hypothesis draws interleaved schedules on one ``occ`` engine: transfers
that increment one account and decrement another (and read a memo key
before and after the second increment), and blind writes of unique
values to memo keys.  Each transaction commits directly, aborts before
installing, or prepares (installing its workspace) and is later
committed or aborted.  After the run:

* the accounts still sum to their initial total;
* no rollback restored a before-image over a foreign write;
* the committed history is conflict-serializable;
* no committed transaction read a memo value whose install was rolled
  back.

Accounts are touched only through increments: an optimistic increment
records its op when it executes, not when it installs, so a plain read
of an account between the two would draw a conflict edge the
validation order does not have.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serializability import check, committed_history
from repro.errors import TransactionAborted
from repro.localdb.config import LocalDBConfig
from repro.localdb.engine import LocalDatabase
from repro.sim.kernel import Kernel

ACCOUNTS = ["a", "b", "c"]
MEMOS = ["m0", "m1"]
BALANCE = 100
ENDINGS = ["commit", "abort", "prepare_commit", "prepare_abort"]


@st.composite
def schedules(draw):
    txns = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        if draw(st.booleans()):
            src, dst = draw(st.permutations(ACCOUNTS))[:2]
            body = ("transfer", src, dst, draw(st.integers(1, 30)), draw(st.sampled_from(MEMOS)))
        else:
            body = ("blind", draw(st.lists(st.sampled_from(MEMOS), min_size=1, max_size=2)))
        txns.append((
            body,
            draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0])),  # start
            draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),  # think time between steps
            draw(st.sampled_from(ENDINGS)),
        ))
    return txns


@given(schedule=schedules(), seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=150, deadline=None)
def test_interleaved_optimistic_transactions_stay_serializable(schedule, seed):
    kernel = Kernel(seed=seed)
    db = LocalDatabase(kernel, "occ-site", LocalDBConfig(scheduler="occ"))
    rows = dict.fromkeys(ACCOUNTS, BALANCE) | {memo: "init" for memo in MEMOS}
    db.load_table("t", 4, rows)
    reads = []  # (local txn id, memo value read)
    writers = {}  # memo value -> local txn id of its writer

    def run_txn(index, body, start, think, ending):
        yield start
        txn = db.begin()
        try:
            if body[0] == "transfer":
                _kind, src, dst, amount, memo = body
                yield from db.increment(txn, "t", src, -amount)
                yield think
                reads.append((txn.txn_id, (yield from db.read(txn, "t", memo))))
                yield think
                yield from db.increment(txn, "t", dst, amount)
                yield think
                reads.append((txn.txn_id, (yield from db.read(txn, "t", memo))))
            else:
                for memo in body[1]:
                    value = f"w{index}:{memo}"
                    writers[value] = txn.txn_id
                    yield from db.write(txn, "t", memo, value)
                    yield think
            if ending == "abort":
                yield from db.abort(txn)
                return
            if ending.startswith("prepare"):
                yield from db.prepare(txn)
                yield think
                if ending == "prepare_abort":
                    yield from db.abort(txn)
                    return
            yield from db.commit(txn)
        except TransactionAborted:
            pass

    for index, (body, start, think, ending) in enumerate(schedule):
        kernel.spawn(run_txn(index, body, start, think, ending))
    kernel.run()

    def final():
        txn = db.begin()
        values = []
        for key in ACCOUNTS:
            values.append((yield from db.read(txn, "t", key)))
        yield from db.commit(txn)
        return values

    total = kernel.spawn(final())
    kernel.run()
    assert sum(total.value) == BALANCE * len(ACCOUNTS)
    assert db.undo_clobbers == []
    report = check(committed_history(db))
    assert report.serializable, report.cycle
    for txn_id, value in reads:
        if txn_id in db.committed_txn_ids and value != "init":
            assert writers[value] in db.committed_txn_ids, (txn_id, value)
