"""Redo-log and undo-log bookkeeping."""

from repro.core.redo import RedoLog
from repro.core.undo import UndoLog, optimize_inverses
from repro.mlt.actions import increment, inverse_of, read, write


def test_redo_record_and_commit_lifecycle():
    log = RedoLog()
    ops = [write("t", "x", 1)]
    entry = log.record("G1", "a", ops)
    assert not entry.committed
    assert log.pending() == [entry]
    log.mark_committed("G1", "a")
    assert log.pending() == []


def test_redo_counts():
    log = RedoLog()
    log.record("G1", "a", [])
    assert log.note_redo("G1", "a") == 1
    assert log.note_redo("G1", "a") == 2
    assert log.total_redos == 2


def test_redo_forget_clears_gtxn():
    log = RedoLog()
    log.record("G1", "a", [])
    log.record("G1", "b", [])
    log.record("G2", "a", [])
    log.forget("G1")
    assert list(log.entries) == [("G2", "a")]


def test_undo_records_in_reverse_order():
    log = UndoLog()
    op1, op2 = increment("t", "x", 1), increment("t", "y", 2)
    log.record("G1", "a", op1, inverse_of(op1, None))
    log.record("G1", "b", op2, inverse_of(op2, None))
    inverses = log.inverses_for("G1")
    assert [r.operation.key for r in inverses] == ["y", "x"]


def test_undo_reads_have_no_inverse():
    log = UndoLog()
    op = read("t", "x")
    log.record("G1", "a", op, inverse_of(op, 5))
    assert log.inverses_for("G1") == []


def test_undo_filter_by_site():
    log = UndoLog()
    for site in ("a", "b", "a"):
        op = increment("t", site, 1)
        log.record("G1", site, op, inverse_of(op, None))
    assert len(log.inverses_for("G1", site="a")) == 2
    assert len(log.inverses_for("G1", site="b")) == 1


def test_undo_forget():
    log = UndoLog()
    op = increment("t", "x", 1)
    log.record("G1", "a", op, inverse_of(op, None))
    log.record("G2", "a", op, inverse_of(op, None))
    log.forget("G1")
    assert log.inverses_for("G1") == []
    assert len(log.inverses_for("G2")) == 1


def test_undo_sequences_increase_across_another_forget():
    """Forgetting one transaction must not reuse another's sequence numbers."""
    log = UndoLog()
    for gtxn, key in [("A", "x"), ("B", "w"), ("A", "y")]:
        op = write("t", key, 1)
        log.record(gtxn, "a", op, inverse_of(op, 0))
    log.forget("B")
    op = write("t", "z", 1)
    log.record("A", "a", op, inverse_of(op, 0))
    sequences = [r.sequence for r in log.records]
    assert sequences == sorted(set(sequences))
    # The optimizer undoes objects newest-touch first: z, then y, then x.
    records = list(reversed(log.inverses_for("A")))
    assert [op.key for op in optimize_inverses(records)] == ["z", "y", "x"]
