"""The trace log stores rows and builds records only when read."""

import gc
import tracemalloc

from repro.sim import tracing
from repro.sim.kernel import Kernel
from repro.sim.tracing import TraceLog, TraceRecord


def emitted_log():
    """Three events at t=0, 1.5 and 2.5, and the records they stand for."""
    kernel = Kernel(seed=0)
    trace = TraceLog(kernel)
    trace.emit("txn_state", "s0", "t1", state="ready", gtxn="G1")
    kernel.call_at(1.5, lambda: trace.emit("site", "s1", "crash"))
    kernel.call_at(
        2.5, lambda: trace.emit("txn_state", "s0", "t1", gtxn="G1", state="committed")
    )
    kernel.run()
    expected = [
        TraceRecord(0.0, "txn_state", "s0", "t1", {"state": "ready", "gtxn": "G1"}),
        TraceRecord(1.5, "site", "s1", "crash"),
        TraceRecord(2.5, "txn_state", "s0", "t1", {"gtxn": "G1", "state": "committed"}),
    ]
    return trace, expected


def test_rows_read_back_as_the_records_emitted():
    trace, expected = emitted_log()
    records = trace.records
    assert records == expected and expected == records
    assert records != expected[:2]
    assert list(records) == list(trace) == expected
    assert len(records) == len(trace) == 3
    assert records[1] == expected[1] and records[-1] == expected[-1]
    assert records[1:] == expected[1:] and records[::2] == expected[::2]
    assert [str(r) for r in records] == [str(r) for r in expected]
    assert [repr(r) for r in records] == [repr(r) for r in expected]
    # Each record keeps its emitter's detail order.
    assert list(records[0].details) == ["state", "gtxn"]
    assert list(records[2].details) == ["gtxn", "state"]
    assert records[1].details == {}


def test_rows_of_one_shape_share_their_key_tuple():
    trace = TraceLog(Kernel(seed=0))
    for index in range(3):
        trace.emit("lock", "s0", "p1", mode="S", txn=f"t{index}")
    assert len({id(row[4]) for row in trace._rows}) == 1


def test_records_is_a_new_list_and_clear_empties_the_log():
    trace, expected = emitted_log()
    trace.records.append(TraceRecord(0.0, "site", "s0", "up"))
    assert trace.records == expected and len(trace) == 3
    trace.clear()
    assert trace.records == [] and len(trace) == 0
    trace.emit("site", "s0", "up")
    assert trace.records == [TraceRecord(2.5, "site", "s0", "up")]


def test_queries_filter_rows_before_they_build_records(monkeypatch):
    trace = TraceLog(Kernel(seed=0))
    for index in range(50):
        trace.emit("lock", f"s{index % 2}", f"p{index}", mode="X")
    trace.emit("log_force", "s0", "force", txn="t1", records=2)
    trace.emit("log_force", "s1", "force", txn="t2", records=1)
    built = []
    record = tracing._record

    def counting(row):
        built.append(row)
        return record(row)

    monkeypatch.setattr(tracing, "_record", counting)
    forces = trace.select(category="log_force")
    assert [r.details["txn"] for r in forces] == ["t1", "t2"] and len(built) == 2
    assert trace.first(category="log_force", site="s1").details["txn"] == "t2"
    assert trace.last(category="lock", site="s0").subject == "p48"
    assert len(built) == 4
    assert trace.subjects("log_force") == ["force"] and len(built) == 4
    # A cursor skips what it has read: only the rows past it are looked at.
    assert trace.select(category="log_force", start=51) == forces[1:]
    assert trace.select(start=50) == list(trace.records)[50:]
    assert trace.select(category="lock", start=len(trace)) == []


def stored_bytes(fill):
    """Bytes still allocated after ``fill()``, which returns what it keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = fill()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept
    return after - before


def test_a_row_costs_at_most_six_tenths_of_a_record_and_its_dict():
    kernel = Kernel(seed=0)
    # The values exist before either count starts: both store the same
    # references, so only the containers are measured.
    values = [(index, f"s{index % 4}", f"G{index}", index - 1) for index in range(10_000)]

    def rows():
        trace = TraceLog(kernel)
        for msg_id, dest, gtxn, reply_to in values:
            trace.emit("message", "central", "prepare",
                       msg_id=msg_id, dest=dest, gtxn=gtxn, reply_to=reply_to)
        return trace

    def records():
        return [
            TraceRecord(kernel._now, "message", "central", "prepare",
                        {"msg_id": msg_id, "dest": dest, "gtxn": gtxn, "reply_to": reply_to})
            for msg_id, dest, gtxn, reply_to in values
        ]

    assert stored_bytes(rows) <= 0.6 * stored_bytes(records)
