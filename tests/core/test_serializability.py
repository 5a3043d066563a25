"""Serialization-graph checkers."""

import re
from types import SimpleNamespace

import pytest

from repro.core.serializability import (
    OpRecord,
    build_graph,
    check,
    committed_history,
    global_serializability,
    quasi_serializability,
    rw_conflict,
)
from repro.localdb.locks import ConflictTable, LockMode
from repro.mlt.conflicts import SEMANTIC_TABLE

#: Reads commute with increments and increments with each other, but
#: reads conflict with reads: commuting is not transitive.
ODD_TABLE = ConflictTable(
    "odd",
    {"read": LockMode.SHARED, "increment": LockMode.INCREMENT},
    [
        frozenset({LockMode.SHARED, LockMode.INCREMENT}),
        frozenset({LockMode.INCREMENT}),
    ],
)


def op(seq, txn, kind, key="x", table="t", gtxn=None):
    return OpRecord(seq, txn, gtxn, kind, table, key)


def test_rw_conflict_predicate():
    assert not rw_conflict("read", "read")
    assert rw_conflict("read", "write")
    assert rw_conflict("write", "read")
    assert rw_conflict("write", "write")
    assert rw_conflict("increment", "increment")  # rw view: both write


def test_serial_history_is_serializable():
    history = [op(1, "T1", "write"), op(2, "T1", "read"), op(3, "T2", "write")]
    report = check(history)
    assert report.serializable
    assert report.serial_order == ["T1", "T2"]


def test_classic_cycle_detected():
    history = [
        op(1, "T1", "read", key="x"),
        op(2, "T2", "write", key="x"),
        op(3, "T2", "read", key="y"),
        op(4, "T1", "write", key="y"),
    ]
    report = check(history)
    assert not report.serializable
    assert set(report.cycle) >= {"T1", "T2"}


def test_reads_do_not_conflict():
    history = [op(1, "T1", "read"), op(2, "T2", "read"), op(3, "T1", "read")]
    report = check(history)
    assert report.serializable
    assert report.edges == []


def test_semantic_conflicts_let_increments_commute():
    history = [
        op(1, "T1", "increment"),
        op(2, "T2", "increment"),
        op(3, "T1", "increment"),
    ]
    assert not check(history).serializable  # rw view: cycle
    assert check(history, SEMANTIC_TABLE.conflicts).serializable


def test_different_objects_never_conflict():
    history = [op(1, "T1", "write", key="x"), op(2, "T2", "write", key="y")]
    assert check(history).edges == []


def test_committed_history_filters():
    history = [op(1, "T1", "write"), op(2, "T2", "write"), op(3, "T1", "read")]
    engine = SimpleNamespace(op_history=history, committed_txn_ids={"T1"})
    assert committed_history(engine) == [history[0], history[2]]


def test_nodes_are_local_or_global_ids():
    """The same records name local nodes, or global ones where a
    subtransaction has a global id (purely local work keeps its own)."""
    history = [
        op(1, "s:t1", "write", gtxn="G1"),
        op(2, "s:t2", "write", gtxn="G2"),
        op(3, "s:t3", "write"),
        op(4, "s:t4", "write", gtxn="G1"),
    ]
    assert build_graph(history).nodes == ["s:t1", "s:t2", "s:t3", "s:t4"]
    assert build_graph(history, by_gtxn=True).nodes == ["G1", "G2", "s:t3"]
    assert not check(history, by_gtxn=True).serializable  # G1 -> G2 -> s:t3 -> G1
    assert global_serializability({"s": history}, by_gtxn=False).serializable
    assert quasi_serializability({"s": history}, {"G1", "G2"}).cycle == ["G1", "G2", "s:t3", "G1"]


def test_global_cycle_across_sites():
    """Serializable at each site, cyclic globally -- the saga anomaly."""
    site_a = [op(1, "T1", "write", key="x"), op(2, "T2", "write", key="x")]
    site_b = [op(1, "T2", "write", key="y"), op(2, "T1", "write", key="y")]
    assert check(site_a).serializable
    assert check(site_b).serializable
    report = global_serializability({"a": site_a, "b": site_b})
    assert not report.serializable


def test_global_consistent_orders_pass():
    site_a = [op(1, "T1", "write", key="x"), op(2, "T2", "write", key="x")]
    site_b = [op(1, "T1", "write", key="y"), op(2, "T2", "write", key="y")]
    report = global_serializability({"a": site_a, "b": site_b})
    assert report.serializable
    assert report.serial_order.index("T1") < report.serial_order.index("T2")


def test_quasi_serializability_ignores_indirect_conflicts():
    """Global txns ordered consistently; a local txn creates only an
    indirect path -- QSR accepts what global SR would accept too here,
    but the projection drops the local-only edges."""
    site_a = [
        op(1, "G1", "write", key="x"),
        op(2, "L1", "write", key="x"),
        op(3, "L1", "write", key="z"),
        op(4, "G2", "write", key="z"),
    ]
    report = quasi_serializability({"a": site_a}, global_txns={"G1", "G2"})
    assert report.serializable


def test_quasi_serializability_rejects_direct_global_cycle():
    site_a = [op(1, "G1", "write", key="x"), op(2, "G2", "write", key="x")]
    site_b = [op(1, "G2", "write", key="y"), op(2, "G1", "write", key="y")]
    report = quasi_serializability({"a": site_a, "b": site_b}, global_txns={"G1", "G2"})
    assert not report.serializable


def test_quasi_serializability_sees_direct_edges_behind_local_txns():
    """G1 and G2 conflict directly on x although L1 sits between them;
    site b orders them the other way.  Projecting the linear graph
    (G1 -> L1 -> G2) onto global txns would lose G1 -> G2 and accept."""
    site_a = [op(1, "G1", "write"), op(2, "L1", "write"), op(3, "G2", "write")]
    site_b = [op(1, "G2", "write", key="y"), op(2, "G1", "write", key="y")]
    report = quasi_serializability({"a": site_a, "b": site_b}, global_txns={"G1", "G2"})
    assert not report.serializable
    assert set(report.cycle) == {"G1", "G2"}


def test_quasi_serializability_requires_local_serializability():
    cyclic = [
        op(1, "T1", "read", key="x"),
        op(2, "T2", "write", key="x"),
        op(3, "T2", "read", key="y"),
        op(4, "T1", "write", key="y"),
    ]
    report = quasi_serializability({"a": cyclic}, global_txns=set())
    assert not report.serializable


def test_build_graph_nodes_include_all_txns():
    graph = build_graph([op(1, "T1", "read"), op(2, "T2", "read")])
    assert set(graph.nodes) == {"T1", "T2"}


@pytest.mark.parametrize(
    "kinds, named",
    [
        # the second read joins the run {increment, read}, yet conflicts with its read
        (["increment", "read", "read"], ("read", "read")),
        # the second read starts a new run, yet commutes with the increment it closes
        (["read", "increment", "read"], ("increment", "read")),
        # the increment joins the second read's run, yet commutes with the first read
        (["read", "read", "increment"], ("read", "increment")),
    ],
)
def test_build_graph_refuses_non_transitive_commutativity(kinds, named):
    history = [op(seq, f"T{seq}", kind) for seq, kind in enumerate(kinds, start=1)]
    pattern = re.escape(f"{named[0]!r} vs {named[1]!r}")
    with pytest.raises(ValueError, match=pattern):
        build_graph(history, ODD_TABLE.conflicts)
