"""Property-based tests of the serialization-graph checker."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serializability import OpRecord, build_graph, check, rw_conflict
from repro.localdb.locks import ConflictTable, LockMode
from repro.mlt.conflicts import READ_WRITE_TABLE, SEMANTIC_TABLE

txns = st.sampled_from(["T1", "T2", "T3"])
kinds = st.sampled_from(["read", "write", "increment"])
obj_keys = st.sampled_from(["x", "y"])

#: Two kinds per mode, as an L2 business level has (transfers commute
#: like increments, audits share like reads).
TWO_KINDS_TABLE = ConflictTable(
    "two-kinds",
    {
        "read": LockMode.SHARED,
        "audit": LockMode.SHARED,
        "increment": LockMode.INCREMENT,
        "transfer": LockMode.INCREMENT,
        "write": LockMode.EXCLUSIVE,
        "delete": LockMode.EXCLUSIVE,
    },
    [frozenset({LockMode.SHARED}), frozenset({LockMode.INCREMENT})],
)

#: name -> (conflict predicate, the kinds it knows)
CONFLICTS = {
    "rw_conflict": (rw_conflict, ["read", "write", "increment", "insert"]),
    "read-write": (READ_WRITE_TABLE.conflicts, ["read", "write", "increment"]),
    "semantic": (SEMANTIC_TABLE.conflicts, ["read", "write", "increment"]),
    "two-kinds": (
        TWO_KINDS_TABLE.conflicts,
        ["read", "audit", "increment", "transfer", "write", "delete"],
    ),
}


@st.composite
def histories(draw, min_size=0, max_size=12, kinds=kinds, txns=txns):
    rows = draw(
        st.lists(st.tuples(txns, kinds, obj_keys), min_size=min_size, max_size=max_size)
    )
    return [
        OpRecord(seq, txn, None, kind, "t", key)
        for seq, (txn, kind, key) in enumerate(rows, start=1)
    ]


def reference_edges(history, conflicts=rw_conflict) -> set[tuple[str, str]]:
    """The all-pairs conflict graph: T1 -> T2 for every op of T1 that
    precedes a conflicting op of T2 on the same object."""
    ordered = sorted(history, key=lambda op: op.seq)
    return {
        (earlier.txn_id, later.txn_id)
        for i, earlier in enumerate(ordered)
        for later in ordered[i + 1 :]
        if (earlier.table, earlier.key) == (later.table, later.key)
        and earlier.txn_id != later.txn_id
        and conflicts(earlier.kind, later.kind)
    }


def reachability(nodes, edges) -> dict[str, set[str]]:
    """Every node's set of nodes reachable by a non-empty path."""
    successors = {node: set() for node in nodes}
    for src, dst in edges:
        successors[src].add(dst)
    reach = {}
    for node in nodes:
        seen, frontier = set(), [node]
        while frontier:
            for nxt in successors[frontier.pop()] - seen:
                seen.add(nxt)
                frontier.append(nxt)
        reach[node] = seen
    return reach


@given(history=histories())
@settings(max_examples=150)
def test_serial_order_respects_every_conflict_edge(history):
    report = check(history)
    if not report.serializable:
        assert report.cycle is not None
        return
    order = {txn: i for i, txn in enumerate(report.serial_order)}
    for src, dst in reference_edges(history):
        assert order[src] < order[dst]


@given(data=st.data(), name=st.sampled_from(sorted(CONFLICTS)))
@settings(max_examples=400)
def test_linear_graph_matches_all_pairs_reference(data, name):
    conflicts, known = CONFLICTS[name]
    history = data.draw(
        histories(
            max_size=16,
            kinds=st.sampled_from(known),
            txns=st.sampled_from(["T1", "T2", "T3", "T4"]),
        )
    )
    reference = reference_edges(history, conflicts)
    graph = build_graph(history, conflicts)
    nodes = {op.txn_id for op in history}
    assert set(graph.nodes) == nodes
    assert set(graph.edges) <= reference
    assert reachability(nodes, graph.edges) == reachability(nodes, reference)
    report = check(history, conflicts)
    if report.serializable:
        order = {txn: i for i, txn in enumerate(report.serial_order)}
        assert all(order[src] < order[dst] for src, dst in reference)
    else:
        assert report.cycle[0] == report.cycle[-1]
        assert set(zip(report.cycle, report.cycle[1:])) <= reference


@given(history=histories())
@settings(max_examples=150)
def test_serial_histories_always_serializable(history):
    """Reordering ops so each txn runs contiguously => serializable."""
    by_txn: dict[str, list[OpRecord]] = {}
    for op in history:
        by_txn.setdefault(op.txn_id, []).append(op)
    serial = [
        OpRecord(seq, op.txn_id, None, op.kind, op.table, op.key)
        for seq, op in enumerate(
            (op for txn in sorted(by_txn) for op in by_txn[txn]), start=1
        )
    ]
    assert check(serial).serializable


@given(history=histories())
@settings(max_examples=100)
def test_semantic_check_is_weaker_than_rw(history):
    """Everything rw-serializable is semantically serializable too
    (the semantic table only removes conflicts)."""
    if check(history, READ_WRITE_TABLE.conflicts).serializable:
        assert check(history, SEMANTIC_TABLE.conflicts).serializable


@given(history=histories(max_size=8))
@settings(max_examples=100)
def test_single_transaction_always_serializable(history):
    renamed = [
        OpRecord(op.seq, "T1", None, op.kind, op.table, op.key) for op in history
    ]
    assert check(renamed).serializable


@given(history=histories())
@settings(max_examples=100)
def test_prefix_of_serializable_history_not_made_cyclic_by_removal(history):
    """Dropping the last operation never creates a new cycle."""
    if check(history).serializable and history:
        assert check(history[:-1]).serializable
