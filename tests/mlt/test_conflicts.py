"""L1 conflict tables: commutativity semantics."""

import pytest

from repro.localdb.locks import PAGE_TABLE, ConflictTable, LockMode
from repro.mlt.conflicts import READ_WRITE_TABLE, SEMANTIC_TABLE


def test_semantic_modes():
    assert SEMANTIC_TABLE.mode_for("read") is LockMode.SHARED
    assert SEMANTIC_TABLE.mode_for("increment") is LockMode.INCREMENT
    for kind in ("write", "insert", "delete"):
        assert SEMANTIC_TABLE.mode_for(kind) is LockMode.EXCLUSIVE


def test_semantic_increments_commute():
    assert not SEMANTIC_TABLE.conflicts("increment", "increment")


def test_semantic_reads_share():
    assert not SEMANTIC_TABLE.conflicts("read", "read")


def test_semantic_read_vs_increment_conflicts():
    assert SEMANTIC_TABLE.conflicts("read", "increment")
    assert SEMANTIC_TABLE.conflicts("increment", "read")


def test_semantic_write_conflicts_with_everything():
    for kind in ("read", "increment", "write", "insert", "delete"):
        assert SEMANTIC_TABLE.conflicts("write", kind)


def test_rw_table_increment_is_a_write():
    assert READ_WRITE_TABLE.mode_for("increment") is LockMode.EXCLUSIVE
    assert READ_WRITE_TABLE.conflicts("increment", "increment")


def test_rw_table_reads_still_share():
    assert not READ_WRITE_TABLE.conflicts("read", "read")


def test_symmetry_of_conflicts():
    kinds = ("read", "write", "increment", "insert", "delete")
    for table in (SEMANTIC_TABLE, READ_WRITE_TABLE):
        for a in kinds:
            for b in kinds:
                assert table.conflicts(a, b) == table.conflicts(b, a)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        SEMANTIC_TABLE.mode_for("merge")


def test_custom_table():
    table = ConflictTable(
        "everything-commutes",
        {"read": LockMode.SHARED, "increment": LockMode.INCREMENT,
         "write": LockMode.EXCLUSIVE, "insert": LockMode.EXCLUSIVE,
         "delete": LockMode.EXCLUSIVE},
        [frozenset({LockMode.SHARED}), frozenset({LockMode.INCREMENT}),
         frozenset({LockMode.SHARED, LockMode.INCREMENT})],
    )
    assert not table.conflicts("read", "increment")
    assert table.conflicts("write", "write")


@pytest.mark.parametrize("table", [PAGE_TABLE, SEMANTIC_TABLE, READ_WRITE_TABLE])
def test_join_conflicts_exactly_like_both_modes(table):
    """A holder holds one mode, the join of what it asked for.  For every
    shipped table that join conflicts with exactly what either mode
    conflicts with, so grants and waits-for edges are the same as if the
    holder kept both."""
    for a in LockMode:
        for b in LockMode:
            joined = table.join(a, b)
            assert table.join(joined, a) is joined and table.join(joined, b) is joined
            for other in LockMode:
                assert table.compatible(joined, other) == (
                    table.compatible(a, other) and table.compatible(b, other)
                )
