"""The standard vs. preparable TM interfaces -- the paper's premise."""

import pytest

from repro.errors import UnsupportedInterface
from repro.localdb.engine import LocalDatabase
from repro.localdb.interface import PreparableTMInterface, StandardTMInterface
from repro.localdb.txn import LocalTxnState
from tests.conftest import run


@pytest.fixture
def engine(kernel):
    db = LocalDatabase(kernel, "site")
    run(kernel, db.create_table("t", 4))
    return db


def test_standard_interface_has_no_prepare(kernel, engine):
    """The central observation: existing TMs offer no ready state."""
    interface = StandardTMInterface(engine)
    assert interface.has_prepare is False
    txn_id = interface.begin()
    with pytest.raises(UnsupportedInterface):
        run(kernel, interface.prepare(txn_id))


def test_standard_commit_is_atomic_transition(kernel, engine):
    """No externally visible state between running and committed."""
    interface = StandardTMInterface(engine)
    txn_id = interface.begin()
    states = []

    def proc():
        yield from interface.write(txn_id, "t", "k", 1)
        states.append(interface.status(txn_id))
        yield from interface.commit(txn_id)
        states.append(interface.status(txn_id))

    run(kernel, proc())
    assert states == [LocalTxnState.RUNNING, LocalTxnState.COMMITTED]


def test_preparable_interface_reaches_ready(kernel, engine):
    interface = PreparableTMInterface(engine)
    assert interface.has_prepare is True
    txn_id = interface.begin(gtxn_id="G1")

    def proc():
        yield from interface.write(txn_id, "t", "k", 1)
        yield from interface.prepare(txn_id)
        return interface.status(txn_id)

    assert run(kernel, proc()) is LocalTxnState.READY


def test_ready_txn_can_commit(kernel, engine):
    interface = PreparableTMInterface(engine)
    txn_id = interface.begin()

    def proc():
        yield from interface.write(txn_id, "t", "k", 5)
        yield from interface.prepare(txn_id)
        yield from interface.commit(txn_id)
        check = interface.begin()
        value = yield from interface.read(check, "t", "k")
        yield from interface.commit(check)
        return value

    assert run(kernel, proc()) == 5


def test_ready_txn_can_abort(kernel, engine):
    interface = PreparableTMInterface(engine)
    txn_id = interface.begin()

    def proc():
        yield from interface.write(txn_id, "t", "k", 5)
        yield from interface.prepare(txn_id)
        yield from interface.abort(txn_id)
        check = interface.begin()
        value = yield from interface.read(check, "t", "k")
        yield from interface.commit(check)
        return value

    assert run(kernel, proc()) is None


def test_prepare_forces_log(kernel, engine):
    interface = PreparableTMInterface(engine)
    txn_id = interface.begin()

    def proc():
        yield from interface.write(txn_id, "t", "k", 1)
        before = engine.disk.log_forces
        yield from interface.prepare(txn_id)
        return before

    before = run(kernel, proc())
    assert engine.disk.log_forces == before + 1


def test_ready_state_bookkeeping_is_named(kernel, engine):
    """The read-only test, a ready local by global id, the in-doubt list."""
    interface = PreparableTMInterface(engine)
    reader = interface.begin(gtxn_id="G1")
    writer = interface.begin(gtxn_id="G2")

    def proc():
        yield from engine.create_table("u", 1)
        yield from interface.read(reader, "u", "k")
        yield from interface.write(writer, "t", "k", 1)
        assert interface.is_read_only(reader)
        assert not interface.is_read_only(writer)
        assert interface.ready_txn("G2") is None  # still running
        yield from interface.prepare(writer)

    run(kernel, proc())
    assert interface.ready_txn("G2") == writer
    assert interface.ready_txn("G1") is None
    assert interface.ready_txn("G9") is None
    assert interface.in_doubt() == ["G2"]


def test_status_of_unknown_txn_is_none(engine):
    interface = StandardTMInterface(engine)
    assert interface.status("ghost") is None


def test_all_operations_via_interface(kernel, engine):
    interface = StandardTMInterface(engine)
    txn_id = interface.begin()

    def proc():
        yield from interface.insert(txn_id, "t", "n", 10)
        value = yield from interface.increment(txn_id, "t", "n", 5)
        yield from interface.write(txn_id, "t", "m", 1)
        yield from interface.delete(txn_id, "t", "m")
        rows = yield from interface.scan(txn_id, "t")
        yield from interface.commit(txn_id)
        return value, rows

    value, rows = run(kernel, proc())
    assert value == 15
    assert rows == [("n", 15)]
