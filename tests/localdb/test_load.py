"""``LocalDatabase.load``: a bulk insert that leaves what inserts leave.

The federation builds its pre-existing databases with
:meth:`~LocalDatabase.load_table` -- the table defined and its rows
loaded as state, no simulated empty-page writes -- instead of
``create_table`` and one ``begin`` / ``insert`` per row / ``commit``
transaction per table.  The run that follows must not be able to
tell: the stable log, the stable page images, the buffer pool (frame
order, dirty set, recovery LSNs) and the op history must come out
identical, for ``load_table`` and for ``create_table`` + ``load``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.localdb.config import LocalDBConfig
from repro.localdb.engine import LocalDatabase
from repro.sim.kernel import Kernel
from repro.storage.disk import StableDisk
from repro.storage.wal import LogManager
from tests.conftest import run

#: (table, buckets, rows) loaded in order: the second load starts from
#: a pool full of the first one's dirty pages.
PAGED = [
    ("t", 512, {f"k{j}": 1000 + j for j in range(512)}),
    ("u", 32, {f"u{j}": j for j in range(96)}),
]
OPTIMISTIC = [
    ("t", 16, {f"k{j}": j for j in range(40)}),
    ("u", 8, {f"u{j}": -j for j in range(12)}),
]


def _as_state(db, table, buckets, rows):
    db.load_table(table, buckets, rows)  # no simulated time: nothing to yield
    yield from ()


def _loaded(db, table, buckets, rows):
    yield from db.create_table(table, buckets)
    db.load(table, rows)


def _inserted(db, table, buckets, rows):
    yield from db.create_table(table, buckets)
    if not rows:
        return
    txn = db.begin()
    for key, value in rows.items():
        yield from db.insert(txn, table, key, value)
    yield from db.commit(txn)


#: The two bulk paths, each checked against ``_inserted``.
BULK = (_as_state, _loaded)


def _build(fill, tables, config):
    db = LocalDatabase(Kernel(seed=1), "site", config)

    def setup():
        for table, buckets, rows in tables:
            yield from fill(db, table, buckets, rows)

    run(db.kernel, setup())
    return db


def _state(db, tables) -> dict:
    page_ids = [
        page_id for table, _b, _r in tables for page_id in db.catalog.heap(table).page_ids
    ]
    stable = {page_id: db.disk.stable_page(page_id) for page_id in page_ids}
    return {
        "stable_log": [repr(record) for record in db.disk.stable_log()],
        "pages": {
            page_id: (page.records, page.page_lsn) for page_id, page in stable.items()
        },
        "frames": [
            (page_id, page.records, page.page_lsn)
            for page_id, page in db.buffer._frames.items()
        ],
        "dirty": sorted(db.buffer._dirty),
        "rec_lsn": dict(db.buffer._rec_lsn),
        "ops": [
            (op.seq, op.txn_id, op.kind, op.table, op.key) for op in db.op_history
        ],
        "txn_counter": db._txn_counter,
        "flushed_lsn": db.log.flushed_lsn,
        "next_lsn": db.log.next_lsn,
        "tail": db.log.tail_records(),
        "records": [repr(db.log.record_at(lsn)) for lsn in range(1, db.log.next_lsn)],
    }


def test_load_leaves_what_inserts_leave():
    config = LocalDBConfig(buffer_capacity=64)
    inserted = _state(_build(_inserted, PAGED, config), PAGED)
    for fill in BULK:
        loaded = _state(_build(fill, PAGED, config), PAGED)
        assert len(loaded["frames"]) == 64 and loaded["dirty"]
        assert loaded["tail"] == [] and loaded["flushed_lsn"] == loaded["next_lsn"] - 1
        assert loaded == inserted, fill.__name__


def test_optimistic_load_leaves_the_pages_and_pool_of_inserts():
    config = LocalDBConfig(scheduler="occ", buffer_capacity=4)
    inserted = _state(_build(_inserted, OPTIMISTIC, config), OPTIMISTIC)
    # An optimistic insert is recorded as a "write" when it installs,
    # and so is an optimistic load's row.
    assert {kind for _seq, _txn, kind, _t, _k in inserted["ops"]} == {"write"}
    for fill in BULK:
        loaded = _state(_build(fill, OPTIMISTIC, config), OPTIMISTIC)
        assert loaded == inserted, fill.__name__


def test_an_empty_table_as_state_is_what_create_table_writes():
    tables = [("empty", 4, {}), *PAGED]
    config = LocalDBConfig(buffer_capacity=64)
    as_state = _build(_as_state, tables, config)
    assert _state(as_state, tables) == _state(_build(_inserted, tables, config), tables)
    assert as_state._txn_counter == len(PAGED)  # no transaction for no rows


def _installs_ahead_of_the_log(monkeypatch, fill) -> list[int]:
    """Load PAGED, noting each page image installed before its log."""
    ahead: list[int] = []
    install = StableDisk.install_image

    def checked(disk, image):
        stable = disk.stable_log()
        if image.page_lsn > (stable[-1].lsn if stable else 0):
            ahead.append(image.page_id)
        install(disk, image)

    with monkeypatch.context() as patch:
        patch.setattr(StableDisk, "install_image", checked)
        _build(fill, PAGED, LocalDBConfig(buffer_capacity=64))
    return ahead


def test_load_keeps_the_wal_rule(monkeypatch):
    for fill in BULK:
        assert _installs_ahead_of_the_log(monkeypatch, fill) == [], fill.__name__


def test_the_wal_rule_check_sees_a_missing_log_cut(monkeypatch):
    monkeypatch.setattr(LogManager, "harden", lambda log, upto_lsn: None)
    for fill in BULK:
        assert _installs_ahead_of_the_log(monkeypatch, fill), fill.__name__


def _refuse(name):
    def refused(*_args, **_kwargs):
        raise AssertionError(f"federation set-up called {name}")

    return refused


def test_a_federation_builds_its_tables_without_simulated_io(monkeypatch):
    monkeypatch.setattr(Kernel, "run_alone", _refuse("Kernel.run_alone"))
    monkeypatch.setattr(StableDisk, "write_image", _refuse("StableDisk.write_image"))
    specs = [
        SiteSpec(f"s{i}", tables={f"t{i}": {f"k{j}": j for j in range(96)}, f"e{i}": {}},
                 preparable=True, buckets=32)
        for i in range(2)
    ]
    fed = Federation(specs, FederationConfig(seed=1))  # with the commit-marker table
    assert fed.kernel.now == 0
    assert fed.peek("s0", "t0", "k95") == 95
    engine = fed.engines["s0"]
    assert all(
        engine.disk.has_page(page_id)
        for table in engine.catalog.table_names()
        for page_id in engine.catalog.heap(table)
    )


def _pinning(fill, pins):
    """``fill`` with ``pins`` (table -> {key: bucket}) pinned as soon as
    each table is defined, before any of its rows is placed."""

    def pinned(db, table, buckets, rows):
        def define_and_pin(name, bucket_count):
            heap = LocalDatabase._define_table(db, name, bucket_count)
            for key, bucket in pins.get(name, {}).items():
                db.pin_key(name, key, bucket)
            return heap

        db._define_table = define_and_pin
        yield from fill(db, table, buckets, rows)

    return pinned


@st.composite
def _layouts(draw):
    """1-3 tables of 1-64 buckets and 0-200 rows, some keys pinned."""
    tables, pins = [], {}
    for index in range(draw(st.integers(1, 3))):
        name = f"t{index}"
        buckets = draw(st.integers(1, 64))
        rows = {f"{name}-{j}": j for j in range(draw(st.integers(0, 200)))}
        pinned = draw(st.lists(st.sampled_from(sorted(rows)), unique=True)) if rows else []
        pins[name] = {key: draw(st.integers(0, buckets - 1)) for key in pinned}
        tables.append((name, buckets, rows))
    return tables, pins


@given(
    layout=_layouts(),
    capacity=st.integers(1, 16),
    scheduler=st.sampled_from(["2pl", "occ"]),
)
@settings(max_examples=60, deadline=None)
def test_load_table_leaves_what_inserts_leave_for_any_layout(layout, capacity, scheduler):
    """Small pools evict and reload pages mid-load, pins pile rows onto
    one page: the bulk placement must still end where inserts end."""
    tables, pins = layout
    config = LocalDBConfig(scheduler=scheduler, buffer_capacity=capacity)
    inserted = _state(_build(_pinning(_inserted, pins), tables, config), tables)
    loaded = _state(_build(_pinning(_as_state, pins), tables, config), tables)
    assert loaded == inserted


@pytest.mark.parametrize("scheduler", ["2pl", "occ"])
def test_a_load_appends_its_rows_as_one_batch(monkeypatch, scheduler):
    """``LogManager.append`` sees a load's begin and commit records only:
    its updates go in through ``LogManager.extend``, whatever the size."""
    appended: list[str] = []
    append = LogManager.append

    def counted(log, record):
        appended.append(type(record).__name__)
        return append(log, record)

    monkeypatch.setattr(LogManager, "append", counted)
    per_load = []
    for count in (512, 5):
        db = LocalDatabase(
            Kernel(seed=1), "site", LocalDBConfig(scheduler=scheduler, buffer_capacity=64)
        )
        appended.clear()
        db.load_table("t", 512, {f"k{j}": j for j in range(count)})
        assert db.log.next_lsn == count + 3
        per_load.append(list(appended))
    assert per_load[0] == per_load[1] == ["BeginRecord", "CommitRecord"]
