"""``LocalDatabase.load``: a bulk insert that leaves what inserts leave.

The federation seeds its pre-existing databases with :meth:`load`
instead of one ``begin`` / ``insert`` per row / ``commit`` transaction
per table.  The run that follows must not be able to tell: the stable
log, the stable page images, the buffer pool (frame order, dirty set,
recovery LSNs) and the op history must come out identical.
"""

from __future__ import annotations

from repro.localdb.config import LocalDBConfig
from repro.localdb.engine import LocalDatabase
from repro.sim.kernel import Kernel
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


def _inserted(db, table, rows):
    txn = db.begin()
    for key, value in rows.items():
        yield from db.insert(txn, table, key, value)
    yield from db.commit(txn)


def _build(fill, tables, config):
    db = LocalDatabase(Kernel(seed=1), "site", config)

    def setup():
        for table, buckets, rows in tables:
            yield from db.create_table(table, buckets)
            yield from fill(db, table, rows)

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
    }


def test_load_leaves_what_inserts_leave():
    config = LocalDBConfig(buffer_capacity=64)
    loaded = _state(_build(LocalDatabase.load, PAGED, config), PAGED)
    inserted = _state(_build(_inserted, PAGED, config), PAGED)
    assert len(loaded["frames"]) == 64 and loaded["dirty"]
    assert loaded == inserted


def test_optimistic_load_leaves_the_pages_and_pool_of_inserts():
    config = LocalDBConfig(scheduler="occ", buffer_capacity=4)
    loaded = _state(_build(LocalDatabase.load, OPTIMISTIC, config), OPTIMISTIC)
    inserted = _state(_build(_inserted, OPTIMISTIC, config), OPTIMISTIC)
    # An optimistic insert is recorded as a "write" when it installs.
    del loaded["ops"], inserted["ops"]
    assert loaded == inserted
