"""ARIES-style crash recovery for a local database.

Three passes over the stable log:

1. *Analysis* -- find losers (begun, never ended) and in-doubt
   transactions (prepared, never ended).
2. *Redo* -- repeat history: reapply every update/CLR whose LSN is newer
   than the page's LSN.
3. *Undo* -- roll back losers with compensation records; in-doubt
   transactions are **not** undone: they are reinstated in the ready
   state with their exclusive locks, awaiting the global decision (only
   preparable engines ever have them).

Recovery is idempotent: running it twice leaves the same state, which a
property-based test verifies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.localdb.locks import LockMode
from repro.localdb.txn import LocalTransaction, LocalTxnState
from repro.storage.wal import (
    AbortRecord,
    BeginRecord,
    CommitRecord,
    CompensationRecord,
    PrepareRecord,
    UpdateRecord,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.localdb.engine import LocalDatabase


def recover(engine: "LocalDatabase") -> Generator[Any, Any, dict]:
    """Run analysis/redo/undo; returns a summary dict for tests."""
    stable = engine.disk.stable_log()
    last_lsn, losers, in_doubt = _analysis(stable)
    redone = yield from _redo(engine, stable)
    undone = yield from _undo(engine, stable, losers, last_lsn)
    yield from engine.log.force()
    reinstated = yield from _reinstate_in_doubt(engine, stable, in_doubt, last_lsn)
    return {
        "losers": sorted(losers),
        "in_doubt": sorted(in_doubt),
        "redone": redone,
        "undone": undone,
        "reinstated": reinstated,
    }


def _analysis(stable: list) -> tuple[dict[str, int], set[str], set[str]]:
    """Determine each transaction's last LSN and final disposition."""
    last_lsn: dict[str, int] = {}
    started: set[str] = set()
    prepared: set[str] = set()
    ended: set[str] = set()
    for record in stable:
        last_lsn[record.txn_id] = record.lsn
        if isinstance(record, BeginRecord):
            started.add(record.txn_id)
        elif isinstance(record, PrepareRecord):
            prepared.add(record.txn_id)
        elif isinstance(record, (CommitRecord, AbortRecord)):
            ended.add(record.txn_id)
    losers = started - prepared - ended
    in_doubt = prepared - ended
    return last_lsn, losers, in_doubt


def _redo(engine: "LocalDatabase", stable: list) -> Generator[Any, Any, int]:
    """Repeat history for every update and compensation record."""
    redone = 0
    for record in stable:
        if not isinstance(record, (UpdateRecord, CompensationRecord)):
            continue
        if record.table not in engine.catalog:
            continue
        heap = engine.catalog.heap(record.table)
        page = yield from engine.buffer.fetch(record.page_id)
        if page.page_lsn >= record.lsn:
            continue  # effect already on the stable page image
        if record.after is None:
            yield from heap.delete(record.key, record.lsn)
        else:
            yield from heap.write(record.key, record.after, record.lsn)
        redone += 1
    return redone


def _undo(
    engine: "LocalDatabase",
    stable: list,
    losers: set[str],
    last_lsn: dict[str, int],
) -> Generator[Any, Any, int]:
    """Roll back losers, writing CLRs, then an abort record each."""
    by_lsn = {record.lsn: record for record in stable}
    undone = 0
    for txn_id in sorted(losers):
        chain_lsn = last_lsn[txn_id]
        undo_point = chain_lsn
        while chain_lsn > 0:
            record = by_lsn.get(chain_lsn)
            if record is None:
                break  # chain reaches into the lost volatile tail
            if isinstance(record, UpdateRecord):
                heap = engine.catalog.heap(record.table)
                clr = engine.log.append(
                    CompensationRecord(
                        lsn=engine.log.next_lsn,
                        txn_id=txn_id,
                        prev_lsn=undo_point,
                        table=record.table,
                        key=record.key,
                        after=record.before,
                        page_id=record.page_id,
                        undo_of_lsn=record.lsn,
                        undo_next_lsn=record.prev_lsn,
                    )
                )
                undo_point = clr.lsn
                if record.before is None:
                    yield from heap.delete(record.key, clr.lsn)
                else:
                    yield from heap.write(record.key, record.before, clr.lsn)
                undone += 1
                chain_lsn = record.prev_lsn
            elif isinstance(record, CompensationRecord):
                chain_lsn = record.undo_next_lsn
            else:
                chain_lsn = record.prev_lsn
        engine.log.append(
            AbortRecord(lsn=engine.log.next_lsn, txn_id=txn_id, prev_lsn=undo_point)
        )
    return undone


def _reinstate_in_doubt(
    engine: "LocalDatabase",
    stable: list,
    in_doubt: set[str],
    last_lsn: dict[str, int],
) -> Generator[Any, Any, list[str]]:
    """Rebuild ready-state transactions and re-acquire their locks."""
    reinstated = []
    optimistic = engine.config.scheduler == "occ"
    for txn_id in sorted(in_doubt):
        txn = LocalTransaction(txn_id, engine.kernel.now, optimistic=optimistic)
        txn.state = LocalTxnState.READY
        txn.last_lsn = last_lsn[txn_id]
        for record in stable:
            if isinstance(record, PrepareRecord) and record.txn_id == txn_id:
                txn.gtxn_id = record.gtxn_id
        for record in stable:
            if isinstance(record, UpdateRecord) and record.txn_id == txn_id:
                txn.write_set.add((record.table, record.key))
                yield from engine.locks.acquire(
                    txn_id, (record.table, record.page_id), LockMode.EXCLUSIVE
                )
        # Live again: the crash's tombstone goes.
        engine._abort_reasons.pop(txn_id, None)
        engine._txns[txn_id] = txn
        reinstated.append(txn_id)
        engine.kernel.trace.emit(
            "txn_state", engine.site, txn_id, state="ready", recovered=True
        )
    # The table lists live transactions in begin order, which is the
    # order of the counters in their ids; ``sorted`` put "t10" first.
    engine._txns = dict(sorted(engine._txns.items(), key=lambda item: _begin_order(item[0])))
    return reinstated


def _begin_order(txn_id: str) -> int:
    """The begin counter of an engine-issued id (``"s1:t12"`` -> 12)."""
    return int(txn_id.rpartition(":t")[2])
