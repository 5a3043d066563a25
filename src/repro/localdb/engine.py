"""The local database engine.

One :class:`LocalDatabase` models one *existing database system* of the
paper's architecture: heap storage behind a buffer pool, a write-ahead
log, a pluggable scheduler (strict 2PL or optimistic backward
validation), WAL-based crash recovery and autonomous abort behaviour
(deadlock victims, lock timeouts, validation failures, injected system
aborts, crashes) -- the exact sources of *erroneous* local aborts that
drive the paper's §3.2 analysis.

All data operations are generators and must be driven with
``yield from`` inside a simulation process; they consume simulated CPU
and I/O time and may block on locks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.serializability import OpRecord
from repro.errors import (
    DeadlockDetected,
    DuplicateKey,
    InvalidTransactionState,
    KeyNotFound,
    LockTimeout,
    SiteCrashed,
    TransactionAborted,
)
from repro.localdb.catalog import Catalog
from repro.localdb.config import LocalDBConfig
from repro.localdb.locks import LockManager, LockMode
from repro.localdb.txn import LocalAbortReason, LocalTransaction, LocalTxnState
from repro.sim.sync import FifoLock
from repro.storage.buffer import BufferPool
from repro.storage.disk import StableDisk
from repro.storage.heap import HeapFile
from repro.storage.page import Page
from repro.storage.wal import (
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    CompensationRecord,
    LogManager,
    PrepareRecord,
    UpdateRecord,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process


class LocalDatabase:
    """A complete single-site database system."""

    def __init__(self, kernel: "Kernel", site: str, config: Optional[LocalDBConfig] = None):
        self.kernel = kernel
        self.site = site
        self.config = config or LocalDBConfig()
        self.disk = StableDisk(kernel, site, self.config.storage)
        self.log = LogManager(
            self.disk,
            kernel=kernel,
            group_commit_window=self.config.group_commit_window,
        )
        self.buffer = BufferPool(self.disk, self.log, self.config.buffer_capacity)
        self.locks = LockManager(
            kernel,
            site,
            default_timeout=self.config.lock_timeout,
        )
        self.catalog = Catalog(self.disk)
        self.crashed = False
        # The transaction table: running and ready transactions only, in
        # begin order.  An ended transaction is forgotten and leaves a
        # tombstone: its id in ``committed_txn_ids`` or its abort reason
        # in ``_abort_reasons``.
        self._txns: dict[str, LocalTransaction] = {}
        self._abort_reasons: dict[str, LocalAbortReason] = {}
        self._txn_counter = 0
        # Optimistic scheduler state, per (table, key): the commit
        # sequence number of its last install, and while an install owns
        # it (from its start until it ends, or for a prepared install
        # until its owner is decided), that owner and the sequence number
        # a rollback restores.
        self._commit_seq = 0
        self._last_write: dict[tuple[str, Any], int] = {}
        self._held: dict[tuple[str, Any], tuple[str, int]] = {}
        self._occ_gate = FifoLock(name=f"{site}:occ-commit")
        # The history every audit reads (``committed_history``).
        self._op_seq = 0
        self.op_history: list[OpRecord] = []
        self.committed_txn_ids: set[str] = set()
        # Short-Commit exposure state: a prepared transaction that
        # downgraded its write locks has *exposed* uncommitted values.
        # Readers of exposed pages pick up a commit dependency and are
        # cascade-aborted if the exposer rolls back.
        self._exposed: dict[str, set[Any]] = {}  # exposer txn -> resources
        self._exposed_pages: dict[Any, str] = {}  # resource -> exposer txn
        self._commit_deps: dict[str, set[str]] = {}  # reader -> exposers
        self._dependents: dict[str, set[str]] = {}  # exposer -> readers
        # Rollbacks that restored a before-image over a value some other
        # transaction wrote in the meantime -- impossible while write
        # locks are held (or merely downgraded) to the end, so any entry
        # is a §3.3 dirty-write hazard; the invariant battery flags them.
        self.undo_clobbers: list[tuple[str, str, Any]] = []
        # Metrics.
        self.commits = 0
        self.aborts: dict[LocalAbortReason, int] = {r: 0 for r in LocalAbortReason}
        self.ops = 0
        self.crashes = 0
        self.checkpoints = 0

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def create_table(self, name: str, bucket_count: int) -> Generator[Any, Any, None]:
        """Create a table of ``bucket_count`` pages on stable storage."""
        heap = self._define_table(name, bucket_count)
        yield from heap.initialize()

    def load_table(self, name: str, bucket_count: int, rows: dict[Any, Any]) -> None:
        """:meth:`create_table`, then :meth:`load` ``rows`` (if any), as state.

        The table of a database that exists before the run: no
        simulated time passes and nothing is counted.  A page the load
        evicts leaves its frame as its stable image; every page still
        without one gets the empty image ``create_table`` would have
        written.
        """
        heap = self._define_table(name, bucket_count)
        if rows:
            self.load(name, rows)
        disk = self.disk
        for page_id in heap:
            if not disk.has_page(page_id):
                disk.install_image(Page(page_id, name))

    def _define_table(self, name: str, bucket_count: int) -> HeapFile:
        definition = self.catalog.define(name, bucket_count)
        heap = HeapFile(
            name, self.disk, self.buffer, definition.first_page_id, bucket_count
        )
        self.catalog.attach_heap(name, heap)
        return heap

    def load(self, table: str, rows: dict[Any, Any]) -> None:
        """Bulk-insert ``rows`` into ``table``, freshly created and empty.

        Builds the log, pages and buffer pool ``begin`` / :meth:`insert`
        per row / :meth:`commit` would leave, in no simulated time: the
        database exists before the run starts.  The whole transaction
        is logged in one batch and made stable first, so every page the
        placement (``BufferPool.place``) evicts already has its log on
        disk.
        """
        txn = self.begin()
        log = self.log
        txn_id = txn.txn_id
        if self.config.scheduler == "occ":
            # An optimistic transaction logs its begin when it installs.
            txn.last_lsn = log.append(BeginRecord(log.next_lsn, txn_id, 0)).lsn
        page_of = self.catalog.heap(table).page_of
        updates = []
        prev_lsn = txn.last_lsn
        for lsn, (key, value) in enumerate(rows.items(), log.next_lsn):
            updates.append(
                UpdateRecord(lsn, txn_id, prev_lsn, table, key, None, value, page_of(key))
            )
            prev_lsn = lsn
        log.extend(updates)
        # An optimistic insert installs as a "write" (see _occ_install).
        kind = "write" if self.config.scheduler == "occ" else "insert"
        self.op_history.extend(
            OpRecord(seq, txn_id, None, kind, table, key)
            for seq, key in enumerate(rows, self._op_seq + 1)
        )
        self._op_seq += len(rows)
        txn.last_lsn = prev_lsn
        log.harden(self._append_commit_record(txn))
        self.buffer.place(table, updates)
        self._finalize_commit(txn)

    def pin_key(self, table: str, key: Any, bucket_index: int) -> None:
        """Co-locate ``key`` on a chosen page (Figure 8 setups)."""
        self.catalog.pin_key(table, key, bucket_index)

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def begin(self, gtxn_id: Optional[str] = None) -> LocalTransaction:
        """Start a transaction (immediate; no I/O)."""
        if self.crashed:
            raise SiteCrashed(f"{self.site} is down")
        self._txn_counter += 1
        txn_id = f"{self.site}:t{self._txn_counter}"
        optimistic = self.config.scheduler == "occ"
        txn = LocalTransaction(
            txn_id, self.kernel.now, start_commit_seq=self._commit_seq, optimistic=optimistic
        )
        txn.gtxn_id = gtxn_id
        self._txns[txn_id] = txn
        if not optimistic:
            record = self.log.append(
                BeginRecord(lsn=self.log.next_lsn, txn_id=txn_id, prev_lsn=0)
            )
            txn.first_lsn = record.lsn
            txn.last_lsn = record.lsn
        self._trace_state(txn)
        return txn

    def txn(self, txn_id: str) -> LocalTransaction:
        """The live transaction ``txn_id``, or its tombstone if it ended.

        A tombstone (:meth:`LocalTransaction.tombstone`) answers every
        data operation, ``commit`` and ``abort`` as the ended
        transaction would: the same state, exception and reason.
        """
        txn = self._txns.get(txn_id)
        if txn is not None:
            return txn
        if txn_id in self.committed_txn_ids:
            return LocalTransaction.tombstone(txn_id, LocalTxnState.COMMITTED, None)
        reason = self._abort_reasons.get(txn_id)
        if reason is None:
            raise InvalidTransactionState(f"unknown transaction {txn_id}")
        return LocalTransaction.tombstone(txn_id, LocalTxnState.ABORTED, reason)

    def active_txns(self) -> list[LocalTransaction]:
        return list(self._txns.values())

    def find_by_gtxn(self, gtxn_id: str) -> Optional[LocalTransaction]:
        """Latest live local transaction belonging to ``gtxn_id``, if any."""
        found = None
        for txn in self._txns.values():
            if txn.gtxn_id == gtxn_id:
                found = txn
        return found

    # ------------------------------------------------------------------
    # Data operations
    # ------------------------------------------------------------------

    def read(self, txn: LocalTransaction, table: str, key: Any) -> Generator[Any, Any, Any]:
        """Return the value under ``key`` or ``None`` if absent."""
        yield from self._pre_op(txn)
        if self.config.scheduler == "occ":
            value = yield from self._occ_read(txn, table, key)
        else:
            heap = self.catalog.heap(table)
            page_id = heap.page_of(key)
            yield from self._acquire(txn, table, page_id, LockMode.SHARED)
            if self._exposed_pages:
                self._note_dirty_read(txn, (table, page_id))
            value = yield from heap.read(key)
            self._check_txn(txn)
        self._record_op(txn, "read", table, key)
        return value

    def write(
        self, txn: LocalTransaction, table: str, key: Any, value: Any
    ) -> Generator[Any, Any, None]:
        """Insert-or-overwrite ``key`` with ``value``."""
        yield from self._pre_op(txn)
        if self.config.scheduler == "occ":
            txn.workspace[(table, key)] = ("write", value)
            txn.write_set.add((table, key))
            return
        yield from self._apply_write(txn, "write", table, key, value)

    def insert(
        self, txn: LocalTransaction, table: str, key: Any, value: Any
    ) -> Generator[Any, Any, None]:
        """Insert ``key``; raises :class:`DuplicateKey` if present."""
        yield from self._pre_op(txn)
        exists = yield from self._current_exists(txn, table, key)
        if exists:
            raise DuplicateKey(f"{table}[{key!r}]")
        if self.config.scheduler == "occ":
            txn.workspace[(table, key)] = ("write", value)
            txn.write_set.add((table, key))
            return
        yield from self._apply_write(txn, "insert", table, key, value)

    def delete(self, txn: LocalTransaction, table: str, key: Any) -> Generator[Any, Any, None]:
        """Delete ``key``; raises :class:`KeyNotFound` if absent."""
        yield from self._pre_op(txn)
        exists = yield from self._current_exists(txn, table, key)
        if not exists:
            raise KeyNotFound(f"{table}[{key!r}]")
        if self.config.scheduler == "occ":
            txn.workspace[(table, key)] = ("delete", None)
            txn.write_set.add((table, key))
            return
        yield from self._apply_write(txn, "delete", table, key, None)

    def increment(
        self, txn: LocalTransaction, table: str, key: Any, delta: Any
    ) -> Generator[Any, Any, Any]:
        """Add ``delta`` to a numeric value; returns the new value.

        At this level (L0) an increment is a read-modify-write and
        conflicts like a write; the commutativity is exploited one level
        up, by the L1 conflict table of :mod:`repro.mlt`.
        """
        yield from self._pre_op(txn)
        if self.config.scheduler == "occ":
            before = yield from self._occ_read(txn, table, key)
            if before is None:
                raise KeyNotFound(f"{table}[{key!r}]")
            txn.workspace[(table, key)] = ("write", before + delta)
            txn.write_set.add((table, key))
            self._record_op(txn, "increment", table, key)
            return before + delta
        heap = self.catalog.heap(table)
        yield from self._acquire(txn, table, heap.page_of(key), LockMode.EXCLUSIVE)
        before = yield from heap.read(key)
        self._check_txn(txn)
        if before is None:
            raise KeyNotFound(f"{table}[{key!r}]")
        after = before + delta
        record = self._log_update(txn, table, key, before, after, heap.page_of(key))
        yield from heap.write(key, after, record.lsn)
        self._check_txn(txn)
        txn.write_set.add((table, key))
        self._record_op(txn, "increment", table, key)
        return after

    def scan(self, txn: LocalTransaction, table: str) -> Generator[Any, Any, list]:
        """All committed (key, value) pairs of ``table`` (S-locks all pages)."""
        yield from self._pre_op(txn)
        heap = self.catalog.heap(table)
        if self.config.scheduler == "2pl":
            for page_id in heap.page_ids:
                yield from self._acquire(txn, table, page_id, LockMode.SHARED)
                if self._exposed_pages:
                    self._note_dirty_read(txn, (table, page_id))
        rows = yield from heap.scan()
        self._check_txn(txn)
        if self.config.scheduler == "occ":
            overlay = {
                key: op for (tbl, key), op in txn.workspace.items() if tbl == table
            }
            merged = {k: v for k, v in rows}
            for key, (kind, value) in overlay.items():
                if kind == "delete":
                    merged.pop(key, None)
                else:
                    merged[key] = value
            rows = sorted(merged.items(), key=lambda kv: repr(kv[0]))
            for key, _value in rows:
                self._occ_note_read(txn, (table, key))
        return rows

    # ------------------------------------------------------------------
    # Commit / abort / prepare
    # ------------------------------------------------------------------

    def commit(self, txn: LocalTransaction) -> Generator[Any, Any, None]:
        """Commit: force the commit record, then release locks.

        With the standard interface this transition is atomic from the
        caller's perspective -- there is no externally visible state
        between *running* and *committed*, which is precisely why plain
        2PC cannot be layered on top of it.
        """
        self._check_txn(txn)
        txn.require_state(LocalTxnState.RUNNING, LocalTxnState.READY)
        yield self.config.storage.cpu_op_time
        self._check_txn(txn)
        while self._commit_deps.get(txn.txn_id):
            # Short-Commit dirty-read guard: this transaction read
            # values exposed by a prepared-but-unresolved transaction.
            # Committing now would make a dirty read durable, so wait
            # until every exposer resolved (its commit clears the
            # dependency; its abort cascade-aborts us).
            yield 1.0
            self._check_txn(txn)
        if self.config.scheduler == "occ" and txn.state is LocalTxnState.RUNNING:
            yield from self._occ_commit(txn)
            return
        yield from self.log.force(self._append_commit_record(txn))
        if self.crashed:
            # The force rode a group window that a crash emptied; the
            # commit record never reached stable storage.
            raise TransactionAborted(txn.txn_id, LocalAbortReason.CRASH)
        self._finalize_commit(txn)

    def abort(
        self,
        txn: LocalTransaction,
        reason: LocalAbortReason = LocalAbortReason.REQUESTED,
    ) -> Generator[Any, Any, None]:
        """Roll back and release (intended abort unless stated otherwise)."""
        self._check_txn(txn)
        txn.require_state(LocalTxnState.RUNNING, LocalTxnState.READY)
        yield from self._rollback(txn, reason)

    def prepare(self, txn: LocalTransaction) -> Generator[Any, Any, None]:
        """Enter the ready state (modified TMs only; see interface module)."""
        self._check_txn(txn)
        txn.require_state(LocalTxnState.RUNNING)
        while self._commit_deps.get(txn.txn_id):
            # Short-Commit dirty-read guard, prepare half: voting yes
            # with an unresolved exposer would let the coordinator
            # commit a dirty read (the ready state is a promise not to
            # abort, but the exposer's rollback must still cascade
            # here).  Hold the vote until every exposer resolved.
            yield 1.0
            self._check_txn(txn)
        if self.config.scheduler == "occ":
            # A preparable OCC engine validates at prepare time and
            # installs its workspace under commit locks, deferring only
            # the final commit record.
            yield from self._occ_install(txn, prepared=True)
        record = self.log.append(
            PrepareRecord(
                lsn=self.log.next_lsn,
                txn_id=txn.txn_id,
                prev_lsn=txn.last_lsn,
                gtxn_id=txn.gtxn_id,
            )
        )
        txn.last_lsn = record.lsn
        yield from self.log.force(record.lsn)
        self._check_txn(txn)
        txn.state = LocalTxnState.READY
        self._trace_state(txn)

    def short_release(self, txn: LocalTransaction, downgrade: bool = True) -> list:
        """Short-Commit early release on a *ready* transaction.

        Read locks are released; write locks are downgraded to shared
        (``downgrade=False`` -- the seeded mutant -- releases them
        too).  Pages whose exclusive lock was given up while this
        transaction's writes are uncommitted become exposed: readers
        that touch them pick up a commit dependency and are
        cascade-aborted if this transaction rolls back.  Immediate (no
        I/O): pure lock-table work.
        """
        self._check_txn(txn)
        txn.require_state(LocalTxnState.READY)
        exposed = self.locks.short_release(txn.txn_id, downgrade=downgrade)
        if exposed:
            self._exposed[txn.txn_id] = set(exposed)
            for resource in exposed:
                self._exposed_pages[resource] = txn.txn_id
        return exposed

    def force_abort(self, txn_id: str, reason: LocalAbortReason) -> "Process":
        """Asynchronously abort a transaction from outside its process.

        Used by the fault injector ("system abort") and by commit
        protocols reacting to the global decision.  Returns the spawned
        rollback process.  No-op (returns a finished process) when the
        transaction is already finishing or terminated.
        """
        txn = self._txns.get(txn_id)

        def _noop() -> Generator[Any, Any, None]:
            return
            yield  # pragma: no cover - makes this a generator

        if txn is None or not txn.active or txn.finishing:
            return self.kernel.spawn(_noop(), name=f"abort-noop:{txn_id}")
        self.locks.cancel_wait(txn_id, TransactionAborted(txn_id, reason))

        def _do_abort() -> Generator[Any, Any, None]:
            if txn.active and not txn.finishing:
                yield from self._rollback(txn, reason)

        return self.kernel.spawn(_do_abort(), name=f"force-abort:{txn_id}")

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> Generator[Any, Any, int]:
        """Sharp checkpoint: flush dirty pages, then truncate the log.

        Every page effect up to now becomes durable, so the stable log
        only needs to reach back to the oldest *active* transaction's
        begin record (its undo chain).  Returns the number of stable
        log records dropped.
        """
        yield from self.buffer.flush_all()
        active = {t.txn_id: t.last_lsn for t in self._txns.values()}
        record = self.log.append(
            CheckpointRecord(
                lsn=self.log.next_lsn, txn_id="", prev_lsn=0, active_txns=active
            )
        )
        yield from self.log.force(record.lsn)
        candidates = [t.first_lsn for t in self._txns.values() if t.first_lsn > 0]
        # Pages dirtied while (or after) we flushed still need their
        # redo records: never truncate past the oldest recovery LSN.
        min_dirty = self.buffer.min_rec_lsn()
        if min_dirty is not None:
            candidates.append(max(1, min_dirty))
        candidates.append(record.lsn)
        safe_lsn = min(candidates)
        dropped = self.log.truncate_stable(safe_lsn)
        self.checkpoints += 1
        self.kernel.trace.emit(
            "checkpoint", self.site, f"lsn{record.lsn}",
            safe_lsn=safe_lsn, dropped=dropped,
        )
        return dropped

    def start_checkpointing(self, interval: float) -> "Process":
        """Spawn a background process taking periodic checkpoints."""

        def checkpointer() -> Generator[Any, Any, None]:
            while True:
                yield interval
                if not self.crashed:
                    yield from self.checkpoint()

        return self.kernel.spawn(checkpointer(), name=f"checkpointer:{self.site}")

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state instantly (the site fails)."""
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        self.disk.crash_epoch += 1
        for txn in self._txns.values():
            txn.state = LocalTxnState.ABORTED
            txn.abort_reason = LocalAbortReason.CRASH
            txn.end_time = self.kernel.now
            self.aborts[LocalAbortReason.CRASH] += 1
            self._abort_reasons[txn.txn_id] = LocalAbortReason.CRASH
            self._trace_state(txn)
        self._txns.clear()
        self.locks.crash()
        self.buffer.crash()
        self.log.crash()
        self._exposed.clear()
        self._exposed_pages.clear()
        self._commit_deps.clear()
        self._dependents.clear()
        self._occ_gate.reset(SiteCrashed(f"{self.site} crashed"))
        self.kernel.trace.emit("site", self.site, "crash")

    def restart(self) -> Generator[Any, Any, None]:
        """Recover from stable storage and come back up."""
        from repro.localdb.recovery import recover

        if not self.crashed:
            raise InvalidTransactionState(f"{self.site} is not crashed")
        self.locks = LockManager(
            self.kernel,
            self.site,
            default_timeout=self.config.lock_timeout,
        )
        self.buffer = BufferPool(self.disk, self.log, self.config.buffer_capacity)
        self.log.rebuild_after_crash()
        self.catalog.reload(self.buffer)
        self._occ_gate = FifoLock(name=f"{self.site}:occ-commit")
        yield from recover(self)
        # The in-doubt installs recovery reinstated still own their keys;
        # the installs it undid own none.
        self._held = {key: held for key, held in self._held.items() if held[0] in self._txns}
        self.crashed = False
        self.kernel.trace.emit("site", self.site, "restart")

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def current_page(self, page_id: int) -> Optional[Page]:
        """The page as an outside observer sees it, with no I/O or locks.

        The buffered image if resident, else the stable one (``None``
        if the page was never written); for assertions and audits only.
        """
        if self.buffer.resident(page_id):
            return self.buffer._frames[page_id]
        return self.disk.stable_page(page_id)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        """Snapshot of this site's counters."""
        return {
            "site": self.site,
            "commits": self.commits,
            "aborts": {r.value: n for r, n in self.aborts.items() if n},
            "ops": self.ops,
            "crashes": self.crashes,
            "lock_waits": self.locks.waits,
            "lock_wait_time": self.locks.total_wait_time,
            "lock_hold_time": self.locks.total_hold_time,
            "lock_exclusive_hold_time": self.locks.total_exclusive_hold_time,
            "lock_downgrades": self.locks.downgrades,
            "deadlocks": self.locks.deadlocks,
            "lock_timeouts": self.locks.timeouts,
            "log_forces": self.disk.log_forces,
            "log_records": self.log.appended,
            "page_reads": self.disk.page_reads,
            "page_writes": self.disk.page_writes,
            "buffer_hits": self.buffer.hits,
            "buffer_misses": self.buffer.misses,
        }

    def zero_counters(self) -> None:
        """Zero this site's counters: set-up work is not run work."""
        self.commits = self.ops = 0
        self.aborts = dict.fromkeys(self.aborts, 0)
        self.disk.page_reads = self.disk.page_writes = self.disk.log_forces = 0
        self.log.appended = self.log.forced = 0
        self.buffer.hits = self.buffer.misses = self.buffer.evictions = 0
        locks = self.locks
        locks.grants = locks.waits = locks.releases = locks.downgrades = 0
        locks.deadlocks = locks.timeouts = 0
        locks.total_wait_time = locks.total_hold_time = 0.0
        locks.total_exclusive_hold_time = locks.max_hold_time = 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _pre_op(self, txn: LocalTransaction) -> Generator[Any, Any, None]:
        self._check_txn(txn)
        txn.require_state(LocalTxnState.RUNNING)
        self.ops += 1
        txn.ops_executed += 1
        yield self.config.storage.cpu_op_time
        self._check_txn(txn)

    def _check_txn(self, txn: LocalTransaction) -> None:
        if txn.state is LocalTxnState.ABORTED:
            raise TransactionAborted(txn.txn_id, txn.abort_reason)
        if self.crashed:
            raise SiteCrashed(f"{self.site} is down")

    def _acquire(
        self, txn: LocalTransaction, table: str, page_id: int, mode: LockMode
    ) -> Generator[Any, Any, None]:
        """Lock with automatic rollback on deadlock/timeout."""
        try:
            yield from self.locks.acquire(txn.txn_id, (table, page_id), mode)
        except DeadlockDetected as exc:
            yield from self._rollback(txn, LocalAbortReason.DEADLOCK)
            raise TransactionAborted(txn.txn_id, LocalAbortReason.DEADLOCK) from exc
        except LockTimeout as exc:
            yield from self._rollback(txn, LocalAbortReason.TIMEOUT)
            raise TransactionAborted(txn.txn_id, LocalAbortReason.TIMEOUT) from exc
        self._check_txn(txn)

    def _current_exists(
        self, txn: LocalTransaction, table: str, key: Any
    ) -> Generator[Any, Any, bool]:
        """Does ``key`` exist from this transaction's point of view?"""
        if self.config.scheduler == "occ":
            if (table, key) in txn.workspace:
                kind, _value = txn.workspace[(table, key)]
                return kind != "delete"
            heap = self.catalog.heap(table)
            exists = yield from heap.exists(key)
            self._occ_note_read(txn, (table, key))
            self._check_txn(txn)
            return exists
        heap = self.catalog.heap(table)
        yield from self._acquire(txn, table, heap.page_of(key), LockMode.EXCLUSIVE)
        exists = yield from heap.exists(key)
        self._check_txn(txn)
        return exists

    def _apply_write(
        self,
        txn: LocalTransaction,
        kind: str,
        table: str,
        key: Any,
        value: Any,
    ) -> Generator[Any, Any, None]:
        """2PL write path: lock, log (WAL), apply."""
        heap = self.catalog.heap(table)
        page_id = heap.page_of(key)
        yield from self._acquire(txn, table, page_id, LockMode.EXCLUSIVE)
        before = yield from heap.read(key)
        self._check_txn(txn)
        after = None if kind == "delete" else value
        record = self._log_update(txn, table, key, before, after, page_id)
        if kind == "delete":
            yield from heap.delete(key, record.lsn)
        else:
            yield from heap.write(key, value, record.lsn)
        self._check_txn(txn)
        txn.write_set.add((table, key))
        self._record_op(txn, kind, table, key)

    def _log_update(
        self,
        txn: LocalTransaction,
        table: str,
        key: Any,
        before: Any,
        after: Any,
        page_id: int,
    ) -> UpdateRecord:
        record = self.log.append(
            UpdateRecord(
                lsn=self.log.next_lsn,
                txn_id=txn.txn_id,
                prev_lsn=txn.last_lsn,
                table=table,
                key=key,
                before=before,
                after=after,
                page_id=page_id,
            )
        )
        txn.last_lsn = record.lsn
        return record

    def _record_op(self, txn: LocalTransaction, kind: str, table: str, key: Any) -> None:
        self._op_seq += 1
        self.op_history.append(
            OpRecord(self._op_seq, txn.txn_id, txn.gtxn_id, kind, table, key)
        )

    def _note_dirty_read(self, txn: LocalTransaction, resource: Any) -> None:
        """Record a read of an exposed page (Short-Commit guard)."""
        exposer = self._exposed_pages.get(resource)
        if exposer is None or exposer == txn.txn_id:
            return
        self._commit_deps.setdefault(txn.txn_id, set()).add(exposer)
        self._dependents.setdefault(exposer, set()).add(txn.txn_id)

    def _resolve_exposure(self, txn: LocalTransaction, aborted: bool) -> None:
        """An exposed transaction reached its final state.

        On commit the dependent readers' dirty reads retroactively
        became clean and their commits may proceed.  On abort every
        *active* dependent reader consumed values that never existed:
        cascade-abort them (retriable at the global layer).
        """
        exposed = self._exposed.pop(txn.txn_id, None)
        if exposed is None:
            return
        for resource in exposed:
            if self._exposed_pages.get(resource) == txn.txn_id:
                del self._exposed_pages[resource]
        for reader_id in sorted(self._dependents.pop(txn.txn_id, ())):
            deps = self._commit_deps.get(reader_id)
            if deps is not None:
                deps.discard(txn.txn_id)
                if not deps:
                    del self._commit_deps[reader_id]
            if aborted:
                self.force_abort(reader_id, LocalAbortReason.CASCADE)

    def _append_commit_record(self, txn: LocalTransaction) -> int:
        txn.finishing = True
        record = self.log.append(
            CommitRecord(lsn=self.log.next_lsn, txn_id=txn.txn_id, prev_lsn=txn.last_lsn)
        )
        txn.last_lsn = record.lsn
        return record.lsn

    def _finalize_commit(self, txn: LocalTransaction) -> None:
        txn.state = LocalTxnState.COMMITTED
        txn.end_time = self.kernel.now
        if self._exposed:
            self._resolve_exposure(txn, aborted=False)
        if self._held:
            self._occ_release(txn, undone=False)
        self.locks.release_all(txn.txn_id)
        self.commits += 1
        self.committed_txn_ids.add(txn.txn_id)
        self._forget(txn)
        self._trace_state(txn)

    def _rollback(
        self, txn: LocalTransaction, reason: LocalAbortReason
    ) -> Generator[Any, Any, None]:
        """Undo the logged updates (an optimistic workspace not yet
        installed has none: discard it), then release everything."""
        if txn.finishing or not txn.active:
            return
        txn.finishing = True
        # A pending lock request of this transaction (an operation still
        # in flight elsewhere) must never be granted post-mortem.
        self.locks.cancel_wait(txn.txn_id, TransactionAborted(txn.txn_id, reason))
        if self.config.scheduler == "occ" and not txn.last_lsn:
            txn.workspace.clear()
        else:
            yield from self._undo_chain(txn)
            record = self.log.append(
                AbortRecord(
                    lsn=self.log.next_lsn, txn_id=txn.txn_id, prev_lsn=txn.last_lsn
                )
            )
            txn.last_lsn = record.lsn
        txn.state = LocalTxnState.ABORTED
        txn.abort_reason = reason
        txn.end_time = self.kernel.now
        if self._exposed:
            # The before-images above were restored under this
            # transaction's still-held (downgraded) shared locks, so no
            # committed writer effect was clobbered; readers that saw
            # the exposed values are cascade-aborted now.
            self._resolve_exposure(txn, aborted=True)
        if self._held:
            self._occ_release(txn, undone=True)
        self.locks.release_all(txn.txn_id)
        self.aborts[reason] += 1
        self._abort_reasons[txn.txn_id] = reason
        self._forget(txn)
        self._trace_state(txn)

    def _forget(self, txn: LocalTransaction) -> None:
        """Drop an ended transaction from the table (its tombstone stays).

        After a crash the id may belong to nobody (the crash emptied the
        table) or to the ready transaction recovery reinstated in its
        place, which stays.
        """
        if self._txns.get(txn.txn_id) is txn:
            del self._txns[txn.txn_id]

    def _undo_chain(self, txn: LocalTransaction) -> Generator[Any, Any, None]:
        """Walk the transaction's log chain backwards applying before images."""
        lsn = txn.last_lsn
        while lsn > 0:
            record = self.log.record_at(lsn)
            if isinstance(record, UpdateRecord):
                heap = self.catalog.heap(record.table)
                if self.buffer.resident(record.page_id):
                    current = self.buffer._frames[record.page_id].get(record.key)
                    if current != record.after:
                        # A foreign write landed after ours: restoring the
                        # before-image erases that concurrent effect.
                        self.undo_clobbers.append(
                            (txn.txn_id, record.table, record.key)
                        )
                        self.kernel.trace.emit(
                            "undo_clobber", self.site, txn.txn_id,
                            table=record.table, key=record.key,
                        )
                clr = self.log.append(
                    CompensationRecord(
                        lsn=self.log.next_lsn,
                        txn_id=txn.txn_id,
                        prev_lsn=txn.last_lsn,
                        table=record.table,
                        key=record.key,
                        after=record.before,
                        page_id=record.page_id,
                        undo_of_lsn=record.lsn,
                        undo_next_lsn=record.prev_lsn,
                    )
                )
                txn.last_lsn = clr.lsn
                if record.before is None:
                    yield from heap.delete(record.key, clr.lsn)
                else:
                    yield from heap.write(record.key, record.before, clr.lsn)
                lsn = record.prev_lsn
            elif isinstance(record, CompensationRecord):
                lsn = record.undo_next_lsn
            else:
                lsn = record.prev_lsn

    # -- optimistic scheduler ------------------------------------------------

    def _occ_read(
        self, txn: LocalTransaction, table: str, key: Any
    ) -> Generator[Any, Any, Any]:
        if (table, key) in txn.workspace:
            kind, value = txn.workspace[(table, key)]
            value = None if kind == "delete" else value
        else:
            value = yield from self.catalog.heap(table).read(key)
            self._check_txn(txn)
        self._occ_note_read(txn, (table, key))
        return value

    def _occ_note_read(self, txn: LocalTransaction, key: tuple[str, Any]) -> None:
        """Record a read of ``key`` with the install that owns it, if any.

        A re-read never replaces an owner that has not committed: the
        earlier read saw that install's value, undone or not.
        """
        prev = txn.read_set.get(key)
        if prev is not None and prev not in self.committed_txn_ids:
            return
        held = self._held.get(key)
        txn.read_set[key] = held[0] if held else None

    def _occ_commit(self, txn: LocalTransaction) -> Generator[Any, Any, None]:
        yield from self._occ_install(txn)
        yield from self.log.force(self._append_commit_record(txn))
        self._finalize_commit(txn)

    def _occ_valid(self, txn: LocalTransaction) -> bool:
        """Backward validation against the per-key install state.

        A read fails if its key was installed since the transaction
        began, or if the install that owned the key when it was read is
        not committed (undone or undecided); a read or a write fails on
        a key another install still owns.
        """
        start = txn.start_commit_seq
        last_write = self._last_write
        committed = self.committed_txn_ids
        for key, owner in txn.read_set.items():
            if last_write.get(key, 0) > start or (
                owner is not None and owner not in committed
            ):
                return False
        held = self._held.keys()
        return not (held & txn.read_set.keys() or held & txn.write_set)

    def _occ_install(
        self, txn: LocalTransaction, prepared: bool = False
    ) -> Generator[Any, Any, None]:
        """Validate and install the workspace (critical section).

        The install owns its keys from its first write; a prepared one
        keeps them until its owner commits or aborts.
        """
        yield from self._occ_gate.acquire()
        released = False
        try:
            self._check_txn(txn)
            if not self._occ_valid(txn):
                self._occ_gate.release()
                released = True
                yield from self._rollback(txn, LocalAbortReason.VALIDATION)
                raise TransactionAborted(txn.txn_id, LocalAbortReason.VALIDATION)
            if txn.workspace:
                for key in txn.write_set:
                    self._held[key] = (txn.txn_id, self._last_write.get(key, 0))
                record = self.log.append(
                    BeginRecord(lsn=self.log.next_lsn, txn_id=txn.txn_id, prev_lsn=0)
                )
                txn.last_lsn = record.lsn
                for (table, key), (kind, value) in list(txn.workspace.items()):
                    heap = self.catalog.heap(table)
                    page_id = heap.page_of(key)
                    before = yield from heap.read(key)
                    self._check_txn(txn)
                    after = None if kind == "delete" else value
                    update = self._log_update(txn, table, key, before, after, page_id)
                    if kind == "delete":
                        yield from heap.delete(key, update.lsn)
                    else:
                        yield from heap.write(key, value, update.lsn)
                    self._check_txn(txn)
                    self._record_op(txn, kind, table, key)
            self._commit_seq += 1
            for key in txn.write_set:
                self._last_write[key] = self._commit_seq
            if not prepared:
                self._occ_release(txn, undone=False)
        finally:
            # On a crash the gate was already reset; do not double-release.
            if not released and not self.crashed:
                self._occ_gate.release()

    def _occ_release(self, txn: LocalTransaction, undone: bool) -> None:
        """End ``txn``'s ownership of its keys; an undone install's keys
        get back the sequence number they had before it."""
        held = self._held
        for key in txn.write_set:
            owner = held.get(key)
            if owner is not None and owner[0] == txn.txn_id:
                del held[key]
                if undone:
                    self._last_write[key] = owner[1]

    def _trace_state(self, txn: LocalTransaction) -> None:
        if not self.kernel.trace.enabled:
            return  # skip building the details dict entirely
        details: dict[str, Any] = {"state": txn.state.value}
        if txn.gtxn_id:
            details["gtxn"] = txn.gtxn_id
        if txn.abort_reason is not None:
            details["reason"] = txn.abort_reason.value
        self.kernel.trace.emit("txn_state", self.site, txn.txn_id, **details)

    def __repr__(self) -> str:
        status = "crashed" if self.crashed else "up"
        return f"<LocalDatabase {self.site} {status} txns={len(self._txns)}>"
