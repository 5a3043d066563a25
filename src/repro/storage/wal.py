"""Write-ahead log.

Logical (record-level) logging with before/after images, ARIES-style
compensation records for undo, and fuzzy checkpoints.  The
:class:`LogManager` keeps a volatile tail; :meth:`LogManager.force`
pushes everything up to a target LSN to the stable disk.  The WAL rule
(force before page flush) is enforced by the buffer pool.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Generator, Optional

_record_lsn = attrgetter("lsn")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.disk import StableDisk


class LogRecord:
    """Base class for all log records.

    A record is built with the LSN it will get: the log's
    :attr:`~LogManager.next_lsn` when it is appended on its own, the
    next ones in turn for a batch (:meth:`LogManager.extend`).

    The record classes are hand-written ``__slots__`` classes rather
    than frozen dataclasses: a commit appends eight of them, and the
    frozen-dataclass constructor pays one ``object.__setattr__`` per
    field.  They keep what the dataclasses gave the rest of the system
    -- keyword construction, field-by-field equality (and the matching
    hash), the dataclass ``repr``, and the ``isinstance`` hierarchy
    recovery dispatches on -- and are immutable by convention.
    """

    __slots__ = ("lsn", "txn_id", "prev_lsn")
    #: Every field, base class first (``__slots__`` lists only a
    #: class's own).
    _fields: tuple[str, ...] = __slots__

    def __init__(self, lsn: int, txn_id: str, prev_lsn: int):
        self.lsn = lsn
        self.txn_id = txn_id
        self.prev_lsn = prev_lsn

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({body})"


class BeginRecord(LogRecord):
    """Transaction start."""

    __slots__ = ()


class UpdateRecord(LogRecord):
    """Insert/update/delete of one record, with both images.

    ``before is None`` encodes an insert; ``after is None`` encodes a
    delete; both set encode an in-place update.
    """

    __slots__ = ("table", "key", "before", "after", "page_id")
    _fields = LogRecord._fields + __slots__

    def __init__(
        self,
        lsn: int,
        txn_id: str,
        prev_lsn: int,
        table: str = "",
        key: Any = None,
        before: Any = None,
        after: Any = None,
        page_id: int = -1,
    ):
        self.lsn = lsn
        self.txn_id = txn_id
        self.prev_lsn = prev_lsn
        self.table = table
        self.key = key
        self.before = before
        self.after = after
        self.page_id = page_id


class CompensationRecord(LogRecord):
    """CLR written while undoing ``undo_of_lsn``; redo-only."""

    __slots__ = ("table", "key", "after", "page_id", "undo_of_lsn", "undo_next_lsn")
    _fields = LogRecord._fields + __slots__

    def __init__(
        self,
        lsn: int,
        txn_id: str,
        prev_lsn: int,
        table: str = "",
        key: Any = None,
        after: Any = None,
        page_id: int = -1,
        undo_of_lsn: int = -1,
        undo_next_lsn: int = -1,
    ):
        self.lsn = lsn
        self.txn_id = txn_id
        self.prev_lsn = prev_lsn
        self.table = table
        self.key = key
        self.after = after
        self.page_id = page_id
        self.undo_of_lsn = undo_of_lsn
        self.undo_next_lsn = undo_next_lsn


class PrepareRecord(LogRecord):
    """Ready state reached (only written by *modified*, preparable TMs).

    A transaction with a forced prepare record but no commit/abort
    record is *in doubt* after a crash: recovery reinstates it in the
    ready state with its locks, waiting for the global decision.
    ``gtxn_id`` survives the crash so the communication manager can
    re-correlate the in-doubt transaction with its global transaction.
    """

    __slots__ = ("gtxn_id",)
    _fields = LogRecord._fields + __slots__

    def __init__(
        self, lsn: int, txn_id: str, prev_lsn: int, gtxn_id: Optional[str] = None
    ):
        self.lsn = lsn
        self.txn_id = txn_id
        self.prev_lsn = prev_lsn
        self.gtxn_id = gtxn_id


class CommitRecord(LogRecord):
    """Transaction commit; forcing this record is the commit point."""

    __slots__ = ()


class AbortRecord(LogRecord):
    """Transaction rollback completed."""

    __slots__ = ()


class CheckpointRecord(LogRecord):
    """Fuzzy checkpoint: active transactions and their last LSNs."""

    __slots__ = ("active_txns",)
    _fields = LogRecord._fields + __slots__

    def __init__(
        self,
        lsn: int,
        txn_id: str,
        prev_lsn: int,
        active_txns: Optional[dict[str, int]] = None,
    ):
        self.lsn = lsn
        self.txn_id = txn_id
        self.prev_lsn = prev_lsn
        self.active_txns = {} if active_txns is None else active_txns


class LogManager:
    """Per-site write-ahead log with a volatile tail.

    LSNs start at 1 and grow monotonically.  ``flushed_lsn`` is the
    highest LSN on stable storage; everything above it is lost in a
    crash.

    With ``group_commit_window > 0`` (and a kernel to keep time),
    concurrent :meth:`force` calls are batched: the first caller waits
    out the window gathering co-committers, then one disk write hardens
    everything -- the classic group-commit trade of commit latency for
    force throughput.
    """

    def __init__(
        self,
        disk: "StableDisk",
        kernel=None,
        group_commit_window: float = 0.0,
    ):
        self._disk = disk
        self._kernel = kernel
        self.group_commit_window = group_commit_window
        self._next_lsn = 1
        self._tail: list[LogRecord] = []
        self._index: dict[int, LogRecord] = {}
        self.flushed_lsn = 0
        self.appended = 0
        self.forced = 0
        self._group_waiters: list = []  # (lsn, Future)
        self._group_leader_active = False

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    def append(self, record: LogRecord) -> LogRecord:
        """Append ``record``, built with :attr:`next_lsn`; returns it."""
        lsn = self._next_lsn
        assert record.lsn == lsn, "record must carry the assigned LSN"
        self._next_lsn = lsn + 1
        self._tail.append(record)
        self._index[lsn] = record
        self.appended += 1
        return record

    def extend(self, records: list[LogRecord]) -> None:
        """Append ``records``, built with consecutive LSNs from :attr:`next_lsn`."""
        if not records:
            return
        first = self._next_lsn
        following = first + len(records)
        assert records[0].lsn == first and records[-1].lsn == following - 1, (
            "records must carry consecutive LSNs from next_lsn"
        )
        self._next_lsn = following
        self._tail.extend(records)
        self._index.update(zip(map(_record_lsn, records), records))
        self.appended += len(records)

    def record_at(self, lsn: int) -> LogRecord:
        """The record with the given LSN (volatile index, rebuilt on restart)."""
        return self._index[lsn]

    def force(self, upto_lsn: Optional[int] = None) -> Generator[Any, Any, None]:
        """Harden the tail up to ``upto_lsn`` (default: everything).

        With group commit enabled the call may wait out the gathering
        window and ride a co-committer's disk write.
        """
        if upto_lsn is None:
            upto_lsn = self._next_lsn - 1
        if upto_lsn <= self.flushed_lsn:
            return
        if self.group_commit_window > 0 and self._kernel is not None:
            yield from self._group_force(upto_lsn)
            return
        yield from self._force_now(upto_lsn)

    def _force_now(self, upto_lsn: int) -> Generator[Any, Any, None]:
        to_flush = self._prefix(upto_lsn)
        if not to_flush:
            return
        # The volatile tail is pruned only after the disk write lands:
        # a crash during the write must still wipe these records.
        yield from self._disk.append_log(to_flush)
        self.forced += 1
        self.flushed_lsn = to_flush[-1].lsn
        # Re-read the tail: records may have been appended (or a crash
        # may have wiped it) during the write.
        tail = self._tail
        cut = bisect_right(tail, upto_lsn, key=_record_lsn)
        if cut:
            self._tail = tail[cut:]

    def harden(self, upto_lsn: int) -> None:
        """Make the records :meth:`force` would write stable at once, in
        no time: only for building a pre-existing database's state."""
        to_flush = self._prefix(upto_lsn)
        if to_flush:
            self._disk.install_log(to_flush)
            self.flushed_lsn = to_flush[-1].lsn
            self._tail = self._tail[len(to_flush):]

    def _prefix(self, upto_lsn: int) -> list[LogRecord]:
        """The volatile records a force up to ``upto_lsn`` must write."""
        tail = self._tail
        if tail and tail[-1].lsn <= upto_lsn:
            # Whole-tail force -- the overwhelmingly common case (a
            # commit forces everything appended so far).
            return tail[:]
        # The tail is LSN-ordered: the records to force are the prefix
        # up to the bisection point.
        return tail[:bisect_right(tail, upto_lsn, key=_record_lsn)]

    def _group_force(self, upto_lsn: int) -> Generator[Any, Any, None]:
        """Join (or lead) the current commit group."""
        from repro.sim.events import Future

        ticket = Future(label="group-commit")
        self._group_waiters.append((upto_lsn, ticket))
        if self._group_leader_active:
            yield ticket  # the leader hardens our LSN; crash -> raises
            return
        self._group_leader_active = True
        try:
            while self._group_waiters:
                yield self.group_commit_window  # gather co-committers
                group, self._group_waiters = self._group_waiters, []
                if not group:
                    # A crash emptied the group while we slept.
                    from repro.errors import SiteCrashed

                    raise SiteCrashed(f"{self._disk.site} crashed mid-window")
                target = max(lsn for lsn, _ in group)
                try:
                    yield from self._force_now(target)
                except BaseException as exc:
                    for _, waiter in group:
                        if not waiter.done:
                            waiter.fail(exc)
                    raise
                for _, waiter in group:
                    if not waiter.done:
                        waiter.resolve(None)
        finally:
            self._group_leader_active = False

    def tail_records(self) -> list[LogRecord]:
        """Volatile records not yet forced (lost on crash)."""
        return list(self._tail)

    def crash(self) -> None:
        """Drop the volatile tail; stable records stay on the disk."""
        self._tail = []
        waiters, self._group_waiters = self._group_waiters, []
        if waiters:
            from repro.errors import SiteCrashed

            for _, waiter in waiters:
                if not waiter.done:
                    waiter.fail(SiteCrashed(f"{self._disk.site} crashed"))
        self._group_leader_active = False

    def rebuild_after_crash(self) -> None:
        """Reset LSN allocation to continue after the stable prefix."""
        stable = self._disk.stable_log()
        self._next_lsn = (stable[-1].lsn + 1) if stable else 1
        self.flushed_lsn = stable[-1].lsn if stable else 0
        self._tail = []
        self._index = {record.lsn: record for record in stable}

    def truncate_stable(self, safe_lsn: int) -> int:
        """Drop stable records below ``safe_lsn`` (checkpointing).

        The caller guarantees that no undo chain of an active
        transaction and no unflushed page effect reaches below
        ``safe_lsn``.  Returns the number of records dropped.
        """
        stable = self._disk.stable_log()
        keep_from = 0
        while keep_from < len(stable) and stable[keep_from].lsn < safe_lsn:
            keep_from += 1
        self._disk.truncate_log(keep_from)
        for record in stable[:keep_from]:
            self._index.pop(record.lsn, None)
        return keep_from

    def __repr__(self) -> str:
        return f"<LogManager next={self._next_lsn} flushed={self.flushed_lsn} tail={len(self._tail)}>"
