"""Local transaction objects and their state machine.

The states mirror the paper's Figures 2/4/6 for the *local* side:
``RUNNING`` -> (``READY`` ->)? ``COMMITTED`` | ``ABORTED``.  The ready
state exists only when the transaction was created through a
*preparable* (modified) interface; the standard interface performs the
running -> committed transition atomically, which is exactly why 2PC is
impossible over it.
"""

from __future__ import annotations

import enum
from typing import Any, Optional


class LocalTxnState(enum.Enum):
    """Lifecycle states of a local transaction."""

    RUNNING = "running"
    READY = "ready"
    COMMITTED = "committed"
    ABORTED = "aborted"


class LocalAbortReason(enum.Enum):
    """Why a local transaction aborted.

    ``REQUESTED`` is an *intended* abort (the transaction's own logic or
    the global decision); everything else is an *erroneous* abort in the
    paper's sense -- the local system acted autonomously after the
    communication manager already answered ``ready``.
    """

    REQUESTED = "requested"
    DEADLOCK = "deadlock"
    TIMEOUT = "timeout"
    VALIDATION = "validation"
    CRASH = "crash"
    SYSTEM = "system"
    #: Short-Commit dirty-read guard: the reader consumed values a
    #: downgraded (exposed) transaction then rolled back.
    CASCADE = "cascade"

    @property
    def erroneous(self) -> bool:
        """True for aborts the local system decided on its own."""
        return self is not LocalAbortReason.REQUESTED


class LocalTransaction:
    """Bookkeeping for one transaction inside a local engine."""

    __slots__ = (
        "txn_id",
        "state",
        "start_time",
        "end_time",
        "first_lsn",
        "last_lsn",
        "abort_reason",
        "read_set",
        "write_set",
        "workspace",
        "start_commit_seq",
        "gtxn_id",
        "ops_executed",
        "finishing",
    )

    def __init__(
        self,
        txn_id: str,
        start_time: float,
        start_commit_seq: int = 0,
        optimistic: bool = False,
    ):
        self.txn_id = txn_id
        self.state = LocalTxnState.RUNNING
        self.start_time = start_time
        self.end_time: Optional[float] = None
        # LSN of the begin record: log truncation must not pass the
        # oldest active transaction's first record (its undo chain).
        self.first_lsn = 0
        self.last_lsn = 0
        self.abort_reason: Optional[LocalAbortReason] = None
        # (table, key) pairs written; the read-only vote asks whether
        # it is empty.
        self.write_set: set[tuple[str, Any]] = set()
        if optimistic:
            # Only the optimistic scheduler has these (a 2PL transaction
            # leaves both slots unset): the read set it validates,
            # (table, key) -> the install that owned the key at its
            # latest read (None if none did; a re-read never replaces
            # an owner that has not committed), and its deferred
            # writes, (table, key) -> ("write"|"delete", value).
            self.read_set: dict[tuple[str, Any], Optional[str]] = {}
            self.workspace: dict[tuple[str, Any], tuple[str, Any]] = {}
        self.start_commit_seq = start_commit_seq
        # Global transaction this local one belongs to (None for purely
        # local work); used for tracing and the serializability checker.
        self.gtxn_id: Optional[str] = None
        self.ops_executed = 0
        # Set while the commit record is being forced, so concurrent
        # force-abort attempts back off from a transaction that is
        # already past the point of no return.
        self.finishing = False

    @classmethod
    def tombstone(
        cls, txn_id: str, state: LocalTxnState, abort_reason: Optional[LocalAbortReason]
    ) -> "LocalTransaction":
        """A stand-in for an ended transaction the engine forgot.

        It carries the id, the final state and the abort reason, which
        is all an engine keeps of an ended transaction; its times, LSNs
        and sets are not kept.
        """
        txn = cls(txn_id, 0.0)
        txn.state = state
        txn.abort_reason = abort_reason
        return txn

    @property
    def active(self) -> bool:
        return self.state in (LocalTxnState.RUNNING, LocalTxnState.READY)

    def require_state(self, *states: LocalTxnState) -> None:
        """Raise unless the transaction is in one of ``states``."""
        if self.state not in states:
            from repro.errors import InvalidTransactionState

            allowed = "/".join(s.value for s in states)
            raise InvalidTransactionState(
                f"{self.txn_id} is {self.state.value}, needs {allowed}"
            )

    def __repr__(self) -> str:
        return f"<LocalTransaction {self.txn_id} {self.state.value}>"
