"""Transaction-manager interfaces, the paper's key abstraction boundary.

:class:`StandardTMInterface` is the interface of an *unchangeable
existing* transaction manager: ``begin``, data operations, ``commit``,
``abort``.  There is **no ready state** -- the running -> committed
transition is atomic -- so two-phase commit cannot be driven through it
(:meth:`StandardTMInterface.prepare` raises
:class:`~repro.errors.UnsupportedInterface`).

:class:`PreparableTMInterface` models a *modified* transaction manager
that also offers ``prepare``; it exists only so the 2PC baseline of the
experiments has something to run against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import InvalidTransactionState, UnsupportedInterface
from repro.localdb.txn import LocalAbortReason, LocalTxnState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.localdb.engine import LocalDatabase


class StandardTMInterface:
    """``begin`` / operations / ``commit`` / ``abort`` -- nothing more.

    Transactions are addressed by opaque string ids, as a foreign
    client (the communication manager) would see them.
    """

    has_prepare = False

    def __init__(self, engine: "LocalDatabase"):
        self._engine = engine

    @property
    def site(self) -> str:
        return self._engine.site

    # -- lifecycle -----------------------------------------------------------

    def begin(self, gtxn_id: Optional[str] = None) -> str:
        """Start a transaction; returns its id."""
        return self._engine.begin(gtxn_id=gtxn_id).txn_id

    def commit(self, txn_id: str) -> Generator[Any, Any, None]:
        """Atomic running -> committed transition (forces the log)."""
        yield from self._engine.commit(self._engine.txn(txn_id))

    def abort(self, txn_id: str) -> Generator[Any, Any, None]:
        """Intended abort requested by the client."""
        yield from self._engine.abort(
            self._engine.txn(txn_id), LocalAbortReason.REQUESTED
        )

    def prepare(self, txn_id: str) -> Generator[Any, Any, None]:
        """Standard managers have no ready state (the paper's premise)."""
        raise UnsupportedInterface(
            f"{self.site}: existing transaction manager has no ready state"
        )
        yield  # pragma: no cover - keeps this a generator function

    # -- data operations -------------------------------------------------------

    def read(self, txn_id: str, table: str, key: Any) -> Generator[Any, Any, Any]:
        value = yield from self._engine.read(self._engine.txn(txn_id), table, key)
        return value

    def write(
        self, txn_id: str, table: str, key: Any, value: Any
    ) -> Generator[Any, Any, None]:
        yield from self._engine.write(self._engine.txn(txn_id), table, key, value)

    def insert(
        self, txn_id: str, table: str, key: Any, value: Any
    ) -> Generator[Any, Any, None]:
        yield from self._engine.insert(self._engine.txn(txn_id), table, key, value)

    def delete(self, txn_id: str, table: str, key: Any) -> Generator[Any, Any, None]:
        yield from self._engine.delete(self._engine.txn(txn_id), table, key)

    def increment(
        self, txn_id: str, table: str, key: Any, delta: Any
    ) -> Generator[Any, Any, Any]:
        value = yield from self._engine.increment(
            self._engine.txn(txn_id), table, key, delta
        )
        return value

    def scan(self, txn_id: str, table: str) -> Generator[Any, Any, list]:
        rows = yield from self._engine.scan(self._engine.txn(txn_id), table)
        return rows

    # -- status ------------------------------------------------------------------

    def status(self, txn_id: str) -> Optional[LocalTxnState]:
        """The state of ``txn_id``; ``None`` for an id never issued here.

        Running or ready while the transaction is live; committed or
        aborted once it ended, read from the tombstone the manager
        keeps of it, across crashes too.
        """
        try:
            return self._engine.txn(txn_id).state
        except InvalidTransactionState:
            return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.site}>"


class PreparableTMInterface(StandardTMInterface):
    """A *modified* manager exposing a ready state, for the 2PC baseline."""

    has_prepare = True

    def prepare(self, txn_id: str) -> Generator[Any, Any, None]:
        """running -> ready: force the log, keep all locks."""
        yield from self._engine.prepare(self._engine.txn(txn_id))

    def short_release(self, txn_id: str, downgrade: bool = True) -> list:
        """Short-Commit early lock release on a *ready* transaction.

        Releases read locks and downgrades write locks (releases them
        with ``downgrade=False`` -- the seeded mutant).  Immediate: a
        pure lock-table operation, no log I/O.
        """
        return self._engine.short_release(self._engine.txn(txn_id), downgrade=downgrade)

    # -- the ready state's bookkeeping -------------------------------------------

    def is_read_only(self, txn_id: str) -> bool:
        """Has the transaction written nothing? (read-only vote, [ML 83])"""
        return not self._engine.txn(txn_id).write_set

    def ready_txn(self, gtxn_id: str) -> Optional[str]:
        """The local of ``gtxn_id`` if it is in the ready state, else ``None``.

        After a crash, local recovery reinstates prepared transactions;
        the communication manager forgot them and finds them here.
        """
        txn = self._engine.find_by_gtxn(gtxn_id)
        if txn is not None and txn.state is LocalTxnState.READY:
            return txn.txn_id
        return None

    def in_doubt(self) -> list[str]:
        """Sorted global ids of every local in the ready state."""
        return sorted(
            {
                txn.gtxn_id
                for txn in self._engine.active_txns()
                if txn.gtxn_id and txn.state is LocalTxnState.READY
            }
        )
