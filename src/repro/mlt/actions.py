"""L1 actions (global operations) and their inverse-action algebra.

An :class:`Operation` is both the unit a global transaction is written
in and the L1 action of the multi-level model.  :func:`inverse_of`
produces the action that semantically undoes an executed operation --
the machinery the commit-before protocol uses to abort globally after
locals already committed -- and :func:`apply` executes one, reading the
before-image the inverse needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.errors import DatabaseError


#: Primitive operation kinds every engine executes directly.  Higher
#: abstraction levels (see :mod:`repro.mlt.nested`) may define further
#: kinds (e.g. ``transfer``) that expand into these.
KINDS = ("read", "write", "increment", "insert", "delete")


@dataclass(frozen=True)
class Operation:
    """One data operation on a global object.

    ``value`` holds the written value (``write``/``insert``) or the
    delta (``increment``); it is ``None`` for ``read`` and ``delete``.
    ``site`` and ``local_table`` are filled in by the schema mapper when
    the operation is routed to an existing database system.
    """

    kind: str
    table: str
    key: Any
    value: Any = None
    site: Optional[str] = None
    local_table: Optional[str] = None
    #: Data-plane routing stamp: the partition id and membership epoch
    #: the operation was routed under (``None`` outside placements).
    #: Sites fence executions whose epoch a promotion has superseded.
    partition: Optional[int] = None
    epoch: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ValueError(f"invalid operation kind {self.kind!r}")

    @property
    def writes(self) -> bool:
        return self.kind != "read"

    def routed(self, site: str, local_table: str) -> "Operation":
        """Copy bound to a concrete site and local table."""
        return Operation(
            self.kind, self.table, self.key, self.value,
            site, local_table, self.partition, self.epoch,
        )

    def placed(
        self, site: str, local_table: str, partition: int, epoch: int
    ) -> "Operation":
        """Copy bound to a partition member, stamped for epoch fencing."""
        return Operation(
            self.kind, self.table, self.key, self.value,
            site, local_table, partition, epoch,
        )

    def _retargeted(self, kind: str, value: Any) -> "Operation":
        """Copy with another ``kind``/``value``, same object and routing."""
        return Operation(
            kind, self.table, self.key, value,
            self.site, self.local_table, self.partition, self.epoch,
        )

    def __str__(self) -> str:
        target = f"{self.table}[{self.key!r}]"
        if self.kind in ("write", "insert"):
            return f"{self.kind} {target} = {self.value!r}"
        if self.kind == "increment":
            return f"increment {target} by {self.value!r}"
        return f"{self.kind} {target}"


# Convenience constructors -- keep call sites close to the paper's prose.


def read(table: str, key: Any) -> Operation:
    return Operation("read", table, key)


def write(table: str, key: Any, value: Any) -> Operation:
    return Operation("write", table, key, value)


def increment(table: str, key: Any, delta: Any) -> Operation:
    return Operation("increment", table, key, delta)


def insert(table: str, key: Any, value: Any) -> Operation:
    return Operation("insert", table, key, value)


def delete(table: str, key: Any) -> Operation:
    return Operation("delete", table, key)


def inverse_of(operation: Operation, before: Any) -> Optional[Operation]:
    """The L1 action that semantically undoes ``operation``.

    * ``increment d``  ->  ``increment -d``  (commutative undo: other
      increments interleaved in between are preserved)
    * ``write v``      ->  ``write before``  (or ``delete`` if the key
      did not exist before)
    * ``insert v``     ->  ``delete``
    * ``delete``       ->  ``insert before``
    * ``read``         ->  ``None`` (nothing to undo)
    """
    if operation.kind == "read":
        return None
    if operation.kind == "increment":
        return operation._retargeted("increment", -operation.value)
    if operation.kind == "write":
        if before is None:
            return operation._retargeted("delete", None)
        return operation._retargeted("write", before)
    if operation.kind == "insert":
        return operation._retargeted("delete", None)
    if operation.kind == "delete":
        return operation._retargeted("insert", before)
    raise ValueError(f"no inverse for {operation.kind!r}")


#: How often :func:`apply`'s callers repeat an action whose local
#: transaction aborted erroneously (deadlock victim, lock timeout,
#: failed validation) before they give up: the n-level manager's bottom
#: level and the communication manager's L0 actions.
MAX_L0_RETRIES = 10


def apply(db: Any, txn: Any, operation: Operation) -> Generator[Any, Any, tuple[Any, Any]]:
    """Execute ``operation`` inside ``txn``; returns (value, before-image).

    ``db`` is a local engine (``txn`` one of its transactions) or a TM
    interface (``txn`` a transaction id): both speak read / write /
    increment / insert / delete.  ``value`` is what a read or increment
    returns; ``before`` is the value a write or delete replaced, which
    :func:`inverse_of` needs to undo it.
    """
    table = operation.local_table or operation.table
    key = operation.key
    value = None
    before = None
    if operation.kind == "read":
        value = yield from db.read(txn, table, key)
    elif operation.kind == "write":
        before = yield from db.read(txn, table, key)
        yield from db.write(txn, table, key, operation.value)
    elif operation.kind == "increment":
        value = yield from db.increment(txn, table, key, operation.value)
    elif operation.kind == "insert":
        yield from db.insert(txn, table, key, operation.value)
    elif operation.kind == "delete":
        before = yield from db.read(txn, table, key)
        yield from db.delete(txn, table, key)
    else:
        raise DatabaseError(f"unsupported operation {operation.kind!r}")
    return value, before
