"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Layer-specific bases
(:class:`SimulationError`, :class:`StorageError`, :class:`DatabaseError`,
:class:`NetworkError`, :class:`ProtocolError`) group the concrete errors
raised by the corresponding subpackages.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Simulation kernel
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event kernel."""


class ProcessInterrupted(SimulationError):
    """Raised inside a process when another process interrupts it.

    The ``cause`` attribute carries an arbitrary user supplied object
    describing why the interruption happened (for instance a
    :class:`~repro.localdb.txn.LocalAbortReason`).
    """

    def __init__(self, cause: object = None):
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class KernelStopped(SimulationError):
    """Raised when an operation is attempted on a stopped kernel."""


# ---------------------------------------------------------------------------
# Storage substrate
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-layer failures."""


class PageNotFound(StorageError):
    """A page identifier does not exist on the simulated disk."""


# ---------------------------------------------------------------------------
# Local database engine
# ---------------------------------------------------------------------------


class DatabaseError(ReproError):
    """Base class for local database engine failures."""


class UnknownTable(DatabaseError):
    """A table name is not present in the catalog."""


class DuplicateKey(DatabaseError):
    """An insert collided with an existing key."""


class KeyNotFound(DatabaseError):
    """A read, update or delete addressed a missing key."""


class TransactionAborted(DatabaseError):
    """The local transaction was aborted.

    The ``reason`` attribute is a :class:`~repro.localdb.txn.LocalAbortReason`
    explaining whether the abort was requested, caused by deadlock victim
    selection, a lock timeout, failed optimistic validation or a site crash.
    """

    def __init__(self, txn_id: str, reason: object):
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class InvalidTransactionState(DatabaseError):
    """An operation was attempted in a transaction state that forbids it."""


class DeadlockDetected(DatabaseError):
    """The lock manager chose this transaction as a deadlock victim."""


class LockTimeout(DatabaseError):
    """A lock request waited longer than the configured timeout."""


class SiteCrashed(DatabaseError):
    """The site executing the request crashed before replying."""


# ---------------------------------------------------------------------------
# Network substrate
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for communication failures."""


class MessageTimeout(NetworkError):
    """No reply arrived within the configured timeout."""


class NodeUnreachable(NetworkError):
    """The destination node is crashed or unknown."""


class TopologyViolation(NetworkError):
    """A message violated the star topology (local talking to local)."""


# ---------------------------------------------------------------------------
# Global transaction management / commit protocols
# ---------------------------------------------------------------------------


class ProtocolError(ReproError):
    """Base class for global transaction management failures."""


class DurabilityOrderViolation(ProtocolError):
    """A participant ack was about to overtake the durable decision.

    Every commit path must make the decision durable (forced decision
    record, or a chosen Paxos value at a majority of acceptors) before
    any participant may learn it.  The pipelined decision path asserts
    this ordering and raises when a configuration would break it.
    """


class UnsupportedInterface(ProtocolError):
    """The protocol needs an interface feature the local TM lacks.

    Two-phase commit raises this when pointed at a standard
    begin/commit/abort interface without a ready state -- the central
    observation of the paper.
    """
