"""The local communication manager (paper §2, Figure 1).

One of these sits *on top of* each existing database system.  It
listens on the network for global calls, drives the local transaction
manager through its (unchanged) interface, and packages status and data
into reply messages.  It speaks only
:class:`~repro.localdb.interface.StandardTMInterface`: begin, data
operations, commit, abort, status.  The ready state's bookkeeping (the
read-only vote, a reinstated ready local, the in-doubt list) is asked
of :class:`~repro.localdb.interface.PreparableTMInterface`, and only
when the interface ``has_prepare``.  All protocol behaviour that the
paper places at the local side lives here:

* answering ``prepare`` as the vote request asks (``_on_prepare``): by
  entering the ready state, immediately after the last action *while
  the local transaction is still running* (commit-after), or with the
  local's final state (commit-before) -- the manager switches on what
  the request says, never on which protocol sent it;
* committing the local transaction before the global decision for the
  commit-before protocol (``finish_subtxn`` / ``execute_l0``);
* executing redo subtransactions and inverse (undo) transactions;
* the commit-marker relation (:data:`~repro.core.redo.COMMITLOG_TABLE`,
  created with the site's schema at set-up) that makes local commit and
  its propagation atomic when ``log_placement == "indb"``.

The manager's own memory is volatile, and a site crash empties it.  It
keeps only what no other layer holds:

* the open subtransaction of each global transaction (``_subtxns``),
  so later operations, votes and decisions find their local;
* one lock per global transaction while a request on it runs, so a
  retried decide cannot interleave with an in-flight redo;
* under ``log_placement == "volatile"`` only, the outcome of each
  marker key (``_outcomes``) -- the log that placement lacks, lost in
  a crash, which is exactly the hazard experiment EXP-A2 explores.

It keeps no request or reply cache.  The reliable network's receiver
filter is the only duplicate filter, and a request the coordinator
retries is made safe by the commit markers (§3.2), not by memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.errors import (
    DatabaseError,
    NodeUnreachable,
    SiteCrashed,
    TransactionAborted,
)
from repro.core.redo import COMMITLOG_TABLE
from repro.localdb.txn import LocalTxnState
from repro.mlt.actions import MAX_L0_RETRIES, Operation, apply
from repro.net.message import Message
from repro.sim.sync import FifoLock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.localdb.interface import StandardTMInterface
    from repro.net.network import Network
    from repro.net.node import Node
    from repro.sim.kernel import Kernel


class LocalCommunicationManager:
    """Protocol adapter between the network and one local TM interface."""

    def __init__(
        self,
        kernel: "Kernel",
        network: "Network",
        node: "Node",
        interface: "StandardTMInterface",
        log_placement: str = "indb",
    ):
        if log_placement not in ("indb", "volatile"):
            raise ValueError(f"unknown log placement {log_placement!r}")
        self.kernel = kernel
        self.network = network
        self.node = node
        self.interface = interface
        self.log_placement = log_placement
        self._retry_rng = kernel.rng.stream(f"cm-retry:{node.name}")
        # gtxn_id -> local txn id of the current subtransaction.
        self._subtxns: dict[str, str] = {}
        # Outcome memory of the volatile log placement: marker key ->
        # "committed" | "aborted".  In-DB placement keeps it empty: the
        # marker relation is its log.
        self._outcomes: dict[str, str] = {}
        # Per-global-transaction mutex: a retried decide and an
        # in-flight redo (or two redo retries) must never interleave on
        # the same subtransaction.  An entry lives only while its lock
        # is held (see :meth:`_release_gtxn_lock`).
        self._gtxn_locks: dict[str, FifoLock] = {}
        # Hot-path cache, one tuple per message kind: (resolved handler
        # or None, takes the gtxn lock?, "{site}:{kind}" process name)
        # -- no getattr probe, set lookup or f-string per request.
        self._dispatch: dict[str, tuple[Any, bool, str]] = {}
        self._serve_process = kernel.spawn(self._serve(), name=f"comm:{node.name}")
        self.redo_executions = 0
        self.undo_executions = 0
        # Data-plane placement: the federation installs the shared
        # DataPlane here so forward executions can fence stale epochs.
        # ``None`` (the default) skips the check entirely.
        self.dataplane = None
        # Hooks fired after this manager votes "ready" -- the window in
        # which the paper's erroneous aborts happen; the fault injector
        # subscribes here.  Each hook receives (gtxn_id, txn_id, prepared):
        # ``prepared`` tells whether the local entered the ready state.
        self.on_ready_voted: list = []

    @property
    def site(self) -> str:
        return self.node.name

    # ------------------------------------------------------------------
    # Startup / crash hooks
    # ------------------------------------------------------------------

    def on_crash(self) -> None:
        """The site failed: all communication-manager memory is lost."""
        self._subtxns.clear()
        self._outcomes.clear()
        for lock in self._gtxn_locks.values():
            lock.reset(SiteCrashed(f"{self.site} crashed"))
        self._gtxn_locks.clear()

    def _gtxn_lock(self, gtxn: Optional[str]) -> FifoLock:
        key = gtxn or "?"
        lock = self._gtxn_locks.get(key)
        if lock is None:
            lock = self._gtxn_locks[key] = FifoLock(name=key)
        return lock

    def _release_gtxn_lock(self, gtxn: Optional[str], lock: FifoLock) -> None:
        """Release ``lock`` and forget it once nobody queues for it.

        Without the forgetting the table grew by one lock per global
        transaction per site, forever.  A crash resets (unlocks) the
        live locks and empties the table, hence the guards.
        """
        if not lock.locked:
            return  # reset by a crash while we held it
        lock.release()
        if not lock.locked:
            key = gtxn or "?"
            if self._gtxn_locks.get(key) is lock:
                del self._gtxn_locks[key]

    def on_restart(self) -> Generator[Any, Any, None]:
        """Respawn the serve loop after the node came back."""
        self._serve_process = self.kernel.spawn(
            self._serve(), name=f"comm:{self.node.name}"
        )
        return
        yield  # pragma: no cover - generator protocol

    # ------------------------------------------------------------------
    # Serve loop
    # ------------------------------------------------------------------

    def _serve(self) -> Generator[Any, Any, None]:
        node = self.node
        dispatch = self._dispatch
        spawn = self.kernel.spawn
        while True:
            try:
                message = yield from node.recv()
            except NodeUnreachable:
                return
            entry = dispatch.get(message.kind)
            if entry is None:
                entry = self._resolve_kind(message.kind)
            spawn(self._handle(message, entry[0], entry[1]), entry[2])

    #: Request kinds that mutate a subtransaction's fate; retries of
    #: these must not interleave with each other on one gtxn.
    _SERIALIZED_KINDS = frozenset(
        ("decide", "redo_subtxn", "undo_subtxn", "finish_subtxn",
         "execute_l0", "prepare")
    )

    def _resolve_kind(self, kind: str) -> tuple[Any, bool, str]:
        entry = self._dispatch[kind] = (
            getattr(self, f"_on_{kind}", None),
            kind in self._SERIALIZED_KINDS,
            f"{self.site}:{kind}",
        )
        return entry

    def _handle(
        self, message: Message, handler: Any, serialized: bool
    ) -> Generator[Any, Any, None]:
        if handler is None:
            self._reply(message, "error", error=f"unknown kind {message.kind}")
            return
        lock = self._gtxn_lock(message.gtxn_id) if serialized else None
        try:
            if lock is not None:
                yield from lock.acquire()
            yield from handler(message)
        except (SiteCrashed, NodeUnreachable):
            return  # the site died mid-request; the central will time out
        finally:
            if lock is not None:
                self._release_gtxn_lock(message.gtxn_id, lock)

    def _reply(self, message: Message, kind: str, **payload: Any) -> None:
        if self.node.crashed:
            return
        # ``message.reply(kind, **payload)`` without the second kwargs
        # repack: every handled request ends here.
        self.network.send(Message(
            kind, message.dest, message.sender, payload, message.gtxn_id, message.msg_id
        ))

    # ------------------------------------------------------------------
    # Subtransaction lifecycle (2PC and commit-after)
    # ------------------------------------------------------------------

    def _on_begin_subtxn(self, message: Message) -> Generator[Any, Any, None]:
        gtxn = message.gtxn_id
        assert gtxn is not None
        txn_id = self.interface.begin(gtxn_id=gtxn)
        self._subtxns[gtxn] = txn_id
        self._reply(message, "subtxn_begun", txn_id=txn_id)
        return
        yield  # pragma: no cover - generator protocol

    def _stale_epoch(self, operation: "Operation") -> bool:
        """Is this forward execution fenced by a superseded epoch?

        Only data-plane-routed operations carry a partition/epoch
        stamp.  A membership change (promotion, eviction, rejoin) bumps
        the partition epoch, and every execution still stamped with the
        old one is rejected here -- aborted-but-retriable, so the
        coordinator re-decomposes against the current membership.
        Decision, undo and recovery traffic is never fenced: it must
        reach exactly the sites the forward execution recorded.
        """
        dataplane = self.dataplane
        if (
            dataplane is None
            or not dataplane.fencing
            or operation.partition is None
            or operation.epoch is None
        ):
            return False
        if operation.epoch == dataplane.epoch_of(operation.partition):
            return False
        dataplane.stale_rejections += 1
        return True

    def _on_execute_op(self, message: Message) -> Generator[Any, Any, None]:
        """Run one operation inside the gtxn's open subtransaction.

        A ``finish_marker`` in the payload piggybacks the commit-before
        local commit on this (last) data message: after the operation
        succeeds the local transaction is committed right here and the
        outcome rides back on the ``op_done`` reply -- no dedicated
        ``finish_subtxn`` round-trip.
        """
        gtxn = message.gtxn_id
        operation: Operation = message.payload["op"]
        if self._stale_epoch(operation):
            self._reply(message, "op_failed", aborted=True, reason="stale epoch")
            return
        finish_marker = message.payload.get("finish_marker")
        txn_id = self._subtxns.get(gtxn or "")
        if txn_id is None:
            self._reply(message, "op_failed", aborted=True, reason="no subtransaction")
            return
        try:
            value, before = yield from apply(self.interface, txn_id, operation)
        except TransactionAborted as exc:
            self._reply(message, "op_failed", aborted=True, reason=str(exc.reason))
            return
        except DatabaseError as exc:
            self._reply(message, "op_failed", aborted=False, reason=str(exc))
            return
        if message.payload.get("vote_request"):
            # One-phase commit: the vote rides on this (last) data
            # reply.  A successful last operation *is* the yes vote --
            # the local stays running (logless: no prepare force), so
            # the §3.2 erroneous-abort window opens here.
            self._reply(message, "op_done", value=value, before=before, vote="ready")
            for hook in self.on_ready_voted:
                hook(gtxn, txn_id, False)
            return
        if finish_marker is None:
            self._reply(message, "op_done", value=value, before=before)
            return
        outcome = yield from self._finish_local(txn_id, finish_marker)
        self._reply(message, "op_done", value=value, before=before, outcome=outcome)

    def _finish_local(
        self, txn_id: str, marker_key: Optional[str]
    ) -> Generator[Any, Any, str]:
        """Commit the local transaction now; returns the final outcome.

        Idempotent: a retried request after the commit already happened
        answers from the transaction's state.
        """
        status = self.interface.status(txn_id)
        if status is LocalTxnState.COMMITTED:
            self._note_outcome(marker_key, "committed")
            return "committed"
        if status is LocalTxnState.ABORTED:
            self._note_outcome(marker_key, "aborted")
            return "aborted"
        try:
            if marker_key is not None and self.log_placement == "indb":
                yield from self._write_marker(txn_id, marker_key)
            yield from self.interface.commit(txn_id)
        except TransactionAborted:
            self._note_outcome(marker_key, "aborted")
            return "aborted"
        self._note_outcome(marker_key, "committed")
        return "committed"

    def _on_prepare(self, message: Message) -> Generator[Any, Any, None]:
        """Vote request.  The request says what it asks for (``ask``):

        * ``"ready"``: drive the modified TM into the ready state
          (forces the log).  Raises if the interface is standard -- the
          paper's central impossibility.  Two optional fields refine
          it: ``allow_readonly`` (a participant that wrote nothing
          commits at once and votes ``readonly``) and ``short_release``
          (release read locks and downgrade -- or, ``"all"``, release
          -- write locks right after preparing: Short-Commit).
        * ``"running"``: answer immediately after the last action; the
          local transaction stays *running* (§3.2), so an autonomous
          abort can still hit it later.
        * ``"final_state"``: the commit-before inquiry (§3.3), see
          :meth:`_report_final_state`.

        Who sent the request is irrelevant, and a request that does not
        say what it asks for is refused rather than guessed at.
        """
        gtxn = message.gtxn_id
        payload = message.payload
        ask = payload.get("ask")
        if ask == "final_state":
            yield from self._report_final_state(message)
            return
        if ask not in ("ready", "running"):
            self._reply(
                message, "vote", vote="abort",
                reason=f"vote request asks for {ask!r}",
            )
            return
        txn_id = self._subtxns.get(gtxn or "")
        if txn_id is None:
            self._reply(message, "vote", vote="abort", reason="no subtransaction")
            return
        status = self.interface.status(txn_id)
        if status is not LocalTxnState.RUNNING:
            self._reply(message, "vote", vote="abort", reason=f"state={status}")
            return
        if ask == "ready":
            if (
                payload.get("allow_readonly")
                and self.interface.has_prepare
                and self.interface.is_read_only(txn_id)
            ):
                # Read-only optimization ([ML 83]): a participant that
                # wrote nothing commits right away and drops out of
                # phase 2 -- no prepare force, no decision message.
                # Only a modified TM can tell; a standard one fails at
                # prepare below, reader or writer.
                try:
                    yield from self.interface.commit(txn_id)
                except TransactionAborted as exc:
                    self._reply(message, "vote", vote="abort", reason=str(exc.reason))
                    return
                self._reply(message, "vote", vote="readonly")
                return
            try:
                yield from self.interface.prepare(txn_id)
            except TransactionAborted as exc:
                self._reply(message, "vote", vote="abort", reason=str(exc.reason))
                return
            short_release = payload.get("short_release")
            if short_release is not None:
                # Entering the commit phase: read locks go, write locks
                # drop to shared (exposing the prepared values to
                # readers under the engine's cascade guard).
                self.interface.short_release(
                    txn_id, downgrade=short_release != "all"
                )
        self._reply(message, "vote", vote="ready")
        for hook in self.on_ready_voted:
            hook(gtxn, txn_id, ask == "ready")

    def _report_final_state(self, message: Message) -> Generator[Any, Any, None]:
        """Final-state inquiry of the commit-before protocol (§3.3).

        Locals committed (or aborted) on their own; the answer reports
        the final state.  A still-running subtransaction that finished
        its actions is committed now (self-healing after a lost
        ``finish_subtxn``); a forgotten one is resolved through the
        durable commit marker, defaulting to aborted.
        """
        gtxn = message.gtxn_id
        marker_key = message.payload.get("marker_key")
        # How to resolve a subtransaction that is still running: commit
        # it (it finished its actions; the finish message was lost) or
        # abort it (the global execution failed before it finished).
        resolve = message.payload.get("resolve", "commit")
        txn_id = self._subtxns.get(gtxn or "")
        if txn_id is not None:
            if (
                resolve == "abort"
                and self.interface.status(txn_id) is LocalTxnState.RUNNING
            ):
                yield from self._safe_abort(txn_id)
            outcome = yield from self._finish_local(txn_id, marker_key)
            self._reply(message, "vote", vote=outcome)
            return
        if self.log_placement == "indb" and marker_key is not None:
            marker = yield from self._read_marker(marker_key)
            vote = "committed" if marker is not None else "aborted"
            self._reply(message, "vote", vote=vote)
            return
        vote = self._outcomes.get(marker_key or "", "aborted")
        self._reply(message, "vote", vote="committed" if vote == "committed" else "aborted")

    def _on_decide(self, message: Message) -> Generator[Any, Any, None]:
        """Global decision for an open subtransaction (2PC / commit-after)."""
        outcome = yield from self._decide_one(
            message.gtxn_id,
            message.payload["decision"],
            message.payload.get("marker_key"),
        )
        if message.payload["decision"] != "commit" and message.payload.get("noreply"):
            return
        self._reply(message, "finished", outcome=outcome)

    def _on_decide_group(self, message: Message) -> Generator[Any, Any, None]:
        """A batch of decisions from the central group-decision pipeline.

        Entries are applied in order inside this one handler process;
        with a local ``group_commit_window`` their commit forces
        coalesce too.  Each entry takes the per-gtxn lock so a batched
        decide still cannot interleave with an in-flight redo of the
        same transaction.
        """
        outcomes: dict[str, str] = {}
        for entry in message.payload["decisions"]:
            gtxn = entry["gtxn_id"]
            lock = self._gtxn_lock(gtxn)
            yield from lock.acquire()
            try:
                outcomes[gtxn] = yield from self._decide_one(
                    gtxn, entry["decision"], entry.get("marker_key")
                )
            finally:
                self._release_gtxn_lock(gtxn, lock)
        self._reply(message, "finished_group", outcomes=outcomes)

    def _decide_one(
        self, gtxn: Optional[str], decision: str, marker_key: Optional[str]
    ) -> Generator[Any, Any, str]:
        """Apply one global decision; returns the local outcome."""
        txn_id = self._subtxns.get(gtxn or "")
        if txn_id is None:
            # After a crash the manager forgot the subtransaction.  For
            # 2PC an in-doubt transaction may have been reinstated by
            # recovery; find it by its global transaction id.
            if gtxn and self.interface.has_prepare:
                txn_id = self.interface.ready_txn(gtxn)
            if txn_id is None:
                return "aborted"
        if decision == "commit":
            outcome = yield from self._finish_local(txn_id, marker_key)
            return outcome
        status = self.interface.status(txn_id)
        if status in (LocalTxnState.RUNNING, LocalTxnState.READY):
            yield from self.interface.abort(txn_id)
        self._note_outcome(marker_key, "aborted")
        return "aborted"

    # ------------------------------------------------------------------
    # Commit-before: local commitment before the global decision
    # ------------------------------------------------------------------

    def _on_finish_subtxn(self, message: Message) -> Generator[Any, Any, None]:
        """Commit the local transaction now (per-site commit-before).

        Idempotent: a retried finish (lost reply) answers from the
        transaction's current state instead of re-committing.
        """
        gtxn = message.gtxn_id
        marker_key = message.payload.get("marker_key")
        txn_id = self._subtxns.get(gtxn or "")
        if txn_id is None:
            self._reply(message, "local_outcome", outcome="aborted", reason="forgotten")
            return
        outcome = yield from self._finish_local(txn_id, marker_key)
        self._reply(message, "local_outcome", outcome=outcome)

    def _on_execute_l0(self, message: Message) -> Generator[Any, Any, None]:
        """One L1 action as a complete L0 transaction (multi-level mode).

        Erroneous L0 aborts (deadlock, timeout, validation) are retried
        here -- the action's atomicity is L0's business.  An ``undo``
        flag marks inverse actions (they count as undo executions).
        """
        operation: Operation = message.payload["op"]
        marker_key = message.payload.get("marker_key")
        is_undo = message.payload.get("undo", False)
        # Idempotence guard: a retried request for an action that did
        # commit answers from the marker instead of re-executing.
        marker = yield from self._marker_value(marker_key)
        if marker is not None:
            payload = marker if isinstance(marker, dict) else {}
            if is_undo:
                self.undo_executions += 1
            self._reply(
                message, "l0_done",
                value=payload.get("value"), before=payload.get("before"), retries=0,
            )
            return
        # Fence *after* the marker guard: an action that already
        # committed under the old epoch must keep answering from its
        # marker, or its forward effect would be orphaned.  Only
        # not-yet-executed actions are rejected for re-routing.
        if not is_undo and self._stale_epoch(operation):
            self._reply(message, "l0_failed", aborted=True, reason="stale epoch")
            return
        # Inverse transactions are tagged so the atomicity checker can
        # pair them off against the forward executions they neutralize.
        owner = f"{message.gtxn_id}!undo" if is_undo else message.gtxn_id

        def action(txn_id: str) -> Generator[Any, Any, tuple[Any, Any]]:
            value, before = yield from apply(self.interface, txn_id, operation)
            if (
                marker_key is not None
                and self.log_placement == "indb"
                and operation.kind != "read"
            ):
                # The marker row carries the before-image so the
                # central undo-log can be rebuilt even if this reply
                # is lost to a crash.
                yield from self._write_marker(
                    txn_id, marker_key, {"before": before, "value": value}
                )
            return value, before

        done = yield from self._until_committed(
            owner,
            action,
            lambda exc: self._reply(
                message, "l0_failed", aborted=exc is None,
                reason="retries exhausted" if exc is None else str(exc),
            ),
        )
        if done is None:
            return
        (value, before), retries = done
        self._note_outcome(marker_key, "committed")
        if is_undo:
            self.undo_executions += 1
        self._reply(message, "l0_done", value=value, before=before, retries=retries)

    def _on_undo_subtxn(self, message: Message) -> Generator[Any, Any, None]:
        """Run the inverse transaction for a committed subtransaction.

        The inverse transaction is itself a local transaction; if it is
        (erroneously) aborted it is repeated (§3.3).
        """
        inverse_ops: list[Operation] = message.payload["inverse_ops"]
        marker_key = message.payload.get("marker_key")
        already = yield from self._marker_value(marker_key)
        if already is not None:
            self._reply(message, "undo_result", outcome="undone", retries=0)
            return
        owner = f"{message.gtxn_id}!undo" if message.gtxn_id else None

        def inverse(txn_id: str) -> Generator[Any, Any, None]:
            if marker_key is not None and self.log_placement == "indb":
                yield from self._write_marker(txn_id, marker_key)
            for operation in inverse_ops:
                yield from apply(self.interface, txn_id, operation)

        done = yield from self._until_committed(
            owner,
            inverse,
            lambda exc: self._reply(message, "undo_result", outcome="failed", **_reason(exc)),
        )
        if done is None:
            return
        _, retries = done
        self._note_outcome(marker_key, "committed")
        self.undo_executions += 1
        self._reply(message, "undo_result", outcome="undone", retries=retries)

    # ------------------------------------------------------------------
    # Commit-after: redo of erroneously aborted subtransactions
    # ------------------------------------------------------------------

    def _on_redo_subtxn(self, message: Message) -> Generator[Any, Any, None]:
        """Repeat the whole subtransaction until it commits (§3.2).

        Idempotent: if the durable commit marker shows a previous (redo
        or original) execution already committed, nothing is repeated --
        the guard against the central's retries double-applying.
        """
        operations: list[Operation] = message.payload["ops"]
        marker_key = message.payload.get("marker_key")
        already = yield from self._marker_value(marker_key)
        if already is not None:
            self._reply(message, "redo_result", outcome="committed", retries=0)
            return

        def redo(txn_id: str) -> Generator[Any, Any, str]:
            for operation in operations:
                yield from apply(self.interface, txn_id, operation)
            if marker_key is not None and self.log_placement == "indb":
                yield from self._write_marker(txn_id, marker_key)
            return txn_id

        done = yield from self._until_committed(
            message.gtxn_id,
            redo,
            lambda exc: self._reply(message, "redo_result", outcome="failed", **_reason(exc)),
        )
        if done is None:
            return
        txn_id, retries = done
        if message.gtxn_id:
            self._subtxns[message.gtxn_id] = txn_id
        self._note_outcome(marker_key, "committed")
        self.redo_executions += 1
        self._reply(message, "redo_result", outcome="committed", retries=retries)

    # ------------------------------------------------------------------
    # Status queries
    # ------------------------------------------------------------------

    def _on_status_query(self, message: Message) -> Generator[Any, Any, None]:
        """Answer "what happened to this subtransaction?".

        With in-DB log placement the commit-marker relation inside the
        database is consulted (survives crashes); otherwise only the
        manager's volatile memory -- after a crash the honest answer is
        ``unknown``.
        """
        marker_key = message.payload.get("marker_key")
        gtxn = message.gtxn_id
        txn_id = self._subtxns.get(gtxn or "")
        if txn_id is not None:
            status = self.interface.status(txn_id)
            if status is LocalTxnState.COMMITTED:
                self._reply(message, "status_report", outcome="committed")
                return
            if status in (LocalTxnState.RUNNING, LocalTxnState.READY):
                self._reply(message, "status_report", outcome="running")
                return
            if status is LocalTxnState.ABORTED:
                self._reply(message, "status_report", outcome="aborted")
                return
        if self.log_placement == "indb" and marker_key is not None:
            marker = yield from self._read_marker(marker_key)
            if marker is None:
                self._reply(message, "status_report", outcome="aborted")
            elif isinstance(marker, dict):
                self._reply(
                    message,
                    "status_report",
                    outcome="committed",
                    before=marker.get("before"),
                    value=marker.get("value"),
                )
            else:
                self._reply(message, "status_report", outcome="committed")
            return
        outcome = self._outcomes.get(marker_key or "", "unknown")
        self._reply(message, "status_report", outcome=outcome)

    def _on_recover_query(self, message: Message) -> Generator[Any, Any, None]:
        """List the in-doubt globals local recovery reinstated (READY).

        The global recovery manager asks this after a restart; the
        answer drives its protocol-specific re-resolution pass.  A TM
        with no ready state has nothing in doubt.
        """
        in_doubt = self.interface.in_doubt() if self.interface.has_prepare else []
        self._reply(message, "recover_report", in_doubt=in_doubt)
        return
        yield  # pragma: no cover - generator protocol

    def _on_pre_commit(self, message: Message) -> Generator[Any, Any, None]:
        """3PC pre-commit: acknowledge at once.

        Nothing is logged: 3PC's participant pre-commit record is not
        modelled, so the ack only costs the message round.
        """
        self._reply(message, "pre_commit_ack")
        return
        yield  # pragma: no cover - generator protocol

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _until_committed(
        self,
        owner: Optional[str],
        body: Callable[[str], Generator[Any, Any, Any]],
        failed: Callable[[Optional[DatabaseError]], None],
    ) -> Generator[Any, Any, Optional[tuple[Any, int]]]:
        """Run ``body`` in a fresh local transaction until one commits.

        Returns ``(what body returned, retries)``.  An erroneous abort
        (deadlock victim, lock timeout, failed validation) is repeated
        until ``MAX_L0_RETRIES`` is exceeded, then ``failed(None)``
        replies.  Any other database error aborts the local and
        ``failed(error)`` replies.  Either failure returns ``None``.
        """
        retries = 0
        while True:
            txn_id = self.interface.begin(gtxn_id=owner)
            try:
                result = yield from body(txn_id)
                yield from self.interface.commit(txn_id)
                return result, retries
            except TransactionAborted:
                retries += 1
                # Randomized backoff: concurrent repetitions contending
                # on the same pages must not retry in lockstep.
                yield self._retry_rng.uniform(1.0, 5.0 * retries)
                if retries > MAX_L0_RETRIES:
                    failed(None)
                    return None
            except DatabaseError as exc:
                yield from self._safe_abort(txn_id)
                failed(exc)
                return None

    def _write_marker(
        self, txn_id: str, marker_key: str, value: Any = "done"
    ) -> Generator[Any, Any, None]:
        """Write the commit marker inside the local transaction itself."""
        yield from self.interface.write(txn_id, COMMITLOG_TABLE, marker_key, value)

    def _marker_value(self, marker_key: Optional[str]) -> Generator[Any, Any, Any]:
        """The marker row of a committed transaction, else ``None``.

        The row carries before/value for L0 actions.  Uses the durable
        marker with in-DB placement, volatile memory otherwise (which
        is precisely what EXP-A2 shows to be unsafe).
        """
        if marker_key is None:
            return None
        if self.log_placement == "indb":
            marker = yield from self._read_marker(marker_key)
            return marker
        if self._outcomes.get(marker_key) == "committed":
            return {}
        return None

    def _read_marker(self, marker_key: str) -> Generator[Any, Any, Any]:
        """Read the commit-marker row with a fresh transaction."""
        txn_id = self.interface.begin()
        try:
            value = yield from self.interface.read(txn_id, COMMITLOG_TABLE, marker_key)
            yield from self.interface.commit(txn_id)
        except TransactionAborted:
            return None
        return value

    def _safe_abort(self, txn_id: str) -> Generator[Any, Any, None]:
        status = self.interface.status(txn_id)
        if status in (LocalTxnState.RUNNING, LocalTxnState.READY):
            try:
                yield from self.interface.abort(txn_id)
            except TransactionAborted:
                pass

    def _note_outcome(self, marker_key: Optional[str], outcome: str) -> None:
        """Remember an outcome; only the volatile placement needs to."""
        if marker_key is not None and self.log_placement == "volatile":
            self._outcomes[marker_key] = outcome

    def __repr__(self) -> str:
        return f"<LocalCommunicationManager {self.site} subtxns={len(self._subtxns)}>"


def _reason(exc: Optional[DatabaseError]) -> dict[str, str]:
    """A failure reply's ``reason`` field: the error, if there was one."""
    return {} if exc is None else {"reason": str(exc)}
