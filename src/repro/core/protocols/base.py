"""Shared protocol machinery.

A protocol receives a :class:`ProtocolContext` per global transaction
and drives it to a :class:`~repro.core.global_txn.GlobalOutcome`.  The
context bundles the communication manager, the L1 lock table, the
redo/undo logs, the retry/polling helpers and the **commit phases**
every protocol's ``run`` is a script over -- Figures 2, 4 and 6 share
them and differ in where the local commit point sits:
``run_subtransactions`` (execute), ``vote_round`` (inquire),
``abort_running`` / ``abort_everywhere`` and ``commit_everywhere``
(drive every local to its final state).  What a protocol needs from
the layers *around* the coordinator -- its recovery policy -- is
declared on :class:`CommitProtocol`.

Recovery is the protocol, resumed: the recovery manager rebuilds a
context from the durable record (:meth:`ProtocolContext.from_record`)
and hands it to the protocol, whose recovery policy re-enters the very
steps the live script runs.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from repro.core.global_txn import GlobalTransaction, GlobalTxnState
from repro.errors import DeadlockDetected, LockTimeout, MessageTimeout, ProcessInterrupted
from repro.localdb.locks import LockManager
from repro.mlt.actions import Operation, inverse_of
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.global_txn import GlobalOutcome
    from repro.core.gtm import GlobalTransactionManager, GTMConfig
    from repro.core.recovery import GlobalRecoveryManager
    from repro.core.redo import RedoLog
    from repro.core.undo import UndoLog
    from repro.integration.comm_central import CentralCommunicationManager
    from repro.integration.decompose import Decomposition
    from repro.sim.kernel import Kernel


class ExecutionFailure(Exception):
    """A subtransaction could not execute an operation.

    ``aborted`` distinguishes a dead local transaction from a pure
    logic error (key not found, duplicate) inside a live one.
    """

    def __init__(self, site: str, reason: str, aborted: bool):
        super().__init__(f"{site}: {reason}")
        self.site = site
        self.reason = reason
        self.aborted = aborted


#: What the execution phase raises when it cannot complete: a failed
#: operation, or an L1 deadlock victim / lock timeout.
EXECUTION_ERRORS = (ExecutionFailure, DeadlockDetected, LockTimeout)


class ProtocolContext:
    """Everything one protocol run needs."""

    def __init__(
        self,
        gtm: "GlobalTransactionManager",
        gtxn: "GlobalTransaction",
        decomposition: "Decomposition",
        outcome: "GlobalOutcome",
        intends_abort: bool,
    ):
        self.gtm = gtm
        self.kernel: "Kernel" = gtm.kernel
        self.config: "GTMConfig" = gtm.config
        self.comm: "CentralCommunicationManager" = gtm.comm
        self.l1: Optional[LockManager] = gtm.l1
        self.redo_log: "RedoLog" = gtm.redo_log
        self.undo_log: "UndoLog" = gtm.undo_log
        self.gtxn = gtxn
        self.decomposition = decomposition
        self.outcome = outcome
        self.intends_abort = intends_abort
        #: Rebuilt by recovery (:meth:`from_record`), not begun by ``run``.
        self.resumed = False

    @classmethod
    def from_record(
        cls,
        gtm: "GlobalTransactionManager",
        gtxn: "GlobalTransaction | str",
        operations: Iterable[Operation] = (),
        site: Optional[str] = None,
    ) -> "ProtocolContext":
        """A context rebuilt from the durable record, to resume a step.

        ``gtxn`` is a crashed coordinator's in-flight transaction, or the
        id an in-doubt local or a redo-/undo-log entry names, with that
        entry's routed ``operations`` and the ``site`` it concerns.
        Resumed steps count their redos and undos into the recovery
        manager's :attr:`~repro.core.recovery.GlobalRecoveryManager.tally`.
        """
        from repro.integration.decompose import Decomposition

        if isinstance(gtxn, str):
            gtxn = GlobalTransaction(
                gtm.kernel, gtxn, list(operations), origin=gtm.name, traced=False
            )
        decomposition = Decomposition(ordered=list(gtxn.operations))
        if site is not None:
            decomposition.by_site[site] = list(gtxn.operations)
        else:
            for operation in gtxn.operations:
                decomposition.by_site.setdefault(operation.site, []).append(operation)
        ctx = cls(gtm, gtxn, decomposition, gtm.recovery.tally, intends_abort=False)
        ctx.resumed = True
        return ctx

    # -- L1 locking --------------------------------------------------------

    def acquire_l1(self, operation: Operation) -> Generator[Any, Any, None]:
        """Take the L1 lock for ``operation`` (no-op without an L1 table).

        May raise :class:`~repro.errors.DeadlockDetected` or
        :class:`~repro.errors.LockTimeout`; the GTM turns those into a
        global abort (and possibly a retry of the whole transaction).
        """
        if self.l1 is None:
            return
        yield from self.l1.acquire(
            self.gtxn.gtxn_id,
            (operation.table, operation.key),
            self.l1.table.mode_for(operation.kind),
        )

    def release_l1(self) -> None:
        if self.l1 is not None:
            self.l1.release_all(self.gtxn.gtxn_id)

    # -- messaging helpers -----------------------------------------------------

    def request(
        self, site: str, kind: str, timeout: Optional[float] = None, **payload: Any
    ) -> Generator[Any, Any, Message]:
        """Request/reply with the configured (or the given) timeout."""
        reply = yield from self.comm.request(
            site,
            kind,
            gtxn_id=self.gtxn.gtxn_id,
            timeout=timeout or self.config.msg_timeout,
            **payload,
        )
        return reply

    def request_until_answered(
        self, site: str, kind: str, **payload: Any
    ) -> Generator[Any, Any, Message]:
        """Retry a request until the site answers (waits out crashes).

        The paper's protocols assume the central system can wait for a
        local system "to come up again"; this helper is that wait.
        """
        while True:
            try:
                reply = yield from self.request(site, kind, **payload)
                return reply
            except MessageTimeout:
                yield self.config.status_poll_interval

    def decide_commit(
        self, site: str, marker_key: Optional[str] = None
    ) -> Generator[Any, Any, str]:
        """Deliver the commit decision to one site.

        The decision record is hardened at the central decision log
        first.  With the group-decision pipeline enabled, concurrent
        transactions deciding for the same site share one round-trip
        and one forced write.  Returns ``committed`` / ``aborted`` /
        ``ambiguous`` (timeout -- the caller's retry machinery takes
        over, exactly as for an individual decide).
        """
        pipeline = self.gtm.pipeline
        if pipeline is not None:
            outcome = yield from pipeline.decide(
                site, self.gtxn.gtxn_id, "commit", marker_key
            )
            return outcome
        self.gtm.decision_log.harden([self.gtxn.gtxn_id], "commit")
        try:
            # A decide may queue behind an in-flight redo of the same
            # transaction at the site; allow for that.
            reply = yield from self.comm.request(
                site, "decide", gtxn_id=self.gtxn.gtxn_id,
                timeout=self.config.msg_timeout * 4,
                decision="commit", marker_key=marker_key,
            )
            return reply.payload["outcome"]
        except MessageTimeout:
            return "ambiguous"

    def commit_until_done(self, site: str) -> Generator[Any, Any, str]:
        """Deliver the commit decision, waiting out crashed sites."""
        while True:
            outcome = yield from self.decide_commit(site)
            if outcome != "ambiguous":
                return outcome
            yield self.config.status_poll_interval

    def await_status(
        self, site: str, marker_key: str, once: bool = False
    ) -> Generator[Any, Any, Optional[Message]]:
        """Poll ``status_query`` until the site answers (it may be down, §3.3).

        The live script pauses before every query.  A resumed context
        asks first and pauses between tries; it asks the marker alone
        (no gtxn id, so the site cannot answer from a local it still
        holds) and gets ``None`` once its coordinator crashed.  With
        ``once`` an unanswered query returns ``None`` at once.
        """
        while True:
            if not self.resumed:
                yield self.config.status_poll_interval
            try:
                reply = yield from self.comm.request(
                    site, "status_query",
                    gtxn_id=None if self.resumed else self.gtxn.gtxn_id,
                    timeout=self.config.msg_timeout,
                    marker_key=marker_key,
                )
                return reply
            except MessageTimeout:
                if once:
                    return None
            if self.resumed:
                yield self.config.status_poll_interval
                if self.gtm.crashed:
                    return None

    def parallel(
        self, jobs: dict[str, Generator[Any, Any, Any]], strict: bool = False
    ) -> Generator[Any, Any, dict[str, Any]]:
        """Run per-site generators concurrently; map exceptions to values.

        With ``strict`` the first collected exception is re-raised once
        every job has finished.
        """
        processes = {
            key: self.kernel.spawn(job, name=f"{self.gtxn.gtxn_id}:{key}")
            for key, job in jobs.items()
        }
        for process in processes.values():
            # Per-site helpers die with their coordinator: a crashed
            # coordinator's pool interrupts every tracked process, so
            # none of them keeps driving the protocol from beyond the
            # grave.
            self.gtm.track_service(process)
        results: dict[str, Any] = {}
        for key, process in processes.items():
            try:
                results[key] = yield process
            except ProcessInterrupted:
                # The *coordinator* was interrupted (crash): propagate --
                # swallowing it here would keep the dead coordinator's
                # protocol running.
                raise
            except Exception as exc:  # noqa: BLE001 - collected for the caller
                results[key] = exc
        if strict:
            for result in results.values():
                if isinstance(result, Exception):
                    raise result
        return results

    # -- subtransaction execution (shared by 2PC / after / before-per-site) ----

    def begin_subtransactions(self) -> Generator[Any, Any, None]:
        """Open one local transaction per participating site."""
        replies = yield from self.parallel(
            {
                site: self.request(site, "begin_subtxn")
                for site in self.decomposition.sites
            }
        )
        for site, reply in replies.items():
            if isinstance(reply, Exception):
                raise ExecutionFailure(site, f"begin failed: {reply}", aborted=True)

    def execute_operations(
        self,
        record_undo: bool = False,
        on_site_finished: Optional[Callable[[str], None]] = None,
        finish_markers: Optional[dict[str, str]] = None,
        collect_votes: bool = False,
    ) -> Generator[Any, Any, dict[str, str]]:
        """Stream the global operations to their sites in global order.

        Acquires the L1 lock per operation before dispatch, collects
        read results and (optionally) undo records with before-images.
        ``on_site_finished`` fires when a site's last operation is done
        -- commit-before uses it to commit locals as early as possible.

        ``finish_markers`` (commit-before per-site piggybacking) maps
        sites to commit-marker keys; a site's *last* operation then
        carries the local-commit request and its reply carries the
        local outcome.  Returns the piggybacked outcomes per site
        (empty when no markers were given).

        ``collect_votes`` (one-phase commit) asks each site to stamp a
        commit vote on the reply of its *last* operation -- the vote
        rides on a message that flows anyway, so the decision needs no
        extra voting round.  The votes come back in the returned dict.
        """
        remaining = {
            site: len(ops) for site, ops in self.decomposition.by_site.items()
        }
        piggybacked: dict[str, str] = {}
        for operation in self.decomposition.ordered:
            yield from self.acquire_l1(operation)
            payload: dict[str, Any] = {"op": operation}
            if (
                finish_markers is not None
                and remaining[operation.site] == 1
                and operation.site in finish_markers
            ):
                payload["finish_marker"] = finish_markers[operation.site]
            if collect_votes and remaining[operation.site] == 1:
                payload["vote_request"] = True
            try:
                reply = yield from self.request(
                    operation.site, "execute_op", **payload
                )
            except MessageTimeout as exc:
                raise ExecutionFailure(
                    operation.site, f"timeout on {operation}", aborted=True
                ) from exc
            if reply.kind == "op_failed":
                raise ExecutionFailure(
                    operation.site,
                    reply.payload.get("reason", "unknown"),
                    aborted=reply.payload.get("aborted", True),
                )
            value = reply.payload.get("value")
            before = reply.payload.get("before")
            if operation.kind == "read":
                self.outcome.reads[f"{operation.table}[{operation.key!r}]"] = value
            if record_undo:
                self.undo_log.record(
                    self.gtxn.gtxn_id,
                    operation.site,
                    operation,
                    inverse_of(operation, before),
                )
            if "outcome" in reply.payload:
                piggybacked[operation.site] = reply.payload["outcome"]
            if "vote" in reply.payload:
                piggybacked[operation.site] = reply.payload["vote"]
            remaining[operation.site] -= 1
            if remaining[operation.site] == 0 and on_site_finished is not None:
                on_site_finished(operation.site)
        return piggybacked

    # -- the commit phases (each protocol's ``run`` is a script over these) ----

    def failure_reason(self, exc: Exception) -> str:
        """Abort reason for an execution-phase error; also records whether
        the cause was transient, so the GTM may retry the transaction."""
        if isinstance(exc, ExecutionFailure):
            self.outcome.retriable = exc.aborted
            return str(exc)
        self.outcome.retriable = True
        return f"L1 conflict: {exc}"

    def run_subtransactions(
        self, **streaming: Any
    ) -> Generator[Any, Any, tuple[Optional[str], dict[str, str]]]:
        """Execution phase: one local per site, operations in global order
        (``streaming`` goes to :meth:`execute_operations`).

        Returns ``(failure, piggybacked)``: why the execution could not
        complete (``None`` if it did) and what rode back on data replies.
        """
        try:
            yield from self.begin_subtransactions()
            piggybacked = yield from self.execute_operations(**streaming)
        except EXECUTION_ERRORS as exc:
            return self.failure_reason(exc), {}
        return None, piggybacked

    def vote_round(self, **request: Any) -> Generator[Any, Any, dict[str, Optional[str]]]:
        """One ``prepare`` round over every site; returns site -> vote.

        ``request`` says what is asked of the participants (see
        ``LocalCommunicationManager._on_prepare``).  ``None`` stands for
        a site that did not answer; what that means is the caller's call.
        """
        replies = yield from self.parallel(
            {
                site: self.request(site, "prepare", **request)
                for site in self.decomposition.sites
            }
        )
        return {
            site: None if isinstance(reply, Exception) else reply.payload.get("vote")
            for site, reply in replies.items()
        }

    def abort_everywhere(self, reason: str) -> Generator[Any, Any, None]:
        """The abort decision is made: deliver it, waiting out crashes."""
        self.gtxn.set_state(GlobalTxnState.WAITING_TO_ABORT)
        yield from self.parallel(
            {
                site: self.request_until_answered(site, "decide", decision="abort")
                for site in self.decomposition.sites
            }
        )
        self.gtxn.set_state(GlobalTxnState.ABORTED)
        self.outcome.reason = reason

    def abort_running(self, reason: str) -> Generator[Any, Any, None]:
        """Abort while every local is still running -- the cheap path."""
        self.gtxn.set_decision("abort", cause=reason)
        yield from self.abort_everywhere(reason)

    def commit_everywhere(
        self,
        commit_site: Callable[[str], Generator[Any, Any, Any]],
        sites: Optional[Iterable[str]] = None,
    ) -> Generator[Any, Any, dict[str, Any]]:
        """The commit decision is made: drive every local to committed.

        ``commit_site(site)`` returns once that site's local committed;
        its failure fails the transaction *before* it is declared
        committed.  Returns the per-site results.
        """
        self.gtxn.set_state(GlobalTxnState.WAITING_TO_COMMIT)
        results = yield from self.parallel(
            {
                site: commit_site(site)
                for site in (self.decomposition.sites if sites is None else sites)
            },
            strict=True,
        )
        self.gtxn.set_state(GlobalTxnState.COMMITTED)
        self.outcome.committed = True
        return results


class CommitProtocol(abc.ABC):
    """Interface of an atomic commitment protocol.

    ``run`` is the coordinator's script; the other members are the
    protocol's *recovery policy* -- what the recovery manager, the pool
    and the federation do on its behalf.  The recovery methods take a
    context rebuilt from the durable record
    (:meth:`ProtocolContext.from_record`) and resume the script's own
    steps.  The defaults are the 2PC family's (the hardened decision is
    authoritative, none means presumed abort); subclasses inherit their
    parent's.  Name and ``requires_prepare`` live in the registry row
    only.
    """

    #: L1 lock manager class (used when the registry row names a table).
    l1_manager: type[LockManager] = LockManager
    #: Decisions are chosen by an acceptor group, not forced at the
    #: central log: the federation builds the group and a crashed
    #: coordinator's transactions are taken over at a higher ballot.
    replicated_decisions: bool = False
    #: A reply nobody waits for proves the site holds a live local to
    #: terminate.  False when locals are terminal once they answer.
    stray_replies_reveal_orphans: bool = True
    #: How long a crashed coordinator's in-flight transactions wait
    #: before a live peer settles them (0: adopted at once).
    orphan_wait: float = 0.0

    @abc.abstractmethod
    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        """Drive ``ctx.gtxn`` to a final state, filling ``ctx.outcome``."""

    def runs_per_action(self, config: "GTMConfig") -> bool:
        """One L0 transaction per L1 action (§4) instead of one per site?"""
        return False

    def durable_decision(self, ctx: ProtocolContext) -> Optional[str]:
        """The decision recovery may act on: the hardened commit record,
        else presumed abort.  A protocol that can answer ``None`` (not
        readable yet) says in :meth:`conclude` how to choose one."""
        return ctx.gtm.decision_log.decision_for(ctx.gtxn.gtxn_id) or "abort"

    def conclude(self, ctx: ProtocolContext) -> Generator[Any, Any, str]:
        """Choose the decision for a transaction nothing drives any more
        whose :meth:`durable_decision` is unreadable (never, by default)."""
        raise NotImplementedError(f"{type(self).__name__} always has a decision")

    def after_site_restart(
        self, ctx: ProtocolContext, site: str
    ) -> Generator[Any, Any, None]:
        """Resume a redo- or undo-log entry at a restarted ``site``, once
        its in-doubt locals were decided (default: nothing is logged)."""
        return
        yield  # pragma: no cover - generator protocol

    def settle_orphan(
        self, ctx: ProtocolContext, recovery: "GlobalRecoveryManager"
    ) -> Generator[Any, Any, bool]:
        """Settle an in-flight transaction of a crashed coordinator (default:
        the durable decision, everywhere).  Returns whether every site was
        settled; restart recovery does the rest."""
        return recovery.deliver_decision(ctx, self.durable_decision(ctx))


def make_protocol(name: str) -> CommitProtocol:
    """Protocol factory used by the GTM configuration.

    Resolves through the protocol registry
    (:data:`repro.core.protocols.PROTOCOL_REGISTRY`), the single source
    of truth for the protocol matrix.
    """
    from repro.core.protocols import protocol_info

    return protocol_info(name).load()()
