"""Local commitment *before* the global decision (§3.3/§4, Figures 6, 7).

The paper's contribution.  Local transactions commit independently, as
soon as they finish, releasing their L0 locks long before the global
transaction ends.  The GTM then *inquires* about final states; if the
outcomes are mixed (or the transaction intends to abort), committed
locals are undone by **inverse transactions** -- and a committed
inverse transaction means the local transaction is aborted (Figure 6's
hatched states).

Two granularities:

* ``per_site`` -- one local transaction per site, committed after the
  site's last action ([BST 90]/[WV 90] style).
* ``per_action`` -- the multi-level configuration of §4: every L1
  action runs as its own short L0 transaction, exactly Figure 8's
  two-level scheme lifted to the federation.  Combined with the
  semantic L1 conflict table this is the paper's recommended design:
  the undo-log and the L1 locks are the multi-level machinery itself,
  so atomic commitment adds no extra component.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.core.global_txn import GlobalTxnState
from repro.core.protocols.base import (
    EXECUTION_ERRORS,
    CommitProtocol,
    ExecutionFailure,
    ProtocolContext,
)
from repro.core.undo import optimize_inverses
from repro.errors import MessageTimeout
from repro.mlt.actions import Operation, inverse_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.gtm import GTMConfig
    from repro.core.recovery import GlobalRecoveryManager

#: (index in the global order, operation, its undo-log record)
Executed = list[tuple[int, Operation, Any]]


class CommitBefore(CommitProtocol):
    """Locals commit first; global abort undoes via inverse transactions."""

    # Locals are terminal by the time they answer: a straggling reply
    # leaves nothing to terminate (durable markers settle the rest).
    stray_replies_reveal_orphans = False
    #: ``None`` follows ``GTMConfig.granularity``; the per-action
    #: baselines pin theirs.
    fixed_granularity: Optional[str] = None

    def runs_per_action(self, config: "GTMConfig") -> bool:
        """One L0 transaction per L1 action (§4) instead of one per site?"""
        return (self.fixed_granularity or config.granularity) == "per_action"

    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        if self.runs_per_action(ctx.config):
            yield from self._run_per_action(ctx)
        else:
            yield from self._run_per_site(ctx)

    def _conclude(
        self,
        ctx: ProtocolContext,
        failure: Optional[str],
        undo: Callable[[], Generator[Any, Any, Any]],
    ) -> Generator[Any, Any, None]:
        """Decision point (Figure 6): every local is already final.

        Commit is free; a failed or intentionally aborting transaction
        runs ``undo()`` -- the inverse transactions -- first.
        """
        gtxn = ctx.gtxn
        reason = failure or ("intended abort" if ctx.intends_abort else None)
        if reason is None:
            gtxn.set_decision("commit")
            gtxn.set_state(GlobalTxnState.COMMITTED)
            ctx.outcome.committed = True
        else:
            gtxn.set_decision("abort", cause=reason)
            gtxn.set_state(GlobalTxnState.WAITING_TO_ABORT)
            yield from undo()
            gtxn.set_state(GlobalTxnState.ABORTED)
            ctx.outcome.reason = reason
        ctx.undo_log.forget(gtxn.gtxn_id)

    # -- recovery policy: presumed abort, compensating what committed -------

    def after_site_restart(
        self, ctx: ProtocolContext, site: str
    ) -> Generator[Any, Any, None]:
        """Per site: re-drive the logged inverse transaction, once the
        durable commit marker confirms the forward subtransaction
        committed.  Per-action inverses are the coordinator's to finish."""
        if self.runs_per_action(ctx.config) or not ctx.gtm.durable_status:
            return  # volatile placement cannot confirm the commit (EXP-A2)
        gtxn_id = ctx.gtxn.gtxn_id
        records = ctx.undo_log.inverses_for(gtxn_id, site)
        if not records:
            return
        status = yield from ctx.await_status(site, f"{gtxn_id}:{site}", once=True)
        if status is None or status.payload.get("outcome") != "committed":
            return  # never undo a forward subtransaction that did not commit
        ctx.kernel.trace.emit("recovery_undo", ctx.gtm.name, gtxn_id, at=site)
        yield from self._run_inverse(
            ctx, site, "undo_subtxn", f"undo:{gtxn_id}:{site}",
            once=True, timeout=ctx.config.msg_timeout * 4,
            inverse_ops=[record.inverse for record in records],
        )

    def settle_orphan(
        self, ctx: ProtocolContext, recovery: "GlobalRecoveryManager"
    ) -> Generator[Any, Any, bool]:
        """Presumed abort: unfinished locals abort, durably committed
        effects are compensated by inverse transactions."""
        if self.runs_per_action(ctx.config):
            return self._undo_orphan_actions(ctx)
        return self._undo_orphan_sites(ctx, recovery)

    def _undo_orphan_sites(
        self, ctx: ProtocolContext, recovery: "GlobalRecoveryManager"
    ) -> Generator[Any, Any, bool]:
        # The abort settles unfinished locals (the cheap abort of a
        # running subtransaction); a committed one reports back and its
        # site's logged inverses are re-driven -- the orphan's own
        # included, though the pool still counts it as active.
        gtxn_id = ctx.gtxn.gtxn_id
        settled = yield from recovery.deliver_decision(ctx, "abort")
        for site in ctx.decomposition.sites:
            yield from recovery.resume_logged(site, adopting=gtxn_id)
        if settled:
            ctx.undo_log.forget(gtxn_id)
        return settled

    def _undo_orphan_actions(self, ctx: ProtocolContext) -> Generator[Any, Any, bool]:
        """Walk the orphan's routed operations in reverse: an action whose
        durable commit marker confirms it took effect is undone by an
        inverse rebuilt from the marker's before-image -- the central
        undo-log alone misses the last action when the crash ate its reply."""
        if not ctx.gtm.durable_status:
            return True  # volatile placement cannot confirm forward commits
        gtxn_id = ctx.gtxn.gtxn_id
        settled = True
        for index, operation in reversed(list(enumerate(ctx.decomposition.ordered))):
            if operation.site is None or operation.kind == "read":
                continue
            marker_key = f"{gtxn_id}:{index}"
            status = yield from ctx.await_status(operation.site, marker_key)
            if status is None:
                settled = False
                continue
            if status.payload.get("outcome") != "committed":
                continue  # the action never took durable effect
            inverse = inverse_of(operation, status.payload.get("before"))
            if inverse is None:
                continue
            ctx.kernel.trace.emit(
                "recovery_undo", ctx.gtm.name, gtxn_id,
                at=operation.site, op=str(inverse),
            )
            undone = yield from self._run_inverse(
                ctx, operation.site, "execute_l0", f"undo:{marker_key}",
                op=inverse, undo=True,
            )
            if not undone:
                settled = False
        if settled:
            ctx.undo_log.forget(gtxn_id)
        return settled

    # ------------------------------------------------------------------
    # Multi-level granularity: one L0 transaction per L1 action (§4)
    # ------------------------------------------------------------------

    def _run_per_action(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        executed, failure = yield from self._execute_actions(ctx)
        yield from self._conclude(
            ctx, failure, lambda: self._undo_actions(ctx, executed)
        )

    def _execute_actions(
        self,
        ctx: ProtocolContext,
        on_action: Optional[Callable[[int, Operation], None]] = None,
    ) -> Generator[Any, Any, tuple[Executed, Optional[str]]]:
        """Run each action as its own L0 transaction, in global order.

        Returns what executed (with its undo records) and the reason
        the execution stopped early, if it did.  ``on_action`` fires
        after each committed action.
        """
        gtxn_id = ctx.gtxn.gtxn_id
        executed: Executed = []
        try:
            for index, operation in enumerate(ctx.decomposition.ordered):
                yield from ctx.acquire_l1(operation)
                value, before, retries = yield from self._execute_action(
                    ctx, operation, f"{gtxn_id}:{index}"
                )
                ctx.outcome.l0_retries += retries
                if operation.kind == "read":
                    ctx.outcome.reads[f"{operation.table}[{operation.key!r}]"] = value
                record = ctx.undo_log.record(
                    gtxn_id, operation.site, operation, inverse_of(operation, before)
                )
                executed.append((index, operation, record))
                if on_action is not None:
                    on_action(index, operation)
        except EXECUTION_ERRORS as exc:
            return executed, ctx.failure_reason(exc)
        return executed, None

    def _execute_action(
        self, ctx: ProtocolContext, operation: Operation, marker_key: str
    ) -> Generator[Any, Any, tuple[Any, Any, int]]:
        """One L1 action as an L0 transaction, resolving crash ambiguity."""
        while True:
            try:
                reply = yield from ctx.request(
                    operation.site, "execute_l0", op=operation, marker_key=marker_key
                )
            except MessageTimeout:
                resolved = yield from self._resolve_action_ambiguity(
                    ctx, operation.site, marker_key
                )
                if resolved is not None:
                    return resolved
                continue  # not committed: safe to re-send
            if reply.kind == "l0_failed":
                raise ExecutionFailure(
                    operation.site,
                    reply.payload.get("reason", "unknown"),
                    aborted=reply.payload.get("aborted", True),
                )
            return (
                reply.payload.get("value"),
                reply.payload.get("before"),
                reply.payload.get("retries", 0),
            )

    def _resolve_action_ambiguity(
        self, ctx: ProtocolContext, site: str, marker_key: str
    ) -> Generator[Any, Any, Optional[tuple[Any, Any, int]]]:
        """After a timeout: did the action's L0 transaction commit?

        Returns the (value, before, retries) recovered from the durable
        marker when it did, ``None`` when it is safe to re-execute.
        """
        while True:
            reply = yield from ctx.await_status(site, marker_key)
            status = reply.payload["outcome"]
            if status == "committed":
                return (reply.payload.get("value"), reply.payload.get("before"), 0)
            if status in ("aborted", "unknown"):
                # "unknown" (volatile placement) forces a guess; the
                # re-execution may double-apply -- EXP-A2 shows it.
                return None

    def _undo_actions(
        self, ctx: ProtocolContext, executed: Executed
    ) -> Generator[Any, Any, None]:
        """Run inverse actions in reverse order, each as an L0 txn."""
        for index, operation, record in reversed(executed):
            inverse = record.inverse
            if inverse is None:
                continue  # a read: nothing to undo
            marker_key = f"undo:{ctx.gtxn.gtxn_id}:{index}"
            ctx.kernel.trace.emit(
                "undo", "central", ctx.gtxn.gtxn_id, at=operation.site, op=str(inverse)
            )
            yield from self._run_inverse(
                ctx, operation.site, "execute_l0", marker_key, op=inverse, undo=True
            )

    def _run_inverse(
        self,
        ctx: ProtocolContext,
        site: str,
        kind: str,
        marker_key: str,
        once: bool = False,
        timeout: Optional[float] = None,
        **payload: Any,
    ) -> Generator[Any, Any, bool]:
        """Repeat one inverse request until it committed (§3.3); count it.

        After a timeout the durable marker says whether the inverse did
        commit, so it is never applied twice.  A restart sweep sends the
        request ``once`` (the next sweep retries); a resumed step gives
        up when its coordinator crashed.  Returns whether it committed.
        """
        while True:
            try:
                reply = yield from ctx.request(
                    site, kind, timeout=timeout, marker_key=marker_key, **payload
                )
            except MessageTimeout:
                if once:
                    return False
                status = yield from ctx.await_status(site, marker_key)
                if status is None:
                    return False  # this coordinator crashed; a peer takes over
                if status.payload["outcome"] == "committed":
                    break  # the inverse did commit; only its reply was lost
                continue
            if reply.kind != "l0_failed" and reply.payload.get("outcome") != "failed":
                break
            if once:
                return False
            yield ctx.config.status_poll_interval  # failed; retry (§3.3)
            if ctx.resumed and ctx.gtm.crashed:
                return False
        ctx.undo_log.note_undo()
        ctx.outcome.undo_executions += 1
        return True

    # ------------------------------------------------------------------
    # Per-site granularity ([BST 90]/[WV 90] style)
    # ------------------------------------------------------------------

    def _run_per_site(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        gtxn = ctx.gtxn
        finishers: dict[str, Any] = {}
        piggyback = ctx.config.piggyback_decisions
        markers = {site: f"{gtxn.gtxn_id}:{site}" for site in ctx.decomposition.sites}

        def finish_site(site: str) -> None:
            # The site's last action is done: commit its local
            # transaction right now, before any global decision.
            finishers[site] = ctx.kernel.spawn(
                ctx.request_until_answered(
                    site, "finish_subtxn", marker_key=markers[site]
                ),
                name=f"{gtxn.gtxn_id}:finish:{site}",
            )
            # Dies with the coordinator (pool crash interrupts it).
            ctx.gtm.track_service(finishers[site])

        # With piggybacking the local-commit request rides on the
        # site's last data message and the outcome rides back on its
        # reply (``known``); otherwise a dedicated finish_subtxn round
        # is fired as each site's last action completes.
        failure, known = yield from ctx.run_subtransactions(
            record_undo=True,
            on_site_finished=None if piggyback else finish_site,
            finish_markers=markers if piggyback else None,
        )

        # Inquire phase (Figure 6): ask every site for the final state
        # of its local transaction.  Sites whose outcome already rode
        # back on a data reply are final and need no inquiry.
        gtxn.set_state(GlobalTxnState.INQUIRE)
        for process in finishers.values():
            yield process  # local commits are in flight; let them land
        # A still-running subtransaction at inquiry time either lost its
        # finish message (commit it) or never finished because the
        # execution failed (abort it -- the cheap abort of an unfinished
        # local).
        resolve = "abort" if failure is not None else "commit"
        replies = yield from ctx.parallel(
            {
                site: ctx.request_until_answered(
                    site, "prepare", ask="final_state",
                    marker_key=markers[site], resolve=resolve,
                )
                for site in ctx.decomposition.sites
                if site not in known
            }
        )
        outcomes = dict(known)
        for site, reply in replies.items():
            outcomes[site] = (
                "aborted" if isinstance(reply, Exception) else reply.payload.get("vote")
            )
        committed = [site for site, vote in outcomes.items() if vote == "committed"]
        if failure is None and not ctx.intends_abort and len(committed) < len(outcomes):
            failure = "mixed outcomes"
            ctx.outcome.retriable = True
        yield from self._conclude(
            ctx,
            failure,
            lambda: ctx.parallel(
                {site: self._undo_site(ctx, site) for site in committed}, strict=True
            ),
        )

    def _undo_site(self, ctx: ProtocolContext, site: str) -> Generator[Any, Any, None]:
        """Undo one committed subtransaction with an inverse transaction."""
        records = ctx.undo_log.inverses_for(ctx.gtxn.gtxn_id, site)  # newest first
        if ctx.config.optimize_undo:
            inverse_ops = optimize_inverses(records[::-1])
        else:
            inverse_ops = [record.inverse for record in records]
        if not inverse_ops:
            return
        marker_key = f"undo:{ctx.gtxn.gtxn_id}:{site}"
        ctx.kernel.trace.emit("undo", "central", ctx.gtxn.gtxn_id, at=site)
        yield from self._run_inverse(
            ctx, site, "undo_subtxn", marker_key, inverse_ops=inverse_ops
        )
