"""Local commitment *after* the global decision (§3.2, Figures 4 and 5).

No ready state is used: the communication manager answers the prepare
call as soon as the subtransaction finished its last action, while the
local transaction is still *running*.  Between that answer and the
arrival of the commit decision the local system may abort the
transaction autonomously (timeout, validation failure, system abort,
crash) -- an *erroneous* abort.  The protocol's two obligations
(paper's requirements):

* **Redo requirement** -- an erroneously aborted local is repeated,
  from the redo-log, until it commits.
* **Serializability requirement** -- the serialization order of the
  first execution must survive the repetition; the GTM enforces it by
  holding read/write L1 locks on every touched object until all locals
  finally committed, so no conflicting global transaction can slip
  between first execution and redo.

Ambiguity after a site crash ("did the commit land before the crash?")
is resolved through the commit-marker relation when the federation uses
in-database log placement; with volatile placement the protocol must
guess, reproducing the paper's two erroneous situations (EXP-A2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.core.global_txn import GlobalTxnState
from repro.core.protocols.base import CommitProtocol, ExecutionFailure, ProtocolContext
from repro.errors import MessageTimeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.recovery import GlobalRecoveryManager


class CommitAfter(CommitProtocol):
    """Decision first, local commits afterwards (with redo)."""

    #: Redo executions one site may need before the commit phase gives
    #: up on it.
    MAX_REDO_ROUNDS = 50

    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        failure, _ = yield from ctx.run_subtransactions()
        if failure is not None:
            yield from ctx.abort_running(failure)
            return
        self._register_redo(ctx)
        if ctx.intends_abort:
            yield from self._abort(ctx, "intended abort")
            return

        # Inquire: communication managers answer from the running state.
        ctx.gtxn.set_state(GlobalTxnState.INQUIRE)
        votes = yield from ctx.vote_round(ask="running")
        decision = "commit" if all(v == "ready" for v in votes.values()) else "abort"
        ctx.gtxn.set_decision(decision)
        if decision == "abort":
            ctx.outcome.retriable = True
            yield from self._abort(ctx, "participant not ready")
            return
        yield from self._commit(ctx)

    def _register_redo(self, ctx: ProtocolContext) -> None:
        """Log every subtransaction for redo *before* any decision can be
        sent: redo must be possible from stable central state."""
        for site, operations in ctx.decomposition.by_site.items():
            ctx.redo_log.record(ctx.gtxn.gtxn_id, site, operations)

    def _abort(self, ctx: ProtocolContext, reason: str) -> Generator[Any, Any, None]:
        """Abort after redo registration.  Aborts are the strong suit of
        this protocol: all locals are still running, a plain abort
        suffices (§4.3)."""
        yield from ctx.abort_running(reason)
        ctx.redo_log.forget(ctx.gtxn.gtxn_id)

    def _commit(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        """Commit phase: every local must reach its committed final
        state, repeating erroneously aborted ones (Figure 4's double
        arrow).  L1 locks stay held throughout."""
        redos = yield from ctx.commit_everywhere(
            lambda site: self._commit_site(ctx, site)
        )
        ctx.outcome.redo_executions += sum(redos.values())
        ctx.redo_log.forget(ctx.gtxn.gtxn_id)

    # -- recovery policy: the §3.2 redo obligation survives crashes ---------

    def after_site_restart(
        self, ctx: ProtocolContext, site: str
    ) -> Generator[Any, Any, None]:
        """Repeat a logged subtransaction of a hardened commit once; a
        later sweep (or the marker, if it did commit) settles the rest."""
        gtxn_id = ctx.gtxn.gtxn_id
        if self.durable_decision(ctx) != "commit":
            return  # no hardened commit: nothing to redo
        ctx.kernel.trace.emit("recovery_redo", ctx.gtm.name, gtxn_id, at=site)
        outcome = yield from self._try_redo(
            ctx, site, ctx.decomposition.by_site[site], gtxn_id
        )
        if outcome == "committed":
            ctx.redo_log.mark_committed(gtxn_id, site)
            ctx.outcome.redo_executions += 1

    def settle_orphan(
        self, ctx: ProtocolContext, recovery: "GlobalRecoveryManager"
    ) -> Generator[Any, Any, bool]:
        """The durable decision everywhere; a hardened commit carries the
        §3.2 obligation -- erroneously aborted locals show up as pending
        redo-log entries and are repeated."""
        gtxn_id = ctx.gtxn.gtxn_id
        decision = self.durable_decision(ctx)
        redo = decision == "commit"
        settled = yield from recovery.deliver_decision(
            ctx, decision, gtxn_id if redo else None
        )
        if redo:
            for site in ctx.decomposition.sites:
                yield from recovery.resume_logged(site, adopting=gtxn_id)
        if settled:
            ctx.redo_log.forget(gtxn_id)
        return settled

    # ------------------------------------------------------------------

    def _commit_site(self, ctx: ProtocolContext, site: str) -> Generator[Any, Any, int]:
        """Drive one site's subtransaction into the committed state.

        Returns the number of redo executions that were needed.
        """
        gtxn_id = ctx.gtxn.gtxn_id
        marker_key = gtxn_id
        redo_count = 0
        outcome = yield from ctx.decide_commit(site, marker_key)
        while True:
            # Only actual redo executions count against the limit;
            # ambiguity polls while a site is down do not.
            if redo_count > self.MAX_REDO_ROUNDS:
                raise ExecutionFailure(site, "redo rounds exhausted", aborted=True)
            if outcome == "committed":
                ctx.redo_log.mark_committed(gtxn_id, site)
                return redo_count
            if outcome == "aborted":
                # Erroneous local abort after the ready answer: repeat
                # the subtransaction from the redo-log (§3.2).
                entry = ctx.redo_log.entry(gtxn_id, site)
                ctx.redo_log.note_redo(gtxn_id, site)
                redo_count += 1
                ctx.kernel.trace.emit("redo", "central", gtxn_id, at=site)
                outcome = yield from self._try_redo(ctx, site, entry.operations, marker_key)
                continue
            # Ambiguous (crash/lost message): wait, then ask for status.
            reply = yield from ctx.await_status(site, marker_key)
            outcome = reply.payload["outcome"]
            if outcome == "unknown":
                # Volatile log placement after a crash: the protocol must
                # guess.  Assuming "aborted" triggers a redo -- possibly a
                # double execution if the commit did land (EXP-A2).
                outcome = "aborted"
            elif outcome == "running":
                # The decision message was lost; resend it.
                outcome = yield from ctx.decide_commit(site, marker_key)

    def _try_redo(
        self, ctx: ProtocolContext, site: str, operations, marker_key: str
    ) -> Generator[Any, Any, str]:
        try:
            # Redo executions retry local conflicts internally and can
            # legitimately run long; an eager timeout would flood the
            # site with duplicate redo requests.
            reply = yield from ctx.request(
                site, "redo_subtxn", timeout=ctx.config.msg_timeout * 20,
                ops=operations, marker_key=marker_key,
            )
            return (
                "committed"
                if reply.payload.get("outcome") == "committed"
                else "aborted"
            )
        except MessageTimeout:
            return "ambiguous"
