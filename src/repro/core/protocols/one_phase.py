"""Logless one-phase commit -- the "To Vote Before Decide" style.

The classic objection to 1PC is that the coordinator cannot know the
participants' votes without a voting round.  The answer here (after
"To Vote Before Decide", PAPERS.md) is that the vote already exists
*during execution*: a participant that executed its last operation
successfully has, by that fact, voted yes.  The vote is therefore
piggybacked on the reply of the site's **last operation** -- a message
that flows anyway -- and the coordinator decides the moment execution
finishes, with **no extra voting round and no prepare force** at the
participants (the "logless" half: participants write no ready record;
the only durable vote is the coordinator's replicated decision).

Cost per participant with *n* sites: ``2n`` protocol messages (decide
+ finished; the votes ride on data messages) and **one** log force
(the local commit record) -- against 2PC's ``4n`` messages and two
forces, and commit-after's ``4n`` messages and one force.

What the protocol gives up is the ready state: between the piggybacked
vote and the arrival of the decision the local transaction is still
*running*, so it can be aborted autonomously -- exactly the §3.2
erroneous-abort window.  The obligations are inherited from
commit-after: erroneously aborted locals are re-executed from the
redo-log until they commit, and the GTM holds read/write L1 locks
until every local committed so the repetition preserves the
serialization order.  In-doubt locals after a crash are resolved
through the replicated decision read path (the central decision log,
or the acceptor group under the Paxos coordinator mode): decision
present -> re-drive the commit, absent -> presumed abort.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.global_txn import GlobalTxnState
from repro.core.protocols.base import EXECUTION_ERRORS, ProtocolContext
from repro.core.protocols.commit_after import CommitAfter


class OnePhaseCommit(CommitAfter):
    """Commit-after whose votes rode on data: decide with no extra round."""

    #: Seeded mutant (``repro.check --mutant presume_commit``): treat a
    #: missing vote -- a site that died or aborted before its last
    #: operation answered -- as a yes, and never re-drive the lost
    #: subtransaction.  The checker must catch the lost effect.
    presume_commit = False

    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        # The execution phase is spelled out (not
        # ``ctx.run_subtransactions``) because the mutant needs to know
        # *why* it failed, not just the reason string.
        votes: dict[str, str] = {}
        try:
            yield from ctx.begin_subtransactions()
            votes = yield from ctx.execute_operations(collect_votes=True)
        except EXECUTION_ERRORS as exc:
            if not (self.presume_commit and getattr(exc, "aborted", False)):
                yield from ctx.abort_running(ctx.failure_reason(exc))
                return
            # MUTANT: a dead local never voted, but we presume it said
            # yes and fall through to the decision below.

        missing = [
            site for site in ctx.decomposition.sites if votes.get(site) != "ready"
        ]
        if missing and not self.presume_commit:
            # Can only happen against a site that answered the last
            # operation without stamping the vote -- a foreign or
            # downgraded communication manager.  Without the vote there
            # is no 1PC; abort (retriable: nothing was decided).
            ctx.outcome.retriable = True
            yield from ctx.abort_running(f"no piggybacked vote from {missing}")
            return

        self._register_redo(ctx)
        if ctx.intends_abort:
            yield from self._abort(ctx, "intended abort")
            return

        # The decision: no voting round happened and none is needed.
        ctx.gtxn.set_decision("commit")
        if self.presume_commit and missing:
            # MUTANT: decide once per site and declare victory whatever
            # comes back -- the lost subtransaction is never repeated.
            ctx.gtxn.set_state(GlobalTxnState.WAITING_TO_COMMIT)
            for site in ctx.decomposition.sites:
                yield from ctx.decide_commit(site)
            ctx.gtxn.set_state(GlobalTxnState.COMMITTED)
            ctx.outcome.committed = True
            ctx.redo_log.forget(ctx.gtxn.gtxn_id)
            return
        yield from self._commit(ctx)
