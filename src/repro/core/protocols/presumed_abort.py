"""Presumed-abort 2PC with the read-only optimization ([ML 83]).

§5 points at "a complete generation of derived protocols [that] improve
two phase commit in many directions, e.g. ... the complexity in terms
of writes to the log [ML 83]".  This variant implements the two classic
improvements:

* **presumed abort** -- abort decisions are fire-and-forget: no
  acknowledgements are awaited and nothing about an abort needs to be
  hardened (an inquiring participant that finds no information presumes
  abort);
* **read-only optimization** -- a participant that executed only reads
  answers the vote request with ``readonly``, commits immediately
  (releasing its read locks) and is excluded from phase 2 entirely;
  a fully read-only transaction finishes after a single round.

Like plain 2PC it requires preparable (modified) local TMs -- and, like
the paper argues, is therefore *more* intrusive, not less: every
derived protocol deepens the dependency on changeable local systems.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from repro.core.global_txn import GlobalTxnState
from repro.core.protocols.base import ProtocolContext
from repro.core.protocols.two_phase import TwoPhaseCommit


class PresumedAbort2PC(TwoPhaseCommit):
    """2PC with presumed abort and read-only participants."""

    vote_request = {"ask": "ready", "allow_readonly": True}

    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        failure, _ = yield from ctx.run_subtransactions()
        if failure is not None or ctx.intends_abort:
            self._abort_presumed(ctx, failure or "intended abort")
            return

        # Phase 1 with the read-only option; silence is a no.
        ctx.gtxn.set_state(GlobalTxnState.INQUIRE)
        votes = yield from ctx.vote_round(**self.vote_request)
        votes = {site: vote or "abort" for site, vote in votes.items()}
        updaters = [site for site, vote in votes.items() if vote == "ready"]
        all_ok = all(vote in ("ready", "readonly") for vote in votes.values())
        ctx.gtxn.set_decision("commit" if all_ok else "abort", votes=votes)

        if not all_ok:
            ctx.outcome.retriable = True
            self._abort_presumed(ctx, "participant voted abort", updaters)
            return

        # Phase 2 reaches only the updaters; read-only participants are
        # already done.
        yield from ctx.commit_everywhere(lambda site: self.commit_site(ctx, site), updaters)

    def _abort_presumed(
        self, ctx: ProtocolContext, reason: str, sites: Optional[Iterable[str]] = None
    ) -> None:
        """Fire-and-forget aborts: presumed abort needs no acks."""
        ctx.gtxn.set_decision("abort", cause=reason)
        ctx.gtxn.set_state(GlobalTxnState.WAITING_TO_ABORT)
        for site in ctx.decomposition.sites if sites is None else sites:
            ctx.comm.send(
                site, "decide", gtxn_id=ctx.gtxn.gtxn_id,
                decision="abort", noreply=True,
            )
        ctx.gtxn.set_state(GlobalTxnState.ABORTED)
        ctx.outcome.reason = reason
