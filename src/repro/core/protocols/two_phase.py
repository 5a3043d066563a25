"""Two-phase commit (§3.1, Figure 2) -- the homogeneous-world baseline.

The decision falls *in the middle* of local commitment (Figure 3): the
locals first move to the ready state (forcing their logs), the
coordinator decides, and only then do they finish committing.  This
requires every participating transaction manager to expose ``prepare``
-- the very capability the paper's heterogeneous setting lacks, so this
protocol runs only against :class:`~repro.localdb.interface.PreparableTMInterface`
sites (a standard site answers the prepare call with an
:class:`~repro.errors.UnsupportedInterface` failure and the global
transaction aborts).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.global_txn import GlobalTxnState
from repro.core.protocols.base import CommitProtocol, ProtocolContext


class TwoPhaseCommit(CommitProtocol):
    """Classic presumed-nothing 2PC over prepared local transactions.

    The derived protocols replace single steps of this script: the
    vote request (:attr:`vote_request`), the decision (:meth:`decide`)
    or the delivery of a commit to one site (:meth:`commit_site`).
    """

    #: Payload of the phase-1 vote request: the participant is asked to
    #: enter the ready state.
    vote_request: dict[str, Any] = {"ask": "ready"}

    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        failure, _ = yield from ctx.run_subtransactions()
        if failure is not None or ctx.intends_abort:
            yield from ctx.abort_running(failure or "intended abort")
            return

        # Phase 1: prepare (locals enter the ready state).
        ctx.gtxn.set_state(GlobalTxnState.INQUIRE)
        votes = yield from ctx.vote_round(**self.vote_request)

        # Decision -- made while locals sit in the ready state.
        decision, abort_reason = yield from self.decide(ctx, votes)

        # Phase 2: the decision reaches every participant, surviving
        # participant crashes (recovery reinstates in-doubt locals).
        if decision == "commit":
            yield from ctx.commit_everywhere(lambda site: self.commit_site(ctx, site))
        else:
            yield from ctx.abort_everywhere(abort_reason)
            ctx.outcome.retriable = True

    def decide(
        self, ctx: ProtocolContext, votes: dict[str, Any]
    ) -> Generator[Any, Any, tuple[str, str]]:
        """Commit iff every site voted ready; returns (decision, abort reason)."""
        decision = "commit" if all(v == "ready" for v in votes.values()) else "abort"
        ctx.gtxn.set_decision(
            decision, votes={site: vote or "timeout" for site, vote in votes.items()}
        )
        return decision, "participant voted abort"
        yield  # pragma: no cover - generator protocol

    def commit_site(self, ctx: ProtocolContext, site: str) -> Generator[Any, Any, Any]:
        """Deliver the commit decision to ``site``, waiting out its crashes.

        The decision is hardened at the central decision log first and
        routed through the group-decision pipeline when enabled.
        """
        return ctx.commit_until_done(site)
