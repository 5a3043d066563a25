"""Paxos Commit (Gray & Lamport) -- non-blocking replicated 2PC.

Structurally this is two-phase commit with the coordinator's forced
decision-log write replaced by one consensus instance over the
``2F + 1`` acceptor group (see :mod:`repro.core.paxos`): the locals
prepare exactly as for 2PC, and the commit decision is *chosen* by a
ballot-0 Phase 2a/2b round batching all RM votes into one record --
no Phase 1a on the fast path, because ballot 0 is reserved for the
transaction's home coordinator.

What changes operationally:

* A commit decision is durable at ``F + 1`` acceptors, not in the
  central decision log -- ``DecisionLog.harden`` is never called, and
  recovery reads :meth:`AcceptorGroup.decision_for
  <repro.core.paxos.AcceptorGroup.decision_for>` instead.
* A coordinator crash mid-decision never blocks the transaction: after
  :attr:`PaxosCommit.PAXOS_TAKEOVER_TIMEOUT` a live peer *resumes* the
  protocol at a higher ballot (:meth:`PaxosLeader.resolve
  <repro.core.paxos.PaxosLeader.resolve>`) -- Gray & Lamport's
  takeover is the same protocol, not a recovery algorithm -- so
  in-doubt locals resolve without waiting for the crashed shard.
* Any RM voting no short-circuits to presumed abort with no acceptor
  round at all -- a chosen *commit* therefore implies every RM is
  durably prepared.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.paxos import PaxosLeader
from repro.core.protocols.base import ProtocolContext
from repro.core.protocols.two_phase import TwoPhaseCommit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.recovery import GlobalRecoveryManager


class PaxosCommit(TwoPhaseCommit):
    """2PC voting with a replicated, non-blocking decision."""

    replicated_decisions = True
    #: How long a crashed coordinator's undecided transactions wait
    #: before a live peer takes them over at a higher ballot
    #: (timeout-driven leader change).
    PAXOS_TAKEOVER_TIMEOUT = 80.0
    orphan_wait = PAXOS_TAKEOVER_TIMEOUT

    def decide(
        self, ctx: ProtocolContext, votes: dict[str, Any]
    ) -> Generator[Any, Any, tuple[str, str]]:
        vote_map = {site: vote or "timeout" for site, vote in votes.items()}
        all_ready = all(vote == "ready" for vote in votes.values())
        if all_ready:
            # The decision round: ballot-0 fast path over the acceptor
            # group.  The returned value is whatever consensus *chose*
            # -- normally commit, but a takeover that presumed this
            # leader dead may have chosen abort first; its choice wins.
            decision = yield from self._leader(ctx).commit_fast(vote_map)
        else:
            # Presumed abort: no acceptor round for a no vote.  A later
            # takeover reading an empty instance concludes abort too.
            decision = "abort"
        ctx.gtxn.set_decision(decision, votes=vote_map)
        return decision, (
            "takeover chose abort" if all_ready else "participant voted abort"
        )

    def commit_site(self, ctx: ProtocolContext, site: str) -> Generator[Any, Any, Any]:
        """Deliver the chosen commit, waiting out crashed sites.

        Unlike :meth:`ProtocolContext.decide_commit` this never touches
        the central decision log -- the acceptor majority *is* the
        durable decision record.
        """
        return ctx.request_until_answered(
            site, "decide", timeout=ctx.config.msg_timeout * 4,
            decision="commit", marker_key=None,
        )

    def _leader(self, ctx: ProtocolContext) -> PaxosLeader:
        return PaxosLeader(ctx.gtm, ctx.gtxn.gtxn_id, sorted(ctx.decomposition.sites))

    # -- recovery policy: the acceptor majority is the durable record -------

    def durable_decision(self, ctx: ProtocolContext) -> Optional[str]:
        """The value chosen at an acceptor majority; ``None`` while the
        instance is in flux (an in-flight ballot could yet choose commit)."""
        return ctx.gtm.acceptors.decision_for(ctx.gtxn.gtxn_id)

    def conclude(self, ctx: ProtocolContext) -> Generator[Any, Any, str]:
        """Finish an instance nothing drives any more -- e.g. a fast-path
        abort that never reached the acceptors -- with a takeover round:
        it re-proposes any accepted value (a chosen commit survives) and
        otherwise *chooses* abort, never presumes it."""
        ctx.kernel.trace.emit("paxos_conclude", ctx.gtm.name, ctx.gtxn.gtxn_id)
        decision = yield from self._leader(ctx).resolve()
        return decision

    def settle_orphan(
        self, ctx: ProtocolContext, recovery: "GlobalRecoveryManager"
    ) -> Generator[Any, Any, bool]:
        """Take the crashed leader's instance over at a higher ballot and
        deliver the chosen value.  No step waits on the dead shard."""
        ctx.kernel.trace.emit(
            "paxos_takeover_txn", ctx.gtm.name, ctx.gtxn.gtxn_id,
            sites=len(ctx.decomposition.sites),
        )
        decision = yield from self._leader(ctx).resolve()
        settled = yield from recovery.deliver_decision(
            ctx, decision, cause="paxos takeover"
        )
        return settled
