"""Protocol-level resolution of in-doubt globals: recovery resumes the protocol.

Local (ARIES-style) recovery reinstates prepared subtransactions in the
READY state with their locks -- but only the *global* layer knows what
should become of them.  This manager runs after every site restart and
adopts a crashed coordinator's in-flight transactions, yet runs no
commit phase of its own: as in Gray & Lamport's Paxos Commit, a
takeover runs the same protocol again.  The manager is a
protocol-agnostic driver.  It

* **finds** in-doubt locals (the site's ``recover_query``), orphans of
  crashed coordinators (handed over by the pool) and logged redo / undo
  obligations at a restarted site;
* **reads the durable decision** through the protocol
  (:meth:`~repro.core.protocols.base.CommitProtocol.durable_decision`)
  and **delivers** it (:meth:`_decide_until_settled`);
* **hands the rest to the protocol** with a context rebuilt from the
  durable record (:meth:`~repro.core.protocols.base.ProtocolContext.
  from_record`): ``after_site_restart`` re-enters the §3.2 redo or
  §3.3 inverse step for one log entry, ``settle_orphan`` settles one
  orphan, ``conclude`` finishes a decision nothing drives any more.

Transactions whose coordinator process is still running are left alone:
the coordinator's own retry machinery (status polls, redo loops,
``commit_until_done``) resolves them as soon as the site answers again.
Interfering here could abort a transaction the coordinator is about to
commit.  Every request a resumed step sends targets an idempotent
handler keyed by the same marker the coordinator would use, so recovery
and a still-live coordinator can never double-apply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.global_txn import GlobalOutcome
from repro.core.protocols.base import ProtocolContext
from repro.errors import MessageTimeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.gtm import GlobalTransactionManager


class GlobalRecoveryManager:
    """Re-resolves in-doubt globals when a site comes back (§3.2/§3.3)."""

    def __init__(self, gtm: "GlobalTransactionManager"):
        self.gtm = gtm
        self.passes = 0
        self.resolved_indoubt = 0
        self.orphans_terminated = 0
        #: Resumed protocol steps count their redos and undos here.
        self.tally = GlobalOutcome("recovery", committed=False)
        # Data-plane promotions this coordinator adopted: after a lease
        # expiry evicts a partition member, routing already targets the
        # promoted membership; the adoption records the handover so
        # in-flight retries and later recovery sweeps agree on who owns
        # the partition.
        self.promotions_adopted = 0
        # Coordinator-failover accounting (sharded pools only): one per
        # adopted batch, one per orphan settled everywhere.
        self.failovers = 0
        self.failover_resolved = 0
        # Decisions this manager had to *conclude* because nothing else
        # would ever decide them (paxos: a takeover round).
        self.concluded = 0
        self._concluding: set[str] = set()
        # Per-site recovery epoch: a fresh restart supersedes any sweep
        # loop still running from the previous one.
        self._epochs: dict[str, int] = {}
        # (gtxn_id, site) pairs with a termination already in flight.
        self._terminating: set[tuple[str, str]] = set()

    @property
    def redriven_redos(self) -> int:
        return self.tally.redo_executions

    @property
    def redriven_undos(self) -> int:
        return self.tally.undo_executions

    # ------------------------------------------------------------------

    def recover_site(self, site: str) -> Generator[Any, Any, None]:
        """Recovery sweeps for a freshly restarted ``site``.

        Sweeps repeat (with ``status_poll_interval`` pauses) until the
        site reports no in-doubt subtransactions: an in-doubt local
        whose coordinator is still running is deliberately left alone
        on one sweep, and a later sweep -- after the coordinator made or
        gave up on its decision -- resolves it.  Every step is
        idempotent and every timeout ends the loop: if the site crashes
        again the pass after its next restart starts over.
        """
        self.passes += 1
        epoch = self._epochs.get(site, 0) + 1
        self._epochs[site] = epoch
        self.gtm.kernel.trace.emit("recovery_pass", self.gtm.name, site)
        config = self.gtm.config
        while True:
            if self.gtm.crashed:
                return  # this coordinator died; a peer's pass takes over
            unresolved = yield from self._resolve_in_doubt(site)
            yield from self.resume_logged(site)
            if not unresolved:
                return
            yield config.status_poll_interval
            if self._epochs.get(site) != epoch:
                return  # a newer restart owns the sweep loop now
            if self.gtm.network.node(site).crashed:
                return  # down again; the next restart starts over

    # ------------------------------------------------------------------
    # Data-plane promotions
    # ------------------------------------------------------------------

    def note_promotion(
        self, site: str, partition: int, epoch: int, primary: Optional[str]
    ) -> None:
        """Adopt a replica promotion the data plane just decided.

        The placement map has already evicted ``site`` and bumped the
        partition to ``epoch``; nothing needs re-driving here -- stale
        requests are fenced at the sites and in-flight transactions
        re-route on their next retry.  The adoption is recorded so the
        handover shows up in traces and the coordinator's metrics.
        """
        self.promotions_adopted += 1
        trace = self.gtm.kernel.trace
        if trace.enabled:
            trace.emit(
                "promotion_adopted", self.gtm.name, f"p{partition}",
                evicted=site, primary=primary, epoch=epoch,
            )

    # ------------------------------------------------------------------
    # Orphan termination: replies nobody was waiting for
    # ------------------------------------------------------------------

    #: Reply kinds that prove the site holds *live* state for the
    #: transaction (a begun, executed or prepared subtransaction).
    #: Terminal acknowledgements and status answers are excluded: they
    #: carry no obligation to clean anything up.
    _STATE_FREE_KINDS = frozenset(
        {"finished", "status_report", "recover_report",
         # Acceptor replies: consensus bookkeeping, not site state.  A
         # straggling promise or acceptance after its leader crashed
         # must not be mistaken for an orphaned subtransaction at the
         # "site" named acceptorN.
         "paxos_p1b", "paxos_p2b"}
    )

    def note_orphan_reply(self, message: Any) -> None:
        """A site answered a request the coordinator already gave up on.

        If the answered transaction is no longer active, the site may
        be holding a subtransaction (with its locks) that nothing will
        ever resolve: the coordinator sent its decision *before* this
        straggler arrived.  Terminate it with the durable decision
        exactly as a restart-time recovery pass would.  Not applicable
        to protocols whose locals are already terminal when they answer
        (commit-before): their stragglers are settled through durable
        markers by the coordinator itself.
        """
        gtxn_id = message.gtxn_id
        if not gtxn_id or self.gtm.is_active(gtxn_id) or self.gtm.crashed:
            return
        if not self.gtm.network.reliable:
            # Without retransmission a straggler can only be a reply
            # that raced its own timeout -- the coordinator's decide
            # broadcast already covers the site.  Ghost deliveries that
            # outlive the whole attempt exist only on reliable links.
            return
        if not self.gtm.protocol.stray_replies_reveal_orphans:
            return
        if message.kind in self._STATE_FREE_KINDS:
            return
        key = (gtxn_id, message.sender)
        if key in self._terminating:
            return
        self._terminating.add(key)
        self.gtm.track_service(
            self.gtm.kernel.spawn(
                self._terminate_orphan(gtxn_id, message.sender),
                name=f"orphan-decide:{gtxn_id}@{message.sender}",
            )
        )

    def _settled_decision(
        self, ctx: ProtocolContext
    ) -> Generator[Any, Any, Optional[str]]:
        """The durable decision recovery may act on, or ``None``.

        ``None`` means someone else may still decide: a live driver, a
        pending pool takeover, or a conclusion already in flight here;
        the caller leaves the local in doubt and a later sweep retries.
        An unreadable decision that nothing drives any more is concluded
        by the protocol itself (paxos: a takeover round at a higher
        ballot -- abort is only ever *chosen*, never presumed).
        """
        gtxn_id = ctx.gtxn.gtxn_id
        protocol = self.gtm.protocol
        decision = protocol.durable_decision(ctx)
        if decision is not None or self.gtm.is_active(gtxn_id):
            return decision
        if gtxn_id in self._concluding:
            return None  # one concluding round at a time per transaction
        self._concluding.add(gtxn_id)
        try:
            decision = yield from protocol.conclude(ctx)
            self.concluded += 1
            return decision
        finally:
            self._concluding.discard(gtxn_id)

    def _terminate_orphan(
        self, gtxn_id: str, site: str
    ) -> Generator[Any, Any, None]:
        try:
            ctx = ProtocolContext.from_record(self.gtm, gtxn_id, site=site)
            decision = yield from self._settled_decision(ctx)
            if decision is None:
                return  # a pending takeover or conclusion settles it
            self.gtm.kernel.trace.emit(
                "recovery_decide", self.gtm.name, gtxn_id,
                at=site, decision=decision, cause="orphan reply",
            )
            # Unsettled means the site (or this coordinator) crashed: a
            # running orphan dies with the crash, a prepared one is
            # handled by restart recovery, a peer's failover owns the rest.
            if (yield from self._decide_until_settled(site, gtxn_id, decision, None)):
                self.orphans_terminated += 1
        finally:
            self._terminating.discard((gtxn_id, site))

    # ------------------------------------------------------------------

    def _resolve_in_doubt(self, site: str) -> Generator[Any, Any, int]:
        """Decide the READY subtransactions local recovery reinstated.

        Returns the number of in-doubt subtransactions left unresolved
        (coordinator still running, or the site stopped answering); the
        caller sweeps again later while any remain.
        """
        config = self.gtm.config
        try:
            reply = yield from self.gtm.comm.request(
                site, "recover_query", timeout=config.msg_timeout
            )
        except MessageTimeout:
            # Unreachable: crashed again (the next restart retries) or
            # partitioned/lossy (the caller's sweep loop retries).
            return 1
        unresolved = 0
        for gtxn_id in reply.payload.get("in_doubt", ()):
            if self.gtm.is_active(gtxn_id):
                # A coordinator is still driving this transaction --
                # deciding here could contradict the decision it is
                # about to make.  Leave it for a later sweep.
                unresolved += 1
                continue
            ctx = ProtocolContext.from_record(self.gtm, gtxn_id, site=site)
            decision = yield from self._settled_decision(ctx)
            if decision is None:
                unresolved += 1
                continue
            self.gtm.kernel.trace.emit(
                "recovery_decide", self.gtm.name, gtxn_id, at=site, decision=decision
            )
            try:
                yield from self.gtm.comm.request(
                    site, "decide", gtxn_id=gtxn_id,
                    timeout=config.msg_timeout * 4,
                    decision=decision, marker_key=None,
                )
            except MessageTimeout:
                unresolved += 1
                continue
            self.resolved_indoubt += 1
        return unresolved

    def resume_logged(
        self, site: str, adopting: Optional[str] = None
    ) -> Generator[Any, Any, None]:
        """Hand ``site``'s logged obligations back to their protocol.

        Every transaction with a pending redo-log entry or undo records
        at ``site`` resumes through ``protocol.after_site_restart`` --
        unless a coordinator still drives it.  ``adopting`` names the
        orphan this manager is settling right now: the pool counts it
        as active, but its own obligations must not be skipped.
        """
        logged = [
            (entry.gtxn_id, entry.operations)
            for entry in self.gtm.redo_log.pending()
            if entry.site == site
        ]
        logged += [
            (gtxn_id, [])
            for gtxn_id in dict.fromkeys(
                record.gtxn_id
                for record in self.gtm.undo_log.records
                if record.site == site
            )
        ]
        for gtxn_id, operations in logged:
            if gtxn_id != adopting and self.gtm.is_active(gtxn_id):
                continue  # the coordinator's own loop is still alive
            ctx = ProtocolContext.from_record(self.gtm, gtxn_id, operations, site)
            yield from self.gtm.protocol.after_site_restart(ctx, site)

    # ------------------------------------------------------------------
    # Coordinator failover: adopt a crashed peer's in-flight globals
    # ------------------------------------------------------------------

    def adopt_orphans(self, orphans: dict[str, Any]) -> Generator[Any, Any, None]:
        """Settle the in-flight transactions of a crashed coordinator.

        ``orphans`` maps attempt ids to their
        :class:`~repro.core.global_txn.GlobalTransaction` objects,
        captured by the pool at crash time.  Each is handed, with a
        context rebuilt around it, to its protocol's ``settle_orphan``,
        which resumes the protocol from the *shared* central logs (or,
        for paxos, at a higher ballot).

        The mapping is mutated in place: resolved (or handed-off)
        entries are popped, so the pool can re-adopt the remainder if
        this adopter crashes mid-failover.
        """
        if not orphans:
            return
        self.failovers += 1
        self.gtm.kernel.trace.emit(
            "failover", self.gtm.name, self.gtm.name, orphans=len(orphans)
        )
        # Drain-style loop (not a snapshot of the keys): a double crash
        # of the same shard mid-adoption merges its still-unsettled
        # orphans into this very batch, and the drain picks them up --
        # the pool spawns no second adoption while one is running.
        while orphans:
            if self.gtm.crashed:
                return  # the pool re-adopts whatever is left
            gtxn_id = min(orphans)
            ctx = ProtocolContext.from_record(self.gtm, orphans[gtxn_id])
            resolved = yield from self.gtm.protocol.settle_orphan(ctx, self)
            # Even a partially-settled orphan is popped: every leftover
            # local is in-doubt at a *crashed* site, and that site's
            # restart recovery resolves it from the same shared logs.
            orphans.pop(gtxn_id, None)
            if resolved:
                self.failover_resolved += 1

    def deliver_decision(
        self,
        ctx: ProtocolContext,
        decision: str,
        marker_key: Optional[str] = None,
        cause: str = "coordinator failover",
    ) -> Generator[Any, Any, bool]:
        """Deliver ``decision`` to every site of an orphan; all settled?"""
        gtxn_id = ctx.gtxn.gtxn_id
        settled_all = True
        for site in ctx.gtxn.sites():
            self.gtm.kernel.trace.emit(
                "recovery_decide", self.gtm.name, gtxn_id,
                at=site, decision=decision, cause=cause,
            )
            settled = yield from self._decide_until_settled(
                site, gtxn_id, decision, marker_key
            )
            if not settled:
                settled_all = False
        return settled_all

    def _decide_until_settled(
        self, site: str, gtxn_id: str, decision: str, marker_key: Optional[str]
    ) -> Generator[Any, Any, bool]:
        """Deliver a decision, waiting out transient unreachability.

        Returns ``False`` when the site is down (its restart recovery
        finishes the job from the shared logs) or this adopter died.
        """
        config = self.gtm.config
        while True:
            if self.gtm.crashed:
                return False
            try:
                yield from self.gtm.comm.request(
                    site, "decide", gtxn_id=gtxn_id,
                    timeout=config.msg_timeout * 4,
                    decision=decision, marker_key=marker_key,
                )
                return True
            except MessageTimeout:
                if self.gtm.network.node(site).crashed:
                    return False
                yield config.status_poll_interval
