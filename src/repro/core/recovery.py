"""Protocol-level resolution of in-doubt globals after a site restart.

Local (ARIES-style) recovery reinstates prepared subtransactions in the
READY state with their locks -- but only the *global* layer knows what
should become of them.  This manager runs after every site restart (and
adopts a crashed coordinator's in-flight transactions) and owns the
**mechanisms**: decision re-drive, redo re-drive, undo re-drive,
marker-guarded inverse actions, paxos conclusion.  Which of them a
protocol needs is that protocol's **recovery policy**, declared on its
class (:class:`~repro.core.protocols.base.CommitProtocol`) -- nothing
here tests a protocol's name:

* every protocol -- in-doubt (READY) locals are decided from the
  durable decision: the central :class:`~repro.core.gtm.DecisionLog`
  (a hardened commit record is re-driven; anything without one is
  aborted, the [MLO 86] presumed-abort rule) or, with replicated
  decisions, the acceptor majority;
* ``after_site_restart`` -- commit-after and its descendants re-drive
  the §3.2 redo obligations (:meth:`~GlobalRecoveryManager.
  redrive_redos`); commit-before per site re-drives logged inverse
  transactions (:meth:`~GlobalRecoveryManager.redrive_undos`) once the
  durable commit marker confirms the forward subtransaction committed;
* ``settle_orphan`` -- how an adopted orphan of a crashed coordinator
  is settled (:meth:`~GlobalRecoveryManager.failover_decide`,
  ``failover_before_site``, ``failover_undo_actions``).

Transactions whose coordinator process is still running are left alone:
the coordinator's own retry machinery (status polls, redo loops,
``commit_until_done``) resolves them as soon as the site answers again.
Interfering here could abort a transaction the coordinator is about to
commit.  Every request this manager sends targets an idempotent handler
keyed by the same marker the coordinator would use, so recovery and a
still-live coordinator can never double-apply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import MessageTimeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.gtm import GlobalTransactionManager


class GlobalRecoveryManager:
    """Re-resolves in-doubt globals when a site comes back (§3.2/§3.3)."""

    def __init__(self, gtm: "GlobalTransactionManager"):
        self.gtm = gtm
        self.passes = 0
        self.resolved_indoubt = 0
        self.redriven_redos = 0
        self.redriven_undos = 0
        self.orphans_terminated = 0
        # Data-plane promotions this coordinator adopted: after a lease
        # expiry evicts a partition member, routing already targets the
        # promoted membership; the adoption records the handover so
        # in-flight retries and later recovery sweeps agree on who owns
        # the partition.
        self.promotions_adopted = 0
        # Coordinator-failover accounting (sharded pools only).
        self.failovers = 0
        self.failover_resolved = 0
        # Paxos: consensus instances this manager had to *conclude* at
        # a higher ballot because nothing else would ever decide them.
        self.paxos_concluded = 0
        self._concluding: set[str] = set()
        # Per-site recovery epoch: a fresh restart supersedes any sweep
        # loop still running from the previous one.
        self._epochs: dict[str, int] = {}
        # (gtxn_id, site) pairs with a termination already in flight.
        self._terminating: set[tuple[str, str]] = set()

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
            yield from self.gtm.protocol.after_site_restart(self, site)
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
        straggler arrived.  Terminate it with the hardened decision --
        or presumed abort -- exactly as a restart-time recovery pass
        would.  Not applicable to protocols whose locals are already
        terminal when they answer (commit-before): their stragglers are
        settled through durable markers by the coordinator itself.
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

    def _resolved_decision(self, gtxn_id: str) -> Optional[str]:
        """The durable decision recovery may act on, or ``None``.

        Classic protocols read the central decision log: a hardened
        commit record, else presumed abort -- never ``None``.  Paxos
        reads the acceptor majority instead; ``None`` there means the
        consensus instance is still in flux (an in-flight ballot could
        yet choose commit), so the caller must leave the local in doubt
        -- the pending takeover finishes the ballot and a later sweep
        reads the chosen value.
        """
        if self.gtm.acceptors is not None:
            return self.gtm.acceptors.decision_for(gtxn_id)
        return self.gtm.decision_log.decision_for(gtxn_id) or "abort"

    def _settled_decision(
        self, gtxn_id: str, rms: list[str]
    ) -> Generator[Any, Any, Optional[str]]:
        """Like :meth:`_resolved_decision`, but *concludes* paxos limbo.

        A transaction its home coordinator aborted on the fast path --
        presumed abort, no consensus record -- can leave a prepared
        local in doubt forever: no acceptor majority will ever answer,
        and no takeover is pending because the home never crashed.  When
        nothing is driving the instance anymore, recovery must finish
        the consensus itself: a takeover round at a higher ballot blocks
        ballot 0, re-proposes any accepted value it finds (so a chosen
        commit survives), and otherwise *chooses* abort.  That round is
        safe against any concurrent leader -- it is ordinary Paxos.

        Returns ``None`` only while someone else may still decide (a
        live driver, a pending pool takeover, or a conclusion already
        in flight here); the caller's sweep retries later.
        """
        decision = self._resolved_decision(gtxn_id)
        if decision is not None or self.gtm.acceptors is None:
            return decision
        if self.gtm.is_active(gtxn_id):
            return None  # a driver or a pending takeover settles it
        if gtxn_id in self._concluding:
            return None  # one concluding round at a time per instance
        from repro.core.paxos import PaxosLeader

        self._concluding.add(gtxn_id)
        try:
            self.gtm.kernel.trace.emit(
                "paxos_conclude", self.gtm.name, gtxn_id
            )
            decision = yield from PaxosLeader(self.gtm, gtxn_id, rms).resolve()
            self.paxos_concluded += 1
            return decision
        finally:
            self._concluding.discard(gtxn_id)

    def _terminate_orphan(
        self, gtxn_id: str, site: str
    ) -> Generator[Any, Any, None]:
        try:
            decision = yield from self._settled_decision(gtxn_id, [site])
            if decision is None:
                return  # paxos: a pending takeover or conclusion settles it
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
            # Orphaned in-doubt subtransaction: the hardened decision
            # record is authoritative, its absence means presumed abort.
            # (Paxos: the acceptor majority is authoritative instead; an
            # instance nobody is driving is concluded at a higher ballot
            # -- abort is only ever *chosen*, never presumed.)
            decision = yield from self._settled_decision(gtxn_id, [site])
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

    def redrive_redos(
        self, site: str, adopting: Optional[str] = None
    ) -> Generator[Any, Any, None]:
        """Re-drive orphaned §3.2 redo obligations for ``site``.

        ``adopting`` names a transaction this manager is itself
        failing over right now: the pool counts pending orphans as
        active (so a concurrent site-restart sweep leaves them alone),
        but the adopter must not let that guard skip its own orphan --
        it would forget a hardened commit's redo obligation.
        """
        config = self.gtm.config
        for entry in self.gtm.redo_log.pending():
            if entry.site != site:
                continue
            if entry.gtxn_id != adopting and self.gtm.is_active(entry.gtxn_id):
                continue  # the coordinator's redo loop is still alive
            if self.gtm.decision_log.decision_for(entry.gtxn_id) != "commit":
                continue  # no hardened commit: nothing to redo
            self.gtm.kernel.trace.emit(
                "recovery_redo", self.gtm.name, entry.gtxn_id, at=site
            )
            try:
                reply = yield from self.gtm.comm.request(
                    site, "redo_subtxn", gtxn_id=entry.gtxn_id,
                    timeout=config.msg_timeout * 20,
                    ops=entry.operations, marker_key=entry.gtxn_id,
                )
            except MessageTimeout:
                continue
            if reply.payload.get("outcome") == "committed":
                self.gtm.redo_log.mark_committed(entry.gtxn_id, site)
                self.redriven_redos += 1

    def redrive_undos(self, site: str) -> Generator[Any, Any, None]:
        """Re-drive orphaned commit-before (per-site) inverse transactions."""
        if not self.gtm.durable_status:
            return  # cannot safely confirm the forward commit (EXP-A2)
        config = self.gtm.config
        gtxn_ids: list[str] = []
        for record in self.gtm.undo_log.records:
            if record.site == site and record.gtxn_id not in gtxn_ids:
                gtxn_ids.append(record.gtxn_id)
        for gtxn_id in gtxn_ids:
            if self.gtm.is_active(gtxn_id):
                continue  # the coordinator's undo loop is still alive
            inverse_ops = [
                record.inverse
                for record in self.gtm.undo_log.inverses_for(gtxn_id, site)
            ]
            if not inverse_ops:
                continue
            # Never undo a site whose forward subtransaction did not
            # commit -- confirm through the durable commit marker first.
            try:
                status = yield from self.gtm.comm.request(
                    site, "status_query", timeout=config.msg_timeout,
                    marker_key=f"{gtxn_id}:{site}", durable=True,
                )
            except MessageTimeout:
                continue
            if status.payload.get("outcome") != "committed":
                continue
            self.gtm.kernel.trace.emit(
                "recovery_undo", self.gtm.name, gtxn_id, at=site
            )
            try:
                reply = yield from self.gtm.comm.request(
                    site, "undo_subtxn", gtxn_id=gtxn_id,
                    timeout=config.msg_timeout * 4,
                    inverse_ops=inverse_ops,
                    marker_key=f"undo:{gtxn_id}:{site}",
                )
            except MessageTimeout:
                continue
            if reply.payload.get("outcome") == "undone":
                self.redriven_undos += 1

    # ------------------------------------------------------------------
    # Coordinator failover: adopt a crashed peer's in-flight globals
    # ------------------------------------------------------------------

    def adopt_orphans(self, orphans: dict[str, Any]) -> Generator[Any, Any, None]:
        """Resolve the in-flight transactions of a crashed coordinator.

        ``orphans`` maps attempt ids to their
        :class:`~repro.core.global_txn.GlobalTransaction` objects,
        captured by the pool at crash time.  Each is settled the way
        its protocol's ``settle_orphan`` policy says, always from the
        *shared* central logs:

        * the default (2PC / presumed abort / 3PC) -- a hardened commit
          record is re-driven to every participant; without one,
          presumed abort (:meth:`failover_decide`).
        * commit-after family -- the same, then the §3.2 redo
          obligations for hardened commits are re-driven from the
          shared redo-log.
        * commit-before family -- presumed abort: unfinished locals
          abort, durably committed effects are compensated by inverse
          transactions (:meth:`failover_before_site`).  Per-action
          inverses are reconstructed from the durable commit markers'
          before-images, so even an action whose reply died with the
          coordinator is undone (:meth:`failover_undo_actions`).

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
            resolved = yield from self.gtm.protocol.settle_orphan(
                self, orphans[gtxn_id]
            )
            # Even a partially-settled orphan is popped: every leftover
            # local is in-doubt at a *crashed* site, and that site's
            # restart recovery resolves it from the same shared logs.
            orphans.pop(gtxn_id, None)
            if resolved:
                self.failover_resolved += 1

    def takeover_paxos(self, gtxn: Any) -> Generator[Any, Any, bool]:
        """Finish a crashed peer's consensus instance; settle its sites.

        Paxos Commit's replacement for orphan adoption: this
        coordinator becomes the transaction's leader at a higher
        ballot (:meth:`PaxosLeader.resolve
        <repro.core.paxos.PaxosLeader.resolve>`).  The chosen value --
        the crashed leader's commit if it reached an acceptor
        majority, abort otherwise -- is then delivered to every
        participant.  Non-blocking under any F acceptor crashes plus
        the coordinator crash: no step here waits on the dead shard.
        """
        from repro.core.paxos import PaxosLeader

        self.failovers += 1
        self.gtm.kernel.trace.emit(
            "paxos_takeover_txn", self.gtm.name, gtxn.gtxn_id,
            sites=len(gtxn.sites()),
        )
        leader = PaxosLeader(self.gtm, gtxn.gtxn_id, sorted(gtxn.sites()))
        decision = yield from leader.resolve()
        settled_all = yield from self._redrive_decision(
            gtxn, decision, "paxos takeover"
        )
        if settled_all:
            self.failover_resolved += 1
        return settled_all

    def _redrive_decision(
        self, gtxn: Any, decision: str, cause: str, marker_key: Optional[str] = None
    ) -> Generator[Any, Any, bool]:
        """Deliver ``decision`` to every site of ``gtxn``; all settled?"""
        settled_all = True
        for site in gtxn.sites():
            self.gtm.kernel.trace.emit(
                "recovery_decide", self.gtm.name, gtxn.gtxn_id,
                at=site, decision=decision, cause=cause,
            )
            settled = yield from self._decide_until_settled(
                site, gtxn.gtxn_id, decision, marker_key
            )
            if not settled:
                settled_all = False
        return settled_all

    def failover_decide(
        self, gtxn: Any, redo_window: bool = False
    ) -> Generator[Any, Any, bool]:
        """Redrive the hardened decision (or presumed abort) everywhere.

        ``redo_window``: the protocol's locals wait for the decision in
        the *running* state, so a hardened commit carries the §3.2 redo
        obligation -- erroneously aborted locals are repeated from the
        shared redo-log.
        """
        decision = self.gtm.decision_log.decision_for(gtxn.gtxn_id) or "abort"
        redo = redo_window and decision == "commit"
        settled_all = yield from self._redrive_decision(
            gtxn, decision, "coordinator failover", gtxn.gtxn_id if redo else None
        )
        if redo:
            # An erroneously aborted local shows up as a pending redo
            # entry with a hardened commit: the §3.2 obligation.
            for site in gtxn.sites():
                yield from self.redrive_redos(site, adopting=gtxn.gtxn_id)
        if settled_all and redo_window:
            self.gtm.redo_log.forget(gtxn.gtxn_id)
        return settled_all

    def failover_before_site(self, gtxn: Any) -> Generator[Any, Any, bool]:
        """Presumed abort for commit-before/per_site orphans."""
        # Settles unfinished locals (cheap abort of a running
        # subtransaction); an already-committed local reports back
        # and is compensated below.
        settled_all = yield from self._redrive_decision(
            gtxn, "abort", "coordinator failover"
        )
        for site in gtxn.sites():
            yield from self.redrive_undos(site)
        if settled_all:
            self.gtm.undo_log.forget(gtxn.gtxn_id)
        return settled_all

    def failover_undo_actions(self, gtxn: Any) -> Generator[Any, Any, bool]:
        """Presumed abort for commit-before/per_action orphans.

        Walks the orphan's routed operations in reverse: any action
        whose durable commit marker confirms it took effect is undone
        by an inverse reconstructed from the marker's before-image --
        the central undo-log alone can miss the final action when the
        crash ate its reply.
        """
        from repro.mlt.actions import inverse_of

        if not self.gtm.durable_status:
            # Volatile placement cannot confirm forward commits; the
            # honest answer is to leave the effects (EXP-A2 territory).
            return True
        settled_all = True
        for index in range(len(gtxn.operations) - 1, -1, -1):
            operation = gtxn.operations[index]
            if operation.site is None or operation.kind == "read":
                continue
            marker_key = f"{gtxn.gtxn_id}:{index}"
            status = yield from self._marker_status(operation.site, marker_key)
            if status is None:
                settled_all = False
                continue
            if status.payload.get("outcome") != "committed":
                continue  # the action never took durable effect
            inverse = inverse_of(operation, status.payload.get("before"))
            if inverse is None:
                continue
            self.gtm.kernel.trace.emit(
                "recovery_undo", self.gtm.name, gtxn.gtxn_id,
                at=operation.site, op=str(inverse),
            )
            undone = yield from self._execute_inverse_action(
                gtxn.gtxn_id, operation.site, inverse, f"undo:{marker_key}"
            )
            if not undone:
                settled_all = False
        if settled_all:
            self.gtm.undo_log.forget(gtxn.gtxn_id)
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

    def _marker_status(
        self, site: str, marker_key: str
    ) -> Generator[Any, Any, Optional[Any]]:
        """Durable-marker status, waiting for the site to come up (§3.3)."""
        config = self.gtm.config
        while True:
            if self.gtm.crashed:
                return None
            try:
                reply = yield from self.gtm.comm.request(
                    site, "status_query", timeout=config.msg_timeout,
                    marker_key=marker_key, durable=True,
                )
                return reply
            except MessageTimeout:
                yield config.status_poll_interval

    def _execute_inverse_action(
        self, gtxn_id: str, site: str, inverse: Any, marker_key: str
    ) -> Generator[Any, Any, bool]:
        """One reconstructed inverse action as a marker-guarded L0 txn."""
        config = self.gtm.config
        while True:
            if self.gtm.crashed:
                return False
            try:
                reply = yield from self.gtm.comm.request(
                    site, "execute_l0", gtxn_id=gtxn_id,
                    timeout=config.msg_timeout,
                    op=inverse, marker_key=marker_key, undo=True,
                )
            except MessageTimeout:
                status = yield from self._marker_status(site, marker_key)
                if status is None:
                    return False
                if status.payload.get("outcome") == "committed":
                    break  # the inverse did commit; the reply was lost
                continue
            if reply.kind == "l0_done":
                break
            yield config.status_poll_interval
        self.gtm.undo_log.note_undo()
        self.redriven_undos += 1
        return True
