"""The global transaction manager of the central system.

Accepts global transactions (lists of
:class:`~repro.mlt.actions.Operation`), decomposes them through the
global schema, runs the configured atomic commitment protocol and
enforces global serializability with the L1 lock table appropriate for
that protocol:

* ``2pc`` -- no L1 table: flat distributed strict 2PL plus the ready
  state already yields global serializability.
* ``after`` -- read/write L1 locks held until every local finally
  committed (the §3.2 serializability requirement: the first
  execution's serialization order must survive redo).
* ``before`` -- the multi-level L1 table (semantic by default) held to
  the end of the global transaction (§3.3/§4); this is the concurrency
  control that multi-level transactions need anyway.

Global transactions aborted by L1 deadlock/timeout are retried up to
``RETRY_ATTEMPTS`` times with a backoff -- their locals were cleaned up
by the protocol's abort path, so a retry is a fresh run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.core.global_txn import GlobalOutcome, GlobalTransaction
from repro.core.protocols.base import make_protocol
from repro.core.redo import RedoLog
from repro.core.undo import UndoLog
from repro.errors import DurabilityOrderViolation, MessageTimeout
from repro.localdb.locks import ConflictTable
from repro.mlt.conflicts import READ_WRITE_TABLE, SEMANTIC_TABLE
from repro.net.batching import FlushGroups, check_flush_knobs
from repro.sim.events import Future

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.integration.comm_central import CentralCommunicationManager
    from repro.integration.schema import GlobalSchema
    from repro.mlt.actions import Operation
    from repro.net.network import Network
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process


@dataclass
class GTMConfig:
    """Configuration of the global transaction manager.

    Attributes
    ----------
    protocol:
        Name of a registered commit protocol (see
        :data:`repro.core.protocols.PROTOCOL_REGISTRY`).
    granularity:
        For commit-before: ``"per_action"`` (multi-level, §4) or
        ``"per_site"`` ([BST 90]/[WV 90] style).
    l1_table:
        Override of the L1 conflict table (``None`` = protocol default;
        the EXP-A1 ablation passes ``READ_WRITE_TABLE`` to commit-before).
    msg_timeout:
        How long the coordinator waits for one reply before it treats
        the request as ambiguous.
    status_poll_interval:
        Pause between status queries while an ambiguous subtransaction
        is being resolved.
    optimize_undo:
        Collapse inverse transactions (net increments, dead-write
        elimination) before sending them -- the optimization §4.1
        defers.
    pipeline_window:
        With a positive window, commit decisions bound for the same
        site within the window share one ``decide_group`` round-trip
        and their decision records share one forced write at the
        central decision log (the group-decision pipeline).  ``0``
        keeps the seed's one-decide-per-transaction path.
    pipeline_policy:
        ``"static"`` (fixed-delay flush, the PR 1 behaviour) or
        ``"adaptive"`` (size-or-deadline with a load-sensed window,
        mirroring the network's ``batch_policy``).
    pipeline_max_group:
        Flush a site's decision group as soon as it reaches this many
        members instead of waiting out the window (``0`` disables the
        size trigger).
    piggyback_decisions:
        Commit-before per-site only: ride the local-commit request on
        the site's *last* data message instead of a dedicated
        ``finish_subtxn`` round, and read the local outcome off the
        data reply -- the paper's "votes ride on data" taken one step
        further.
    """

    protocol: str = "before"
    granularity: str = "per_action"
    l1_table: Optional[ConflictTable] = None
    msg_timeout: float = 50.0
    status_poll_interval: float = 10.0
    optimize_undo: bool = False
    pipeline_window: float = 0.0
    pipeline_policy: str = "static"
    pipeline_max_group: int = 0
    piggyback_decisions: bool = False

    def __post_init__(self) -> None:
        if self.granularity not in ("per_action", "per_site"):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        check_flush_knobs(
            self.pipeline_window, self.pipeline_policy, self.pipeline_max_group
        )

    def resolved_l1_table(self) -> Optional[ConflictTable]:
        """The L1 conflict table this configuration actually uses.

        Derived from the protocol registry: the §3.2 redo family
        (``after``, ``one_phase``) and the altruistic baseline hold
        read/write L1 locks, commit-before runs the semantic table,
        everything else has no L1 layer.
        """
        if self.l1_table is not None:
            return self.l1_table
        from repro.core.protocols import PROTOCOL_REGISTRY

        info = PROTOCOL_REGISTRY.get(self.protocol)
        if info is None or info.l1_table is None:
            return None  # 2pc / 2pc-pa / 3pc / paxos / saga / short_commit
        return READ_WRITE_TABLE if info.l1_table == "read_write" else SEMANTIC_TABLE


class DecisionLog:
    """Central log of global commit decisions.

    A decision record must be hardened (one forced write) before the
    decision may reach any participant -- otherwise a central crash
    could forget a decision whose effects are already visible at a
    site.  The group-decision pipeline hands whole batches to
    :meth:`harden`; every record in a batch shares one force, the
    central-side analogue of local group commit.  Hardening is
    idempotent per transaction: a transaction decided on several sites
    forces only once.
    """

    def __init__(self):
        self.forces = 0
        self._decisions: dict[str, str] = {}

    def harden(self, gtxn_ids: list[str], decision: str) -> None:
        """Durably record ``decision`` for every id, with one force."""
        fresh = [g for g in gtxn_ids if g not in self._decisions]
        if not fresh:
            return
        for gtxn_id in fresh:
            self._decisions[gtxn_id] = decision
        self.forces += 1

    def decision_for(self, gtxn_id: str) -> Optional[str]:
        """The hardened decision for ``gtxn_id``, or ``None``.

        This is the recovery manager's read path: an in-doubt
        subtransaction whose global has no hardened commit record is
        resolved by presumed abort.
        """
        return self._decisions.get(gtxn_id)


class DecisionPipeline:
    """Per-site batching of commit decisions (the group-decision path).

    Concurrent global transactions that reach their commit decision
    within ``pipeline_window`` of each other and involve the same site
    share one ``decide_group`` round-trip, and their decision records
    share one forced write at the central :class:`DecisionLog`.  On a
    timeout the whole group resolves to ``ambiguous`` and every member
    falls back to its protocol's individual retry machinery, so crash
    behaviour is unchanged.

    The groups are a :class:`~repro.net.batching.FlushGroups` keyed by
    site -- the network outboxes' size-or-deadline mechanism, with
    ``pipeline_max_group`` as its size cap; this class supplies only
    the send step.
    """

    def __init__(self, gtm: "GlobalTransactionManager"):
        self.gtm = gtm
        config = gtm.config
        # Per-site decision groups: site -> (gtxn_id, decision,
        # marker_key, future) entries.
        self.groups = FlushGroups(
            gtm.kernel, config.pipeline_window, config.pipeline_policy,
            config.pipeline_max_group, self._flush_site,
        )
        self.groups_sent = 0
        self.decisions_grouped = 0
        self.dropped_on_crash = 0

    def decide(
        self, site: str, gtxn_id: str, decision: str, marker_key: Optional[str]
    ) -> Generator[Any, Any, str]:
        """Queue one decision for ``site``; returns the site's outcome.

        The returned string is ``committed`` / ``aborted`` /
        ``ambiguous`` -- the same vocabulary as an individual decide.
        """
        future = Future(label=f"group-decide:{site}:{gtxn_id}")
        self.groups.add(site, (gtxn_id, decision, marker_key, future))
        outcome = yield future
        return outcome

    def crash(self) -> None:
        """The coordinator died: its buffered decisions die with it.

        Queued decisions were never hardened, so presumed abort is the
        correct (and only safe) resolution -- the failover peer settles
        every member through the recovery machinery.  What must *not*
        happen is the scheduled deadline firing later and hardening a
        commit on behalf of a dead coordinator: a peer may already have
        presumed those very transactions aborted.
        """
        self.dropped_on_crash += len(self.groups.drop())

    def _flush_site(
        self, site: str, entries: list[tuple[str, str, Optional[str], Future]]
    ) -> None:
        """The groups' send step: one ``decide_group`` for ``site``."""
        if self.gtm.crashed:
            # A deadline can outlive the coordinator; its decisions
            # may not.
            self.dropped_on_crash += len(entries)
            return
        self.groups_sent += 1
        self.decisions_grouped += len(entries)
        self.gtm.track_service(
            self.gtm.kernel.spawn(
                self._send_group(site, entries), name=f"decide-group:{site}"
            )
        )

    def _send_group(
        self, site: str, entries: list[tuple[str, str, Optional[str], Future]]
    ) -> Generator[Any, Any, None]:
        acceptors = self.gtm.acceptors
        if acceptors is not None:
            # Paxos coordinator mode: the durable decision record is the
            # chosen value at a majority of acceptors, and
            # ``PaxosCommit`` delivers decisions directly -- never
            # through this pipeline.  A decision reaching the group path
            # without a chosen value would let the participant ack
            # overtake durable acceptance, the exact reordering the
            # ballot-0 fast path forbids; fail loudly instead of
            # hardening a central record the acceptors never chose.
            unchosen = [
                gtxn_id for gtxn_id, decision, _, _ in entries
                if acceptors.decision_for(gtxn_id) != decision
            ]
            if unchosen:
                raise DurabilityOrderViolation(
                    "pipelined decision(s) for "
                    + ", ".join(sorted(unchosen))
                    + " not chosen at the acceptor group: a participant "
                    "ack would precede the durable acceptance"
                )
        # One forced write hardens every decision record in the group.
        self.gtm.decision_log.harden(
            [gtxn_id for gtxn_id, _, _, _ in entries], "commit"
        )
        decisions = [
            {"gtxn_id": gtxn_id, "decision": decision, "marker_key": marker_key}
            for gtxn_id, decision, marker_key, _ in entries
        ]
        try:
            reply = yield from self.gtm.comm.request(
                site, "decide_group",
                timeout=self.gtm.config.msg_timeout * 4,
                decisions=decisions,
            )
        except MessageTimeout:
            for _, _, _, future in entries:
                future.resolve("ambiguous")
            return
        outcomes = reply.payload.get("outcomes", {})
        for gtxn_id, _, _, future in entries:
            future.resolve(outcomes.get(gtxn_id, "ambiguous"))


class GlobalTransactionManager:
    """Coordinator for global transactions (runs at the central node)."""

    #: Bound on L1 lock waits.  Must be finite: two global transactions
    #: can deadlock *across* levels -- one waiting at L1 for an object
    #: the other holds, the other's redo waiting at L0 for a page the
    #: first's open subtransaction holds.  Neither level's deadlock
    #: detector can see such a cycle (the L1 table knows nothing about
    #: page co-location), so a timeout breaks it; the victim retries.
    L1_TIMEOUT = 150.0
    #: Retries of a global transaction aborted by an L1 conflict or an
    #: unavailable partition; attempt ``n`` first waits
    #: ``RETRY_BACKOFF * n``.
    RETRY_ATTEMPTS = 5
    RETRY_BACKOFF = 5.0

    def __init__(
        self,
        kernel: "Kernel",
        network: "Network",
        schema: "GlobalSchema",
        comm: "CentralCommunicationManager",
        config: Optional[GTMConfig] = None,
        share_from: Optional["GlobalTransactionManager"] = None,
    ):
        self.kernel = kernel
        self.network = network
        self.schema = schema
        self.comm = comm
        self.config = config or GTMConfig()
        self.name = comm.node.name
        self.protocol = make_protocol(self.config.protocol)
        if share_from is not None:
            # A pool shard: the L1 lock service and the decision /
            # redo / undo logs model shared, durable central storage --
            # every coordinator reads and writes the same instances, so
            # failover peers see each other's hardened state.
            self.l1 = share_from.l1
            self.redo_log = share_from.redo_log
            self.undo_log = share_from.undo_log
            self.decision_log = share_from.decision_log
        else:
            table = self.config.resolved_l1_table()
            self.l1 = (
                None if table is None
                else self.protocol.l1_manager(
                    kernel, "L1", table, default_timeout=self.L1_TIMEOUT
                )
            )
            self.redo_log = RedoLog()
            self.undo_log = UndoLog()
            self.decision_log = DecisionLog()
        self.pipeline: Optional[DecisionPipeline] = (
            DecisionPipeline(self) if self.config.pipeline_window > 0 else None
        )
        self._ids = itertools.count(1)
        self.outcomes: list[GlobalOutcome] = []
        self.committed = 0
        self.aborted = 0
        # Attempt-id -> in-flight GlobalTransaction.  The recovery
        # manager consults this so a restart never aborts an in-doubt
        # subtransaction whose coordinator is still deciding.
        self.active: dict[str, GlobalTransaction] = {}
        # Coordinator-crash support.  ``pool`` is the backref a
        # CoordinatorPool installs; ``_inflight`` maps gtxn id to its
        # coordinator process and ``_service`` holds auxiliary
        # processes (recovery sweeps, orphan terminations, failovers)
        # -- all of them die with the coordinator.
        self.pool: Optional[Any] = None
        # Can a site's status answer survive its crash?  The federation
        # installs its ``log_placement`` verdict here (only in-database
        # commit markers do); recovery chooses its path by it.
        self.durable_status = True
        # Paxos coordinator mode: the federation installs the shared
        # AcceptorGroup here; ``None`` on every classic path.
        self.acceptors: Optional[Any] = None
        # Data-plane placement: the federation installs the shared
        # DataPlane here when a placement is configured; ``None`` (the
        # default) keeps decomposition on the static schema path.
        self.dataplane: Optional[Any] = None
        self._inflight: dict[str, "Process"] = {}
        self._service: list["Process"] = []
        from repro.core.recovery import GlobalRecoveryManager

        self.recovery = GlobalRecoveryManager(self)
        # Stragglers answering an abandoned request reveal orphaned
        # subtransactions; the recovery manager terminates them.
        self.comm.on_unmatched.append(self.recovery.note_orphan_reply)

    @property
    def crashed(self) -> bool:
        """A coordinator is down exactly while its node is."""
        return self.comm.node.crashed

    # ------------------------------------------------------------------

    def submit(
        self,
        operations: list["Operation"],
        name: Optional[str] = None,
        intends_abort: bool = False,
    ) -> "Process":
        """Run a global transaction asynchronously.

        Returns the process; joining it yields the
        :class:`~repro.core.global_txn.GlobalOutcome`.
        """
        gtxn_id = name or f"G{next(self._ids)}"
        process = self.kernel.spawn(
            self._tracked_run(operations, gtxn_id, intends_abort),
            name=f"gtxn:{gtxn_id}",
        )
        self._inflight[gtxn_id] = process
        return process

    def _tracked_run(
        self,
        operations: list["Operation"],
        gtxn_id: str,
        intends_abort: bool,
    ) -> Generator[Any, Any, GlobalOutcome]:
        try:
            outcome = yield from self.run_transaction(
                operations, gtxn_id, intends_abort
            )
            return outcome
        finally:
            self._inflight.pop(gtxn_id, None)

    # ------------------------------------------------------------------
    # Pool support
    # ------------------------------------------------------------------

    def is_active(self, gtxn_id: str) -> bool:
        """Is any (live) coordinator still driving ``gtxn_id``?

        With a pool the check spans every shard: a peer's recovery pass
        must not presume-abort a transaction another coordinator is
        about to decide.
        """
        if self.pool is not None:
            return self.pool.is_active(gtxn_id)
        return gtxn_id in self.active

    def track_service(self, process: "Process") -> None:
        """Register an auxiliary process that dies with this coordinator."""
        if len(self._service) > 32:
            self._service = [p for p in self._service if not p.done]
        self._service.append(process)

    def run_transaction(
        self,
        operations: list["Operation"],
        gtxn_id: str,
        intends_abort: bool = False,
    ) -> Generator[Any, Any, GlobalOutcome]:
        """Execute one global transaction, retrying on L1 conflicts."""
        from repro.core.protocols.base import ProtocolContext
        from repro.integration.decompose import decompose

        submit_time = self.kernel.now
        attempt = 0
        while True:
            attempt += 1
            attempt_id = gtxn_id if attempt == 1 else f"{gtxn_id}~r{attempt - 1}"
            try:
                decomposition = decompose(self.schema, operations, self.dataplane)
            except Exception as exc:
                from repro.dataplane.placement import PlacementUnavailable

                if not isinstance(exc, PlacementUnavailable):
                    raise
                # A frozen/memberless partition: transient by design
                # (rejoins unfreeze, restarts repopulate), so back off
                # and re-route exactly like an L1-conflict retry.
                if attempt <= self.RETRY_ATTEMPTS:
                    yield self.RETRY_BACKOFF * attempt
                    continue
                outcome = GlobalOutcome(
                    gtxn_id=attempt_id,
                    committed=False,
                    reason=str(exc),
                    submit_time=submit_time,
                    attempts=attempt,
                )
                outcome.finish_time = self.kernel.now
                self.outcomes.append(outcome)
                self.aborted += 1
                return outcome
            gtxn = GlobalTransaction(
                self.kernel, attempt_id, decomposition.ordered, origin=self.name
            )
            outcome = GlobalOutcome(
                gtxn_id=attempt_id,
                committed=False,
                submit_time=submit_time,
                sites=decomposition.sites,
                attempts=attempt,
                routed_ops=[(op.site, op.kind) for op in decomposition.ordered],
            )
            ctx = ProtocolContext(self, gtxn, decomposition, outcome, intends_abort)
            self.active[attempt_id] = gtxn
            try:
                yield from self.protocol.run(ctx)
            finally:
                ctx.release_l1()
                self.active.pop(attempt_id, None)
            outcome.finish_time = self.kernel.now
            if (
                not outcome.committed
                and outcome.retriable
                and attempt <= self.RETRY_ATTEMPTS
            ):
                yield self.RETRY_BACKOFF * attempt
                continue
            self.outcomes.append(outcome)
            if outcome.committed:
                self.committed += 1
            else:
                self.aborted += 1
            return outcome

    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        """Coordinator-side counters for the experiment reports."""
        committed = [o for o in self.outcomes if o.committed]
        return {
            "global_committed": self.committed,
            "global_aborted": self.aborted,
            "redo_executions": sum(o.redo_executions for o in self.outcomes),
            "undo_executions": sum(o.undo_executions for o in self.outcomes),
            "mean_response_time": (
                sum(o.response_time for o in committed) / len(committed)
                if committed
                else 0.0
            ),
            "l1_waits": self.l1.waits if self.l1 else 0,
            "l1_wait_time": self.l1.total_wait_time if self.l1 else 0.0,
            "l1_hold_time": self.l1.total_hold_time if self.l1 else 0.0,
            "l1_deadlocks": self.l1.deadlocks if self.l1 else 0,
            # Paxos folds the acceptor-group forces into the decision
            # figure (only once, at the shard named "central", which
            # every report reads): the acceptor majority *is* the
            # durable decision record, so the §4 cost accounting stays
            # comparable across coordinator modes.
            "decision_forces": self.decision_log.forces
            + (
                self.acceptors.total_forces()
                if self.acceptors is not None and self.name == "central"
                else 0
            ),
            "decision_groups": self.pipeline.groups_sent if self.pipeline else 0,
            "decisions_grouped": (
                self.pipeline.decisions_grouped if self.pipeline else 0
            ),
            "decision_size_flushes": (
                self.pipeline.groups.size_flushes if self.pipeline else 0
            ),
            "decision_deadline_flushes": (
                self.pipeline.groups.deadline_flushes if self.pipeline else 0
            ),
            "recovery_passes": self.recovery.passes,
            "recovery_resolved_indoubt": self.recovery.resolved_indoubt,
            "recovery_redriven_redos": self.recovery.redriven_redos,
            "recovery_redriven_undos": self.recovery.redriven_undos,
            "recovery_orphans_terminated": self.recovery.orphans_terminated,
            "recovery_promotions_adopted": self.recovery.promotions_adopted,
        }

    def __repr__(self) -> str:
        return (
            f"<GlobalTransactionManager protocol={self.config.protocol} "
            f"committed={self.committed} aborted={self.aborted}>"
        )
