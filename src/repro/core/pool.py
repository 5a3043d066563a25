"""Sharded commit coordination: a pool of global transaction managers.

The paper's architecture (§2, Fig. 1) funnels every global transaction
through one central GTM -- the scalability wall.  Following the
partitioned-coordinator designs of *Consensus on Transaction Commit*
(Gray & Lamport) and *Multi-Shot Distributed Transaction Commit*
(Chockler & Gotsman), the pool runs N coordinator instances and routes
each global transaction to one shard: CRC32 of the gtxn id modulo N, a
uniform, seed-free spread.

The shards share one L1 lock service and one set of central logs
(decision / redo / undo) -- the model of durable shared central
storage.  That sharing is what makes **failover** sound: when a
coordinator crashes, any peer can resolve its in-flight transactions
through the existing recovery machinery, reading the crashed shard's
hardened decisions from the very same logs (hardened-commit redrive,
presumed abort, the §3.2 redo obligation, and commit-before undo
redrive -- see :meth:`GlobalRecoveryManager.adopt_orphans
<repro.core.recovery.GlobalRecoveryManager.adopt_orphans>`).

With one coordinator the pool is a transparent pass-through: routing,
ids and event schedules are exactly the single-GTM seed's.
"""

from __future__ import annotations

import itertools
import zlib
from typing import TYPE_CHECKING, Any, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.global_txn import GlobalOutcome, GlobalTransaction
    from repro.core.gtm import GlobalTransactionManager
    from repro.mlt.actions import Operation
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process


class AllCoordinatorsDown(RuntimeError):
    """Every shard in the pool is crashed; nothing can accept work."""


class CoordinatorPool:
    """Routes global transactions across N coordinators with failover."""

    #: Paxos Commit only: how long a crashed coordinator's peers wait
    #: before taking over its undecided transactions at a higher ballot
    #: (timeout-driven leader change, not orphan adoption).
    PAXOS_TAKEOVER_TIMEOUT = 80.0

    def __init__(
        self,
        kernel: "Kernel",
        coordinators: list["GlobalTransactionManager"],
    ):
        if not coordinators:
            raise ValueError("a pool needs at least one coordinator")
        self.kernel = kernel
        self.coordinators = list(coordinators)
        self._ids = itertools.count(1)
        #: Orphans of crashed coordinators not yet handed to an adopter
        #: (every live peer was down, or the adopter crashed too).
        self._pending_orphans: dict[str, "GlobalTransaction"] = {}
        #: Adopter -> the (mutable) batch it is currently resolving;
        #: ``adopt_orphans`` pops entries as it settles them, so on an
        #: adopter crash the leftover is exactly what must be re-adopted.
        self._adoptions: dict[int, dict[str, "GlobalTransaction"]] = {}
        #: Adopters with an adoption process in flight.  A second crash
        #: of the same shard while its orphans are mid-adoption merges
        #: into the running batch instead of spawning a duplicate
        #: adoption that would redrive the same transactions twice.
        self._adoption_running: set[int] = set()
        #: Paxos coordinator mode: undecided transactions of a crashed
        #: shard wait here for the takeover timeout, then a live peer
        #: finishes their consensus instances at a higher ballot
        #: (timeout-driven leader change, not orphan adoption).
        self._pending_takeovers: dict[str, "GlobalTransaction"] = {}
        self._takeover_batches: dict[int, dict[str, "GlobalTransaction"]] = {}
        self._takeover_running: set[int] = set()
        self.crashes = 0
        self.failovers_started = 0
        self.takeovers_started = 0
        self.submissions_rerouted = 0
        for gtm in self.coordinators:
            gtm.pool = self

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, gtxn_id: str) -> int:
        """The home shard for a transaction (deterministic, seed-free)."""
        return zlib.crc32(gtxn_id.encode()) % len(self.coordinators)

    def submit(
        self,
        operations: list["Operation"],
        name: Optional[str] = None,
        intends_abort: bool = False,
    ) -> "Process":
        """Route one global transaction to its shard and run it.

        A crashed home shard is skipped: the submission fails over to
        the next live coordinator (counted in
        ``submissions_rerouted``).  With a single coordinator this is a
        plain pass-through -- the seed's exact path.
        """
        if len(self.coordinators) == 1:
            return self.coordinators[0].submit(
                operations, name=name, intends_abort=intends_abort
            )
        gtxn_id = name or f"G{next(self._ids)}"
        shard = self.shard_of(gtxn_id)
        for probe in range(len(self.coordinators)):
            gtm = self.coordinators[(shard + probe) % len(self.coordinators)]
            if not gtm.crashed:
                if probe:
                    self.submissions_rerouted += 1
                return gtm.submit(
                    operations, name=gtxn_id, intends_abort=intends_abort
                )
        raise AllCoordinatorsDown(
            f"all {len(self.coordinators)} coordinators are crashed"
        )

    # ------------------------------------------------------------------
    # Shared views
    # ------------------------------------------------------------------

    def is_active(self, gtxn_id: str) -> bool:
        """Is any live coordinator (or a failover) driving ``gtxn_id``?

        Adopted orphans count as active too: a site-restart recovery
        sweep must not race the failover that is already resolving
        them.
        """
        for gtm in self.coordinators:
            if gtxn_id in gtm.active:
                return True
        if gtxn_id in self._pending_orphans:
            return True
        if gtxn_id in self._pending_takeovers:
            return True
        if any(gtxn_id in batch for batch in self._takeover_batches.values()):
            return True
        return any(gtxn_id in batch for batch in self._adoptions.values())

    def live_coordinator(self) -> "GlobalTransactionManager":
        """A live coordinator, preferring shard 0 (for recovery duty)."""
        for gtm in self.coordinators:
            if not gtm.crashed:
                return gtm
        raise AllCoordinatorsDown(
            f"all {len(self.coordinators)} coordinators are crashed"
        )

    def outcomes(self) -> list["GlobalOutcome"]:
        """Every shard's outcomes, in submission order per shard."""
        collected: list["GlobalOutcome"] = []
        for gtm in self.coordinators:
            collected.extend(gtm.outcomes)
        return collected

    def unresolved_orphans(self) -> list[str]:
        """In-doubt gtxn ids no failover has settled yet (audits)."""
        unresolved = sorted(self._pending_orphans)
        unresolved.extend(sorted(self._pending_takeovers))
        for batch in self._adoptions.values():
            unresolved.extend(sorted(batch))
        for batch in self._takeover_batches.values():
            unresolved.extend(sorted(batch))
        return unresolved

    # ------------------------------------------------------------------
    # Crash + failover
    # ------------------------------------------------------------------

    def crash(self, index: int) -> None:
        """Crash coordinator ``index``; a live peer adopts its orphans."""
        gtm = self.coordinators[index]
        if gtm.crashed:
            return
        self.crashes += 1
        # Capture in-flight transactions *before* interrupting their
        # processes: the interrupt runs each coordinator generator's
        # ``finally`` blocks, which pop ``gtm.active``.
        orphans: dict[str, "GlobalTransaction"] = dict(gtm.active)
        # An adoption (or takeover) this shard was running for an
        # earlier crash is itself orphaned now -- whatever it had not
        # settled yet.
        leftover = self._adoptions.pop(index, None)
        if leftover:
            orphans.update(leftover)
        self._adoption_running.discard(index)
        leftover = self._takeover_batches.pop(index, None)
        if leftover:
            orphans.update(leftover)
        self._takeover_running.discard(index)
        gtm.crashed = True
        if gtm.pipeline is not None:
            gtm.pipeline.crash()
        self.kernel.trace.emit(
            "coordinator_crash", gtm.name, gtm.name, inflight=len(orphans)
        )
        gtm.comm.node.crash()
        for process in list(gtm._inflight.values()):
            if not process.done:
                process.interrupt(cause=f"coordinator {gtm.name} crashed")
        gtm._inflight.clear()
        for process in gtm._service:
            if not process.done:
                process.interrupt(cause=f"coordinator {gtm.name} crashed")
        gtm._service.clear()
        if gtm.protocol.replicated_decisions:
            # Paxos Commit: nobody adopts anything.  The undecided
            # transactions wait out the takeover timeout, then a live
            # peer finishes their consensus instances at a higher
            # ballot -- non-blocking by the acceptor majority.
            self._pending_takeovers.update(orphans)
            self._schedule_takeover()
        else:
            self._pending_orphans.update(orphans)
            self._start_failover()

    def restart(self, index: int) -> Generator[Any, Any, None]:
        """Restart coordinator ``index`` (a generator; spawn or yield from)."""
        gtm = self.coordinators[index]
        if not gtm.crashed:
            return
        yield from gtm.comm.node.restart()
        gtm.crashed = False
        gtm.comm.respawn()
        self.kernel.trace.emit("coordinator_restart", gtm.name, gtm.name)
        # Orphans stranded while every peer was down: the reborn
        # coordinator adopts (or, under paxos, takes over) them itself.
        self._start_failover()
        self._schedule_takeover()

    def _start_failover(self) -> None:
        """Hand all pending orphans to one live peer, if any exists."""
        if not self._pending_orphans:
            return
        adopter: Optional["GlobalTransactionManager"] = None
        for gtm in self.coordinators:
            if not gtm.crashed:
                adopter = gtm
                break
        if adopter is None:
            return  # total outage; the next restart re-triggers this
        batch = dict(self._pending_orphans)
        self._pending_orphans.clear()
        adopter_index = self.coordinators.index(adopter)
        existing = self._adoptions.setdefault(adopter_index, {})
        existing.update(batch)
        self.failovers_started += 1
        if adopter_index in self._adoption_running:
            # The adopter is already draining its batch (a double crash
            # of the same shard landed mid-adoption): the merge above
            # is enough -- a second adoption process would re-adopt and
            # redrive transactions the running one is still settling.
            return
        self._adoption_running.add(adopter_index)
        process = self.kernel.spawn(
            self._run_adoption(adopter, adopter_index),
            name=f"failover:{adopter.name}",
        )
        adopter.track_service(process)

    def _run_adoption(
        self, adopter: "GlobalTransactionManager", adopter_index: int
    ) -> Generator[Any, Any, None]:
        batch = self._adoptions.get(adopter_index)
        try:
            if not batch:
                return
            yield from adopter.recovery.adopt_orphans(batch)
        finally:
            self._adoption_running.discard(adopter_index)
            if not batch and self._adoptions.get(adopter_index) is batch:
                self._adoptions.pop(adopter_index, None)

    # ------------------------------------------------------------------
    # Paxos takeover (protocols with replicated decisions)
    # ------------------------------------------------------------------

    def _schedule_takeover(self) -> None:
        """Arm the takeover timer for the pending undecided batch."""
        if not self._pending_takeovers:
            return
        self.kernel._schedule(self.PAXOS_TAKEOVER_TIMEOUT, self._takeover_due)

    def _takeover_due(self) -> None:
        """Timeout fired: hand the pending batch to one live peer."""
        if not self._pending_takeovers:
            return
        adopter: Optional["GlobalTransactionManager"] = None
        for gtm in self.coordinators:
            if not gtm.crashed:
                adopter = gtm
                break
        if adopter is None:
            return  # total outage; a restart re-arms the timer
        batch = dict(self._pending_takeovers)
        self._pending_takeovers.clear()
        adopter_index = self.coordinators.index(adopter)
        existing = self._takeover_batches.setdefault(adopter_index, {})
        existing.update(batch)
        self.takeovers_started += 1
        self.kernel.trace.emit(
            "paxos_takeover", adopter.name, adopter.name, batch=len(batch)
        )
        if adopter_index in self._takeover_running:
            return  # the running drain loop picks the merge up
        self._takeover_running.add(adopter_index)
        process = self.kernel.spawn(
            self._run_takeover(adopter, adopter_index),
            name=f"takeover:{adopter.name}",
        )
        adopter.track_service(process)

    def _run_takeover(
        self, adopter: "GlobalTransactionManager", adopter_index: int
    ) -> Generator[Any, Any, None]:
        batch = self._takeover_batches.get(adopter_index)
        try:
            while batch:
                if adopter.crashed:
                    return  # crash handling re-routes the leftover
                gtxn_id = min(batch)
                yield from adopter.recovery.takeover_paxos(batch[gtxn_id])
                batch.pop(gtxn_id, None)
        finally:
            self._takeover_running.discard(adopter_index)
            if not batch and self._takeover_batches.get(adopter_index) is batch:
                self._takeover_batches.pop(adopter_index, None)

    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        """Pool-wide counters, shaped like one GTM's :meth:`metrics`.

        Per-coordinator counters are summed; the L1 and decision-log
        figures come from shard 0 because those components are shared
        (summing them would double-count).  With one coordinator this
        is exactly that coordinator's own metrics.
        """
        if len(self.coordinators) == 1:
            return self.coordinators[0].metrics()
        per_shard = [gtm.metrics() for gtm in self.coordinators]
        summed = (
            "global_committed", "global_aborted",
            "redo_executions", "undo_executions",
            "decision_groups", "decisions_grouped",
            "recovery_passes", "recovery_resolved_indoubt",
            "recovery_redriven_redos", "recovery_redriven_undos",
            "recovery_orphans_terminated",
        )
        merged: dict[str, Any] = {key: sum(m[key] for m in per_shard) for key in summed}
        for key in (
            "l1_waits", "l1_wait_time", "l1_hold_time", "l1_deadlocks",
            "decision_forces",
        ):
            merged[key] = per_shard[0][key]
        committed = [o for o in self.outcomes() if o.committed]
        merged["mean_response_time"] = (
            sum(o.response_time for o in committed) / len(committed)
            if committed
            else 0.0
        )
        merged["coordinator_crashes"] = self.crashes
        merged["failovers_started"] = self.failovers_started
        merged["submissions_rerouted"] = self.submissions_rerouted
        merged["unresolved_orphans"] = len(self.unresolved_orphans())
        return merged

    def __repr__(self) -> str:
        live = sum(1 for gtm in self.coordinators if not gtm.crashed)
        return f"<CoordinatorPool n={len(self.coordinators)} live={live}>"
