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
coordinator crashes, a live peer *resumes the protocol* for each of
its in-flight transactions, reading the crashed shard's durable record
from the very same logs (or, for Paxos Commit, finishing the consensus
instance at a higher ballot) -- see
:meth:`GlobalRecoveryManager.adopt_orphans
<repro.core.recovery.GlobalRecoveryManager.adopt_orphans>`.  Every
protocol's orphans go through one hand-off queue; the protocol only
says how long they wait first
(:attr:`~repro.core.protocols.base.CommitProtocol.orphan_wait`).

With one coordinator the pool is a transparent pass-through: routing,
ids and event schedules are exactly the single-GTM seed's.
"""

from __future__ import annotations

import functools
import itertools
import zlib
from typing import TYPE_CHECKING, Any, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.global_txn import GlobalOutcome, GlobalTransaction
    from repro.core.gtm import GlobalTransactionManager
    from repro.mlt.actions import Operation
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process

#: Metrics of components every shard shares (the L1 lock service and
#: the decision log): reported once, from shard 0.
SHARED_METRICS = (
    "l1_waits", "l1_wait_time", "l1_hold_time", "l1_deadlocks", "decision_forces",
)


class AllCoordinatorsDown(RuntimeError):
    """Every shard in the pool is crashed; nothing can accept work."""


class CoordinatorPool:
    """Routes global transactions across N coordinators with failover."""

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
        #: (their protocol's wait is not over, every live peer was down,
        #: or the adopter crashed too).
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
        self.crashes = 0
        #: Hand-offs to an adopter; Paxos Commit's, which finish the
        #: crashed leader's consensus at a higher ballot, are takeovers.
        self.failovers_started = 0
        self.takeovers_started = 0
        self.submissions_rerouted = 0
        for index, gtm in enumerate(self.coordinators):
            gtm.pool = self
            node = gtm.comm.node
            node.on_crash.append(functools.partial(self._on_crash, index))
            node.after_restart.append(functools.partial(self._on_restarted, gtm))

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
        for batch in self._adoptions.values():
            unresolved.extend(sorted(batch))
        return unresolved

    # ------------------------------------------------------------------
    # Crash + failover
    # ------------------------------------------------------------------

    def _on_crash(self, index: int) -> None:
        """Shard ``index``'s node crashed; a live peer adopts its orphans."""
        gtm = self.coordinators[index]
        self.crashes += 1
        # Capture in-flight transactions *before* interrupting their
        # processes: the interrupt runs each coordinator generator's
        # ``finally`` blocks, which pop ``gtm.active``.
        orphans: dict[str, "GlobalTransaction"] = dict(gtm.active)
        # An adoption this shard was running for an earlier crash is
        # itself orphaned now -- whatever it had not settled yet.
        leftover = self._adoptions.pop(index, None)
        if leftover:
            orphans.update(leftover)
        self._adoption_running.discard(index)
        if gtm.pipeline is not None:
            gtm.pipeline.crash()
        self.kernel.trace.emit(
            "coordinator_crash", gtm.name, gtm.name, inflight=len(orphans)
        )
        for process in list(gtm._inflight.values()):
            if not process.done:
                process.interrupt(cause=f"coordinator {gtm.name} crashed")
        gtm._inflight.clear()
        for process in gtm._service:
            if not process.done:
                process.interrupt(cause=f"coordinator {gtm.name} crashed")
        gtm._service.clear()
        self._pending_orphans.update(orphans)
        self._schedule_failover()

    def _on_restarted(self, gtm: "GlobalTransactionManager") -> None:
        """A shard is back up and serving."""
        self.kernel.trace.emit("coordinator_restart", gtm.name, gtm.name)
        # Orphans stranded while every peer was down: the reborn
        # coordinator adopts them itself.
        self._schedule_failover()

    def _schedule_failover(self) -> None:
        """Hand the pending orphans over once their protocol's wait is up.

        Paxos Commit waits out a takeover timeout (a live peer then
        finishes the consensus instances at a higher ballot --
        non-blocking by the acceptor majority); the rest are adopted at
        once.
        """
        if not self._pending_orphans:
            return
        wait = self.coordinators[0].protocol.orphan_wait
        if wait:
            self.kernel._schedule(wait, self._start_failover)
        else:
            self._start_failover()

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
        if adopter.protocol.replicated_decisions:
            self.takeovers_started += 1
        else:
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

    def metrics(self) -> dict[str, Any]:
        """Pool-wide counters, shaped like one GTM's :meth:`metrics`.

        Every per-coordinator counter is summed, except the shared
        components' figures (summing them would double-count) and the
        mean response time, which is recomputed over every shard's
        commits.  With one coordinator this is exactly that
        coordinator's own metrics.
        """
        if len(self.coordinators) == 1:
            return self.coordinators[0].metrics()
        per_shard = [gtm.metrics() for gtm in self.coordinators]
        committed = [o for o in self.outcomes() if o.committed]
        merged: dict[str, Any] = {}
        for key in per_shard[0]:
            if key == "mean_response_time":
                merged[key] = (
                    sum(o.response_time for o in committed) / len(committed)
                    if committed
                    else 0.0
                )
            elif key in SHARED_METRICS:
                merged[key] = per_shard[0][key]
            else:
                merged[key] = sum(m[key] for m in per_shard)
        merged["coordinator_crashes"] = self.crashes
        merged["failovers_started"] = self.failovers_started
        merged["submissions_rerouted"] = self.submissions_rerouted
        merged["unresolved_orphans"] = len(self.unresolved_orphans())
        return merged

    def __repr__(self) -> str:
        live = sum(1 for gtm in self.coordinators if not gtm.crashed)
        return f"<CoordinatorPool n={len(self.coordinators)} live={live}>"
