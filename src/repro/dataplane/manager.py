"""The data-plane manager: routing, promotion, fencing, rejoin.

One :class:`DataPlane` per federation, shared by every coordinator and
every site communication manager.  It is consulted at decompose time
(:meth:`routes` fans a write out to the full replica set, so each
replica becomes an ordinary participant of the commit protocol), on
site crashes (a lease timer drives deterministic promotion and an
epoch bump), on the execution path of every site (stale-epoch fencing),
and on restarts (freeze -> drain -> resync -> rejoin).

Liveness model: routing targets the member list, not instantaneous
node health.  Between a member's crash and its lease expiry, requests
to it time out and the GTM retries; once the lease fires the member is
evicted, the epoch increments, and the retry re-decomposes against the
new membership.  A restarting ex-member is resynchronised from the
current primary *after* global recovery settled its in-doubt locals,
under a frozen partition with no in-flight global transactions -- the
only window in which a byte-copy is sound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.dataplane.placement import Partition, PlacementMap, PlacementUnavailable
from repro.errors import DatabaseError
from repro.mlt.actions import Operation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.integration.federation import Federation


class DataPlane:
    """Namespace routing and replica-set membership for one federation."""

    #: How long a crashed partition member keeps its seat before it is
    #: evicted (promoting the next replica if it was the primary) and
    #: the partition epoch is bumped.
    LEASE_TIMEOUT = 40.0
    #: How often a rejoin re-checks for in-flight transactions to drain.
    DRAIN_POLL_INTERVAL = 5.0

    def __init__(self, federation: "Federation", placement_map: PlacementMap):
        self.federation = federation
        self.kernel = federation.kernel
        self.map = placement_map
        #: Reject executions stamped with a superseded epoch.  Disabled
        #: only by the ``stale_epoch`` checker mutant.
        self.fencing = True
        #: Wait out in-flight transactions before a rejoin resync.
        self.drain_on_rejoin = True
        #: Copy the primary's partition image onto a rejoining replica.
        self.resync_on_rejoin = True
        # Counters (surface in federation metrics and the obs registry).
        self.promotions = 0
        self.evictions = 0
        self.rejoins = 0
        self.resynced_keys = 0
        self.stale_rejections = 0
        self.unavailable_rejections = 0
        self.routed_reads = 0
        self.routed_writes = 0

    # ------------------------------------------------------------------
    # Routing (decompose time)
    # ------------------------------------------------------------------

    def manages(self, table: str) -> bool:
        return self.map.manages(table)

    def epoch_of(self, pid: int) -> int:
        return self.map.partition(pid).epoch

    def routes(self, operation: Operation) -> list[Operation]:
        """Bind one global operation to its partition's member sites.

        Reads go to the primary only; writes fan out to every member,
        each copy stamped with the partition id and current epoch so
        the sites can fence requests that outlive a membership change.
        """
        partition = self.map.partition_of(operation.table, operation.key)
        if partition.frozen:
            self.unavailable_rejections += 1
            raise PlacementUnavailable(
                partition.table, partition.index, "rejoin in progress"
            )
        if not partition.members:
            self.unavailable_rejections += 1
            raise PlacementUnavailable(
                partition.table, partition.index, "no serving member"
            )
        if not operation.writes:
            self.routed_reads += 1
            return [self._stamp(operation, partition, partition.members[0])]
        self.routed_writes += 1
        return [
            self._stamp(operation, partition, member)
            for member in partition.members
        ]

    @staticmethod
    def _stamp(operation: Operation, partition: Partition, site: str) -> Operation:
        return operation.placed(
            site, partition.local_table, partition.pid, partition.epoch
        )

    # ------------------------------------------------------------------
    # Promotion (lease-driven, deterministic)
    # ------------------------------------------------------------------

    def on_site_crash(self, site: str) -> None:
        """Arm one lease timer per membership of the crashed site."""
        for partition in self.map.partitions_for_site(site):
            if site not in partition.members:
                continue
            self.kernel.call_at(
                self.kernel.now + self.LEASE_TIMEOUT,
                self._lease_expired,
                partition.pid,
                site,
                partition.epoch,
            )

    def _lease_expired(self, pid: int, site: str, epoch: int) -> None:
        partition = self.map.partition(pid)
        if partition.epoch != epoch or site not in partition.members:
            return  # membership already changed under this lease
        node = self.federation.nodes.get(site)
        if node is not None and not node.crashed:
            return  # the site came back within its lease
        was_primary = partition.members[0] == site
        partition.members.remove(site)
        partition.offline.add(site)
        partition.epoch += 1
        # A promotion needs a successor: losing the only member is a
        # plain eviction (the partition waits, memberless, for rejoin).
        promoted = was_primary and bool(partition.members)
        if not partition.members:
            # The membership just emptied: this site held every commit
            # and is the only legitimate solo-resumer on restart.
            partition.resume_set = {site}
        if promoted:
            self.promotions += 1
        else:
            self.evictions += 1
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                "partition_promote" if promoted else "partition_evict",
                "central",
                f"{partition.table}/p{partition.index}",
                evicted=site,
                primary=partition.primary,
                epoch=partition.epoch,
            )
        coordinator = self._live_coordinator()
        if coordinator is not None:
            coordinator.recovery.note_promotion(
                site, partition.pid, partition.epoch, partition.primary
            )

    def _live_coordinator(self):
        from repro.core.pool import AllCoordinatorsDown

        try:
            return self.federation.pool.live_coordinator()
        except AllCoordinatorsDown:
            return None

    # ------------------------------------------------------------------
    # Rejoin (restart path: freeze -> drain -> resync -> epoch bump)
    # ------------------------------------------------------------------

    def rejoin(self, site: str) -> Generator[Any, Any, None]:
        """Re-integrate a restarted ex-member into its partitions.

        Runs after global recovery resolved the site's in-doubt locals,
        so the resync reconciles only *settled* state.
        """
        for partition in self.map.partitions_for_site(site):
            if site in partition.offline:
                yield from self._rejoin_partition(partition, site)

    def _rejoin_partition(
        self, partition: Partition, site: str
    ) -> Generator[Any, Any, None]:
        while True:
            if not partition.members:
                if site in partition.resume_set or not partition.resume_set:
                    # Every member went down; only the last-standing
                    # member -- which applied every commit -- may
                    # resume the partition alone.
                    partition.resume_set.clear()
                    break
                # An earlier-evicted returner may have missed commits
                # the last-standing member applied: wait for a
                # legitimate member to resume, then resync from it.
                yield self.DRAIN_POLL_INTERVAL
                continue
            partition.frozen = True
            try:
                if self.drain_on_rejoin:
                    yield from self._drain(partition.pid)
                # The surviving members can crash *during* the drain;
                # wait out a crashed primary's lease (its eviction
                # unblocks us one way or the other).
                while partition.members and self._primary_down(partition):
                    yield self.DRAIN_POLL_INTERVAL
                if not partition.members:
                    continue  # emptied under us: re-evaluate from the top
                if self.resync_on_rejoin:
                    try:
                        yield from self._resync(partition, site)
                    except DatabaseError:
                        # A crash interrupted the resync; the site
                        # stays offline and the next restart retries.
                        return
                break
            finally:
                partition.frozen = False
        partition.offline.discard(site)
        partition.members.append(site)
        partition.epoch += 1
        self.rejoins += 1
        self._trace_rejoin(partition, site)

    def _trace_rejoin(self, partition: Partition, site: str) -> None:
        trace = self.kernel.trace
        if trace.enabled:
            trace.emit(
                "partition_rejoin",
                "central",
                f"{partition.table}/p{partition.index}",
                joiner=site,
                epoch=partition.epoch,
            )

    def _primary_down(self, partition: Partition) -> bool:
        node = self.federation.nodes.get(partition.primary)
        return node is not None and node.crashed

    def _drain(self, pid: int) -> Generator[Any, Any, None]:
        """Wait until no coordinator is driving a transaction on ``pid``.

        Rejoin-time resyncs must not race an in-flight commit or an
        undo obligation bound to the old membership; new arrivals are
        held off by the frozen flag (they retry through the GTM).
        """
        while True:
            busy = any(
                pid in gtxn.partitions()
                for coordinator in self.federation.coordinators
                for gtxn in list(coordinator.active.values())
            )
            if not busy:
                return
            yield self.DRAIN_POLL_INTERVAL

    def _resync(self, partition: Partition, site: str) -> Generator[Any, Any, None]:
        """Reconcile the joiner's partition image with the primary's.

        The primary-side snapshot is a non-transactional page merge --
        sound because the partition is frozen and drained -- and the
        joiner-side fixup runs as one ordinary local transaction, so it
        is WAL-logged and survives later crashes of the joiner.
        """
        snapshot = self.table_records(partition.primary, partition.local_table)
        current = self.table_records(site, partition.local_table)
        engine = self.federation.engines[site]
        txn = engine.begin()
        changed = 0
        for key in current:
            if key not in snapshot:
                yield from engine.delete(txn, partition.local_table, key)
                changed += 1
        for key, value in snapshot.items():
            if key not in current:
                yield from engine.insert(txn, partition.local_table, key, value)
                changed += 1
            elif current[key] != value:
                yield from engine.write(txn, partition.local_table, key, value)
                changed += 1
        yield from engine.commit(txn)
        self.resynced_keys += changed

    def table_records(self, site: str, table: str) -> dict:
        """Current committed-ish records of one local table (peek-style).

        The same view as :meth:`Federation.peek`, table-wide.
        """
        engine = self.federation.engines[site]
        records: dict = {}
        for page_id in engine.catalog.heap(table).page_ids:
            page = engine.current_page(page_id)
            if page is not None:
                records.update(page.records)
        return records

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        return {
            "partitions": {
                f"{p.table}/p{p.index}": {
                    "epoch": p.epoch,
                    "primary": p.primary,
                    "members": list(p.members),
                    "offline": sorted(p.offline),
                }
                for p in self.map.partitions
            },
            "promotions": self.promotions,
            "evictions": self.evictions,
            "rejoins": self.rejoins,
            "resynced_keys": self.resynced_keys,
            "stale_rejections": self.stale_rejections,
            "unavailable_rejections": self.unavailable_rejections,
            "routed_reads": self.routed_reads,
            "routed_writes": self.routed_writes,
        }

    def __repr__(self) -> str:
        return (
            f"<DataPlane partitions={len(self.map.partitions)} "
            f"promotions={self.promotions} rejoins={self.rejoins}>"
        )
