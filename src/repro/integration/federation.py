"""Federation builder: assemble a whole integrated database system.

One call wires the kernel, the star network, the central node with its
communication manager and GTM, and one local node per
:class:`SiteSpec` -- engine, TM interface (standard or preparable),
local communication manager, crash/restart hooks -- then loads the
initial data.  Examples, tests and benchmarks all start here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.core.gtm import GlobalTransactionManager, GTMConfig
from repro.core.redo import COMMITLOG_TABLE
from repro.integration.comm_central import CentralCommunicationManager
from repro.integration.comm_local import LocalCommunicationManager
from repro.integration.schema import GlobalSchema, SchemaError
from repro.localdb.config import LocalDBConfig
from repro.localdb.engine import LocalDatabase
from repro.localdb.interface import PreparableTMInterface, StandardTMInterface
from repro.net.network import FixedLatency, Network
from repro.net.node import Node
from repro.sim.kernel import Kernel


@dataclass
class SiteSpec:
    """Description of one existing database system to integrate.

    ``tables`` maps local table names to their initial rows.
    ``preparable`` selects the modified TM interface needed by the
    2PC/3PC baselines; the default models the paper's unchangeable
    managers.
    """

    name: str
    tables: dict[str, dict[Any, Any]] = field(default_factory=dict)
    config: Optional[LocalDBConfig] = None
    preparable: bool = False
    buckets: int = 8


@dataclass
class FederationConfig:
    """Federation-wide knobs.

    Attributes
    ----------
    seed:
        Kernel seed; every random draw of a run derives from it.
    latency:
        Fixed one-way message delay on every link.
    loss_rate, dup_rate, reorder_rate:
        Per-transmission probabilities, each in ``[0, 1]``, of losing,
        duplicating or delaying a transmission (the delay is drawn up
        to :attr:`Network.REORDER_SPREAD
        <repro.net.network.Network.REORDER_SPREAD>`).  ``dup_rate > 0``
        needs ``reliable=True``: the reliable receiver is the only
        duplicate filter, so a site gets each transmission at most once.
    batch_window:
        ``> 0`` turns on per-link message batching: logical messages
        bound for the same site within the window share one physical
        envelope (one latency sample, one loss trial).  ``0`` (the
        default) is the seed's unbatched behaviour, message for message.
    batch_policy:
        ``"static"`` (fixed-delay flush) or ``"adaptive"`` (load-sensed
        window; an idle link flushes at the end of the instant).
    batch_max_msgs:
        Flush a link's envelope as soon as it holds this many messages
        (``0`` disables the size trigger).
    reliable:
        Acknowledge every transmission and retransmit unacked ones with
        capped exponential backoff (see :class:`~repro.net.network.Network`
        for the backoff constants); receivers suppress duplicates.
    retransmit_timeout:
        Delay before the first retransmission of an unacked transmission.
    log_placement:
        ``"indb"`` (commit markers in the local databases, durable) or
        ``"volatile"`` (in the communication managers' memory; EXP-A2).
        It also decides whether the GTM may query durable status on
        ambiguity.
    metrics, spans:
        Attach the observability registry; ``spans`` also records the
        span forest.  Both off (the default) installs no hook at all.
    coordinators:
        Number of commit coordinators (the sharded GTM pool), at least
        1; 1 is the paper's single central GTM.  Transactions are routed
        by CRC32 of their id.
    paxos_f:
        Paxos Commit fault tolerance: the decision survives ``paxos_f``
        acceptor crashes (``2 * paxos_f + 1`` acceptors are built).
        Only read by protocols with replicated decisions (``paxos``).
    placement:
        Data-plane placement: a list of
        :class:`~repro.dataplane.placement.PlacementSpec` declarations.
        ``None`` (the default) builds no data plane at all -- routing,
        execution and recovery stay byte-identical to the seed.
    gtm:
        The coordinators' :class:`~repro.core.gtm.GTMConfig`, shared by
        every pool shard and never modified.
    """

    seed: int = 0
    latency: float = 1.0
    loss_rate: float = 0.0
    batch_window: float = 0.0
    batch_policy: str = "static"
    batch_max_msgs: int = 0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    reliable: bool = False
    retransmit_timeout: float = 15.0
    log_placement: str = "indb"  # "indb" | "volatile"
    metrics: bool = False
    spans: bool = False
    coordinators: int = 1
    paxos_f: int = 1
    placement: Optional[list] = None
    gtm: GTMConfig = field(default_factory=GTMConfig)

    def __post_init__(self) -> None:
        if self.coordinators < 1:
            raise ValueError(f"coordinators must be >= 1, got {self.coordinators}")


class Federation:
    """A running integrated database system."""

    CENTRAL = "central"

    def __init__(self, site_specs: list[SiteSpec], config: Optional[FederationConfig] = None):
        self.config = config or FederationConfig()
        self.kernel = Kernel(seed=self.config.seed)
        self.network = Network(
            self.kernel,
            latency=FixedLatency(self.config.latency),
            loss_rate=self.config.loss_rate,
            batch_window=self.config.batch_window,
            batch_policy=self.config.batch_policy,
            batch_max_msgs=self.config.batch_max_msgs,
            dup_rate=self.config.dup_rate,
            reorder_rate=self.config.reorder_rate,
            reliable=self.config.reliable,
            retransmit_timeout=self.config.retransmit_timeout,
        )
        self.schema = GlobalSchema()
        self.engines: dict[str, LocalDatabase] = {}
        self.interfaces: dict[str, StandardTMInterface] = {}
        self.comms: dict[str, LocalCommunicationManager] = {}
        self.nodes: dict[str, Node] = {}

        central = Node(self.kernel, self.CENTRAL, is_central=True)
        self.central_comm = CentralCommunicationManager(self.kernel, self.network, central)
        self.gtm = GlobalTransactionManager(
            self.kernel, self.network, self.schema, self.central_comm, self.config.gtm
        )
        # The coordinator pool.  Shard 0 is the classic "central" GTM
        # above; extra shards (only built when ``coordinators`` > 1, so
        # the default wiring and its event schedule stay the seed's)
        # are peer central nodes sharing shard 0's L1 lock service and
        # central logs -- the shared durable storage that makes
        # failover sound.
        from repro.core.pool import CoordinatorPool

        self.coordinators: list[GlobalTransactionManager] = [self.gtm]
        for index in range(1, self.config.coordinators):
            peer_node = Node(self.kernel, f"central{index}", is_central=True)
            peer_comm = CentralCommunicationManager(self.kernel, self.network, peer_node)
            self.coordinators.append(
                GlobalTransactionManager(
                    self.kernel, self.network, self.schema, peer_comm,
                    self.config.gtm, share_from=self.gtm,
                )
            )
        self.pool = CoordinatorPool(self.kernel, self.coordinators)
        # The coordinator nodes join the network only now, after the
        # pool hooked their crashes: a shard's ``coordinator_crash``
        # record then precedes its outbox purge's ``message_drop`` ones.
        for gtm in self.coordinators:
            self.nodes[gtm.name] = self.network.add_node(gtm.comm.node)
        # The GTM's ambiguity resolution must match what the local
        # communication managers can actually answer: only in-database
        # commit markers survive a site crash.
        for gtm in self.coordinators:
            gtm.durable_status = self.config.log_placement == "indb"

        # Paxos coordinator mode: one shared 2F+1 acceptor group; every
        # shard's embedded leader speaks to the same ensemble.  Never
        # built on classic paths -- no extra nodes, no extra events.
        self.acceptors = None
        if self.gtm.protocol.replicated_decisions:
            from repro.core.paxos import AcceptorGroup

            self.acceptors = AcceptorGroup(
                self.kernel, self.network, self.config.paxos_f
            )
            for acceptor in self.acceptors.acceptors:
                self.nodes[acceptor.name] = acceptor.node
            for gtm in self.coordinators:
                gtm.acceptors = self.acceptors

        # Per-node end-of-outage time; overlapping crash schedules
        # extend it so stale restarts cannot resurrect a node early.
        self._outage_until: dict[str, float] = {}
        # Nodes with a restart spawned whose process has not run yet
        # (from then on ``Node.restarting`` guards): a second restart
        # landing at the same instant must no-op instead of running a
        # second, concurrent recovery pass.
        self._restarting: set[str] = set()

        for spec in site_specs:
            self._add_site(spec)

        # Data-plane placement: only built when configured, so every
        # default federation keeps the seed's exact wiring and event
        # schedule.  The DataPlane is shared -- coordinators consult it
        # at decompose time, sites fence stale epochs with it, and the
        # crash hooks below arm its promotion leases.
        self.dataplane = None
        if self.config.placement:
            from repro.dataplane import DataPlane, PlacementMap

            self.dataplane = DataPlane(
                self,
                PlacementMap(
                    self.config.placement, [spec.name for spec in site_specs]
                ),
            )
            for gtm in self.coordinators:
                gtm.dataplane = self.dataplane
            for comm in self.comms.values():
                comm.dataplane = self.dataplane
            for name in self.engines:
                self.nodes[name].on_crash.append(
                    lambda site=name: self.dataplane.on_site_crash(site)
                )

        self._load_initial_data(site_specs)

        # With both observability knobs off (the default) nothing is
        # created and no hook is installed.
        self.obs = None
        if self.config.metrics or self.config.spans:
            from repro.obs.instrument import Observability

            self.obs = Observability(self, spans=self.config.spans)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _add_site(self, spec: SiteSpec) -> None:
        engine = LocalDatabase(self.kernel, spec.name, spec.config)
        interface_cls = PreparableTMInterface if spec.preparable else StandardTMInterface
        interface = interface_cls(engine)
        node = self.network.add_node(Node(self.kernel, spec.name))
        comm = LocalCommunicationManager(
            self.kernel, self.network, node, interface,
            log_placement=self.config.log_placement,
        )
        node.on_crash.append(engine.crash)
        node.on_crash.append(comm.on_crash)
        node.on_restart.append(engine.restart)
        node.after_restart.append(lambda: self._recover_site(spec.name))
        self.engines[spec.name] = engine
        self.interfaces[spec.name] = interface
        self.comms[spec.name] = comm
        self.nodes[spec.name] = node
        # Default schema: every local table is visible globally under
        # the same name, placed on its site.  Conflicting names must be
        # mapped explicitly by the caller instead.
        for table in spec.tables:
            try:
                self.schema.map_table(table, spec.name, table)
            except SchemaError:
                pass  # caller maps ambiguous tables explicitly

    def _load_initial_data(self, site_specs: list[SiteSpec]) -> None:
        # Park the construction-time serve loops on their mailboxes.  The
        # site databases exist before the run: each table is built as its
        # final state, in no simulated time (see ``docs/performance.md``).
        self.kernel.run()
        trace = self.kernel.trace
        tracing, trace.enabled = trace.enabled, False
        for spec in site_specs:
            engine = self.engines[spec.name]
            if self.config.log_placement == "indb":
                # The commit-marker relation (in-DB log placement).
                engine.load_table(COMMITLOG_TABLE, 2, {})
            for table, rows in spec.tables.items():
                engine.load_table(table, spec.buckets, rows)
        if self.dataplane is not None:
            # Partition local tables: every member holds exactly the
            # partitions it serves (partial replication), each seeded
            # with that partition's slice of the global rows.
            for partition in self.dataplane.map.partitions:
                spec = self.dataplane.map.spec_for(partition.table)
                rows = self.dataplane.map.initial_rows(partition)
                for member in partition.members:
                    self.engines[member].load_table(
                        partition.local_table, spec.buckets, rows
                    )
        trace.enabled = tracing
        # Set-up is not part of any run: zero what it counted.
        self.kernel.events_dispatched = 0
        for engine in self.engines.values():
            engine.zero_counters()

    # ------------------------------------------------------------------
    # Running work
    # ------------------------------------------------------------------

    def submit(self, operations, name: Optional[str] = None, intends_abort: bool = False):
        """Submit a global transaction; returns its process.

        With ``coordinators`` > 1 the pool routes it to its home shard
        (CRC32 of the gtxn id); with one coordinator this is the seed's
        direct submission.
        """
        return self.pool.submit(operations, name=name, intends_abort=intends_abort)

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation."""
        return self.kernel.run(until=until)

    def run_transactions(self, batches: list[dict]) -> list:
        """Submit many global transactions at once and run to completion.

        Each batch dict holds ``operations`` plus optional ``name``,
        ``intends_abort`` and ``delay`` (submission time offset).
        Returns the outcomes in submission order.
        """
        processes = []

        def submitter(batch: dict) -> Generator[Any, Any, Any]:
            if batch.get("delay"):
                yield batch["delay"]
            outcome = yield self.pool.submit(
                batch["operations"],
                name=batch.get("name"),
                intends_abort=batch.get("intends_abort", False),
            )
            return outcome

        for batch in batches:
            processes.append(self.kernel.spawn(submitter(batch), name="submit"))
        self.kernel.run()
        return [p.value for p in processes]

    # ------------------------------------------------------------------
    # Fault control
    # ------------------------------------------------------------------

    def crash_site(self, name: str, at: Optional[float] = None) -> None:
        """Crash node ``name`` now or at simulated time ``at``.

        Data sites, coordinator shards and acceptors alike: each role's
        crash work hangs on its node (a coordinator's in-flight
        transactions go to a live peer, or to the shard itself on
        restart, from the shared central logs; an acceptor's stable
        state survives, and up to ``paxos_f`` may be down at once).
        """
        crash = self.nodes[name].crash
        if at is None:
            crash()
        else:
            self.kernel.call_at(at, crash)

    def hold_down(self, name: str, until: float) -> None:
        """Extend ``name``'s outage: restarts before ``until`` are ignored.

        Overlapping crash schedules extend (never shorten) each other --
        a crash landing inside another outage must not let the earlier
        outage's restart resurrect the node early.  Every
        :class:`~repro.faults.injector.CrashPoint` with a restart calls
        this as it lands.
        """
        current = self._outage_until.get(name, 0.0)
        self._outage_until[name] = max(current, until)

    def restart_site(self, name: str, at: Optional[float] = None) -> None:
        """Restart node ``name`` now or at simulated time ``at``.

        Idempotent: restarting a running node is a no-op, and a restart
        scheduled before the node's current outage ends (see
        :meth:`hold_down`) is ignored -- the outage that extended the
        downtime carries its own, later restart.  :meth:`Node.restart
        <repro.net.node.Node.restart>` recovers the node and then runs
        its role's duties.
        """
        node = self.nodes[name]

        def do_restart() -> None:
            if self.kernel.now < self._outage_until.get(name, 0.0):
                return  # a longer overlapping outage owns the restart
            if not node.crashed or node.restarting or name in self._restarting:
                return  # already up / already coming up: nothing to do
            self._restarting.add(name)
            self.kernel.spawn(self._restart(node), name=f"restart:{name}")

        if at is None:
            do_restart()
        else:
            self.kernel.call_at(at, do_restart)

    def _restart(self, node: Node) -> Generator[Any, Any, None]:
        """Run ``node``'s restart; its own ``restarting`` flag guards now."""
        self._restarting.discard(node.name)
        yield from node.restart()

    def _recover_site(self, name: str) -> Generator[Any, Any, None]:
        """A restarted site's duty: re-resolve its in-doubt globals."""
        # Recovery duty falls to a live coordinator: shard 0 when it is
        # up (the seed's exact path), else any live peer.
        if not self.gtm.crashed or len(self.coordinators) == 1:
            yield from self.gtm.recovery.recover_site(name)
        else:
            from repro.core.pool import AllCoordinatorsDown

            try:
                owner = self.pool.live_coordinator()
            except AllCoordinatorsDown:
                return  # the next coordinator restart re-sweeps
            yield from owner.recovery.recover_site(name)
        # Rejoin evicted partition memberships *after* global recovery
        # settled the site's in-doubt locals: the resync must reconcile
        # settled state, never race a pending decision.
        if self.dataplane is not None and not self.nodes[name].crashed:
            yield from self.dataplane.rejoin(name)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def peek(self, site: str, table: str, key: Any) -> Any:
        """Non-transactional peek at the current committed-ish value.

        Reads the page :meth:`LocalDatabase.current_page
        <repro.localdb.engine.LocalDatabase.current_page>` shows; for
        assertions in tests and experiments only.
        """
        engine = self.engines[site]
        page = engine.current_page(engine.catalog.heap(table).page_of(key))
        return page.get(key) if page is not None else None

    def locate(self, table: str, key: Any) -> tuple[str, str]:
        """The (site, local table) a *global* object lives at now.

        Resolves data-plane placements to the partition primary and
        schema placements to their site.
        """
        if self.dataplane is not None and self.dataplane.manages(table):
            partition = self.dataplane.map.partition_of(table, key)
            return partition.primary, partition.local_table
        placement = self.schema.placement(table, key)
        return placement.site, placement.local_table

    def peek_global(self, table: str, key: Any) -> Any:
        """Peek a *global* object wherever it lives (see :meth:`locate`)."""
        site, local_table = self.locate(table, key)
        return self.peek(site, local_table, key)

    def metrics(self) -> dict[str, Any]:
        """Combined metrics of GTM, network and all sites."""
        report = {
            "gtm": self.pool.metrics(),
            "network": {
                "sent": self.network.sent,
                "delivered": self.network.delivered,
                "dropped": self.network.dropped,
                "envelopes": self.network.envelopes,
                "piggybacked": self.network.piggybacked,
                "by_kind": self.network.message_counts(),
                "reliability": self.network.reliability_counts(),
            },
            "sites": {site: engine.metrics() for site, engine in self.engines.items()},
        }
        if len(self.coordinators) > 1:
            report["coordinators"] = {
                gtm.name: gtm.metrics() for gtm in self.coordinators
            }
        if self.acceptors is not None:
            report["acceptors"] = self.acceptors.metrics()
        if self.dataplane is not None:
            report["dataplane"] = self.dataplane.metrics()
        if self.obs is not None:
            report["obs"] = self.obs.registry.as_dict()
        report["totals"] = {
            "log_forces": sum(e.disk.log_forces for e in self.engines.values()),
            "lock_wait_time": sum(
                e.locks.total_wait_time for e in self.engines.values()
            ),
            "lock_hold_time": sum(
                e.locks.total_hold_time for e in self.engines.values()
            ),
            "local_commits": sum(e.commits for e in self.engines.values()),
            "local_aborts": {
                reason.value: sum(e.aborts[reason] for e in self.engines.values())
                for reason in next(iter(self.engines.values())).aborts
            }
            if self.engines
            else {},
        }
        return report

    def report(self):
        """The §4 cost table for this run (requires ``metrics=True``)."""
        from repro.obs.report import RunReport

        return RunReport.from_federation(self)

    def __repr__(self) -> str:
        return f"<Federation sites={sorted(self.engines)} protocol={self.gtm.config.protocol}>"
