"""Deterministic chaos harness (EXP-R1).

One :func:`run_chaos` call builds a federation with reliable delivery
turned on, subjects it to a seeded randomized fault schedule -- message
loss, duplication, reordering, link partitions, crash/recover cycles
and (for commit-after) erroneous local aborts -- while a batch of
cross-site transfer transactions runs, then silences every fault source
at ``fault_horizon`` and lets the system run on a clean network until
``resolution_horizon``.

The workload is conservation-checking by construction: every
transaction moves value between accounts with balancing increments, so
a committed-or-fully-undone history leaves the global total untouched.
The aftermath is audited by the shared invariant battery,
:func:`~repro.core.invariants.check_invariants` -- atomicity, a
serializable committed history, **convergence** (every global
transaction reached a terminal state at every site within the
post-fault horizon), lock release, drained redo/undo logs, inverse
order, replica convergence and **conservation** (the run declares its
accounts, and the battery names each site's delta from their total).
Every crash is a :class:`~repro.faults.injector.CrashPoint`, the
checker's own crash type, and the run itself -- scheduled kills, run to
the horizon, audit -- is the checker's
:func:`~repro.check.engine.execute_and_audit` step, so a
:class:`ChaosResult` is an :class:`~repro.check.engine.ExecutionResult`
with the chaos figures added.

Everything is driven from named kernel RNG streams: the same
(protocol, seed) pair replays the identical schedule, which is what
makes a chaos failure debuggable from its kernel trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from repro.check.engine import ExecutionResult, execute_and_audit
from repro.core.gtm import GTMConfig
from repro.core.protocols import (
    chaos_matrix_protocols,
    preparable_protocols,
    redo_window_protocols,
)
from repro.faults.injector import CrashPoint, FaultInjector
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment

#: The protocol matrix every chaos seed is swept across, derived from
#: the protocol registry (every ``in_chaos`` protocol, sorted by name).
CHAOS_PROTOCOLS: list[tuple[str, str]] = chaos_matrix_protocols()

#: Initial balance of every account; the invariant is that the global
#: total never drifts from ``n_sites * keys_per_site * INITIAL_BALANCE``.
INITIAL_BALANCE = 1000


@dataclass
class ChaosSpec:
    """One seeded chaos schedule for one protocol configuration."""

    protocol: str
    granularity: str = "per_site"
    seed: int = 0
    n_sites: int = 3
    n_txns: int = 12
    keys_per_site: int = 4
    #: Transactions are submitted uniformly over ``[0, submit_spread]``.
    submit_spread: float = 150.0
    #: Faults are injected only before this time ...
    fault_horizon: float = 400.0
    #: ... and everything must be terminal by this one.
    resolution_horizon: float = 4000.0
    loss_rate: float = 0.05
    dup_rate: float = 0.05
    reorder_rate: float = 0.1
    crash_rate: float = 0.004
    outage: float = 60.0
    partition_count: int = 2
    erroneous_abort_rate: float = 0.2
    msg_timeout: float = 25.0
    #: Attach the observability registry to the run; the injector's
    #: fault counters then share it with the rest of the federation.
    metrics: bool = False
    #: Coordinator pool width; 1 is the classic single central GTM.
    coordinators: int = 1
    #: With ``coordinators`` > 1: crash this shard at this time (0 =
    #: no coordinator crash) and restart it after this outage (0 = the
    #: shard stays down; its peers carry the rest of the run).
    coordinator_crash_index: int = 1
    coordinator_crash_at: float = 0.0
    coordinator_outage: float = 0.0
    #: Paxos Commit only: acceptor-group fault tolerance (2F+1 built)
    #: and a scheduled kill of the first ``acceptor_crashes`` acceptors
    #: at ``acceptor_crash_at`` (0 = none).  They stay down
    #: (``ACCEPTOR_OUTAGE``): up to F crashes must not block anything.
    paxos_f: int = 1
    acceptor_crashes: int = 0
    acceptor_crash_at: float = 0.0
    #: Data-plane sharding: > 0 replaces the per-site tables with one
    #: partitioned global table (``acct``) placed across the sites,
    #: each partition carrying ``replication`` members.
    partitions: int = 0
    replication: int = 1
    #: Scheduled data-site crashes: kill the primaries of the first
    #: ``site_crashes`` distinct partitions at ``site_crash_at`` (0 =
    #: none), restarting each after ``replica_outage`` (0 = stays down).
    site_crashes: int = 0
    site_crash_at: float = 0.0
    replica_outage: float = 60.0
    #: Per-link message batching under chaos (0 = seed path).  The
    #: adaptive policy plus crashes exercises the outbox purge and the
    #: reliable-path retransmission of batched envelopes.
    batch_window: float = 0.0
    batch_policy: str = "static"
    batch_max_msgs: int = 0

    #: A cut link heals this long after the cut.
    PARTITION_DURATION = 40.0
    #: Killed acceptors are never restarted.
    ACCEPTOR_OUTAGE = 0.0
    #: Every ``intended_abort_every``-th submission intends to abort.
    intended_abort_every = 4


@dataclass(kw_only=True)
class ChaosResult(ExecutionResult):
    """Outcome and audit of one chaos run: the checker's verdicts plus
    the chaos figures."""

    spec: ChaosSpec
    #: Time from the fault silence to the last transaction finishing
    #: (0 when everything already resolved during the fault phase).
    time_to_resolution: float = 0.0
    counters: dict[str, Any] = field(default_factory=dict)
    #: The metrics registry the fault counters live on (the
    #: federation's with ``spec.metrics``, the injector's own without).
    registry: Any = field(default=None, repr=False)
    #: The live federation, kept for post-mortem trace dumps in tests.
    federation: Any = field(default=None, repr=False)


def _chaos_keys(spec: ChaosSpec) -> int:
    """Total account keys of a partitioned chaos run."""
    return spec.n_sites * spec.keys_per_site


def _accounts(spec: ChaosSpec) -> dict[tuple[str, str], int]:
    """Every account :func:`build_chaos_federation` opens, at its opening
    balance: what the transfers conserve."""
    if spec.partitions > 0:
        return {("acct", f"k{j}"): INITIAL_BALANCE for j in range(_chaos_keys(spec))}
    return {
        (f"t{i}", f"k{j}"): INITIAL_BALANCE
        for i in range(spec.n_sites)
        for j in range(spec.keys_per_site)
    }


def build_chaos_federation(spec: ChaosSpec) -> Federation:
    """A federation wired for one chaos run (reliable delivery on)."""
    needs_prepare = spec.protocol in preparable_protocols()
    accounts = _accounts(spec)
    placement = None
    if spec.partitions > 0:
        # One partitioned global table replaces the per-site tables; the
        # same money, now placed (and possibly replicated) by namespace.
        from repro.dataplane import PlacementSpec

        site_specs = [
            SiteSpec(f"s{i}", preparable=needs_prepare)
            for i in range(spec.n_sites)
        ]
        placement = [
            PlacementSpec(
                table="acct",
                partitions=spec.partitions,
                replication=spec.replication,
                rows={key: balance for (_, key), balance in accounts.items()},
            )
        ]
    else:
        tables: dict[str, dict[str, int]] = {}
        for (table, key), balance in accounts.items():
            tables.setdefault(table, {})[key] = balance
        site_specs = [
            SiteSpec(
                f"s{i}", tables={f"t{i}": tables[f"t{i}"]}, preparable=needs_prepare
            )
            for i in range(spec.n_sites)
        ]
    config = FederationConfig(
        seed=spec.seed,
        latency=1.0,
        loss_rate=spec.loss_rate,
        dup_rate=spec.dup_rate,
        reorder_rate=spec.reorder_rate,
        reliable=True,
        retransmit_timeout=6.0,
        batch_window=spec.batch_window,
        batch_policy=spec.batch_policy,
        batch_max_msgs=spec.batch_max_msgs,
        metrics=spec.metrics,
        coordinators=spec.coordinators,
        paxos_f=spec.paxos_f,
        placement=placement,
        gtm=GTMConfig(
            protocol=spec.protocol,
            granularity=spec.granularity,
            msg_timeout=spec.msg_timeout,
            status_poll_interval=8.0,
        ),
    )
    return Federation(site_specs, config)


def run_chaos(spec: ChaosSpec) -> ChaosResult:
    """Execute one seeded chaos schedule and audit the aftermath."""
    fed = build_chaos_federation(spec)
    kernel = fed.kernel
    injector = FaultInjector(fed)
    rng = kernel.rng.stream("chaos")
    sites = [f"s{i}" for i in range(spec.n_sites)]

    # -- fault schedule (all pre-sampled: independent of interleaving) --
    if spec.protocol in redo_window_protocols() and spec.erroneous_abort_rate:
        # Both §3.2-style protocols (commit-after and one-phase) leave
        # locals running past their vote, so an autonomous abort in the
        # window must be redone -- the fault that exercises that path.
        injector.erroneous_aborts_after_ready(
            probability=spec.erroneous_abort_rate, delay=0.3
        )
    injector.random_crashes(
        sites,
        horizon=spec.fault_horizon,
        crash_rate=spec.crash_rate,
        outage=spec.outage,
    )
    for _ in range(spec.partition_count):
        victim = sites[int(rng.uniform(0, len(sites))) % len(sites)]
        injector.partition_link(
            "central", victim,
            at=rng.uniform(0.0, spec.fault_horizon),
            heal_after=spec.PARTITION_DURATION,
        )

    def clear_faults() -> None:
        fed.network.loss_rate = 0.0
        fed.network.dup_rate = 0.0
        fed.network.reorder_rate = 0.0
        fed.network.heal()
        kernel.trace.emit("chaos", "harness", "faults_cleared")

    kernel.call_at(spec.fault_horizon, clear_faults)

    # -- scheduled crashes: coordinator shard, acceptors, data sites ---
    crashes: list[CrashPoint] = []
    if spec.coordinators > 1 and spec.coordinator_crash_at > 0:
        crashes.append(CrashPoint(
            fed.coordinators[spec.coordinator_crash_index].name,
            spec.coordinator_crash_at,
            spec.coordinator_outage,
        ))
    if spec.acceptor_crashes > 0 and spec.acceptor_crash_at > 0:
        if fed.acceptors is None:
            raise ValueError("acceptor_crashes requires protocol='paxos'")
        crashes.extend(
            CrashPoint(name, spec.acceptor_crash_at, spec.ACCEPTOR_OUTAGE)
            for name in fed.acceptors.names[: spec.acceptor_crashes]
        )
    if spec.partitions > 0 and spec.site_crashes > 0 and spec.site_crash_at > 0:
        # The first ``site_crashes`` distinct partition primaries.
        victims = list(dict.fromkeys(
            partition.primary for partition in fed.dataplane.map.partitions
        ))[: spec.site_crashes]
        crashes.extend(
            CrashPoint(victim, spec.site_crash_at, spec.replica_outage)
            for victim in victims
        )

    # -- conservation workload: balanced cross-site transfers ----------
    def transfer_ops(txn_rng) -> list:
        if spec.partitions > 0:
            total = _chaos_keys(spec)
            src_key = int(txn_rng.uniform(0, total)) % total
            hop = 1 + int(txn_rng.uniform(0, total - 1)) % (total - 1)
            amount = 1 + int(txn_rng.uniform(0, 9))
            dst_key = (src_key + hop) % total
            return [
                increment("acct", f"k{src_key}", -amount),
                increment("acct", f"k{dst_key}", amount),
            ]
        src = int(txn_rng.uniform(0, spec.n_sites)) % spec.n_sites
        hop = int(txn_rng.uniform(0, spec.n_sites)) % max(1, spec.n_sites - 1)
        dst = (src + 1 + hop) % spec.n_sites
        amount = 1 + int(txn_rng.uniform(0, 9))
        src_key = f"k{int(txn_rng.uniform(0, spec.keys_per_site)) % spec.keys_per_site}"
        dst_key = f"k{int(txn_rng.uniform(0, spec.keys_per_site)) % spec.keys_per_site}"
        return [
            increment(f"t{src}", src_key, -amount),
            increment(f"t{dst}", dst_key, amount),
        ]

    def submitter(index: int, delay: float) -> Generator[Any, Any, Any]:
        yield delay
        every = spec.intended_abort_every
        outcome = yield fed.submit(
            transfer_ops(rng), name=f"C{index}", intends_abort=index % every == every - 1
        )
        return outcome

    processes = [
        kernel.spawn(
            submitter(i, rng.uniform(0.0, spec.submit_spread)), name=f"chaos-submit:{i}"
        )
        for i in range(spec.n_txns)
    ]
    result = execute_and_audit(
        fed, spec.resolution_horizon, processes=processes,
        conserved=_accounts(spec), crashes=crashes,
        result=ChaosResult(spec=spec, registry=injector.registry, federation=fed),
    )

    last_finish = max(
        (
            outcome.finish_time
            for gtm in fed.coordinators
            for outcome in gtm.outcomes
            if outcome.finish_time is not None
        ),
        default=0.0,
    )
    result.time_to_resolution = max(0.0, last_finish - spec.fault_horizon)

    recovery = [gtm.recovery for gtm in fed.coordinators]
    result.counters = {
        **fed.network.reliability_counts(),
        **injector.counters(),
        **{
            f"recovery_{name}": sum(getattr(r, name) for r in recovery)
            for name in (
                "passes", "resolved_indoubt", "redriven_redos", "redriven_undos",
                "orphans_terminated",
            )
        },
        "coordinator_crashes": fed.pool.crashes,
        "takeovers_started": fed.pool.takeovers_started,
        "paxos_concluded": sum(r.concluded for r in recovery),
        "failovers": sum(r.failovers for r in recovery),
        "failover_resolved": sum(r.failover_resolved for r in recovery),
    }
    if fed.dataplane is not None:
        result.counters.update(
            (f"dataplane_{name}", getattr(fed.dataplane, name))
            for name in (
                "promotions", "evictions", "rejoins", "resynced_keys",
                "stale_rejections", "unavailable_rejections",
            )
        )
    return result
