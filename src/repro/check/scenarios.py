"""Checkable scenarios: small federations with known-good invariants.

A :class:`CheckSpec` fully determines one system-under-test -- protocol,
workload, coordinator count, optional mutant -- and
:func:`build_scenario` turns it into a fresh federation plus the
submitter processes, ready for one controlled execution.  The spec
round-trips through a plain dict so a ``.repro.json`` counterexample
can rebuild the identical scenario in another process.

Workloads
---------
``transfers``
    Balanced cross-site increments (the chaos harness's conservation
    workload in miniature): commutative at L1 under the semantic table,
    so every protocol keeps all invariants under every interleaving.
``rw_cross``
    Two transactions writing the same two keys on two sites in opposite
    orders, submitted simultaneously.  The classic global-serializability
    counterexample of §3.3: only the L1 layer (or a prepared protocol's
    site locks held to the decision) forces a serial order.
``replicated``
    Balanced transfers over one partitioned global table placed across
    the sites (``partitions``/``replication`` on the spec), plus one
    intends-abort transaction to exercise replica-side undo.  Combined
    with crash-point enumeration this proves atomicity *and* replica
    convergence across every durable-force boundary.
``exposure``
    One cross-site writer plus a delayed single-site writer on the same
    key -- the Short-Commit hazard in miniature.  Run under the
    crash-point sweep, the crash that swallows a participant's vote
    turns the cross-site writer's decision into an abort *after* it
    short-released at the surviving site; the late writer must still be
    held off (downgraded shared lock) until that rollback completed, or
    its committed write gets clobbered (the ``dirty_undo`` invariant).

Mutants
-------
``no_l1_guard``
    Disables the L1 acquisition/release guard of the §3.3 protocols by
    removing the coordinators' L1 table -- the paper's counterexample of
    what goes wrong when local systems commit *before* the global
    decision without a global concurrency-control layer.  Under
    ``rw_cross`` this yields a committed non-serializable history on
    the very first schedule, which the checker must find, shrink and
    replay.
``stale_epoch``
    Disables the data plane's stale-epoch fencing *and* the rejoin-time
    drain/resync -- a replica that missed decisions while evicted
    rejoins with its old image and keeps accepting requests stamped
    with a superseded epoch.  Under ``replicated`` with crash points a
    surviving-replica divergence is the guaranteed symptom, which the
    replica-convergence invariant must flag.
``presume_commit``
    One-phase only: a missing or failed piggybacked vote is treated as
    a yes, and the decision skips the §3.2 redo obligation.  Under
    ``exposure`` with the crash-point sweep a participant that dies
    mid-execution yields a committed global with a lost local effect --
    an atomicity violation the checker must find.
``short_release_all``
    Short-Commit only: write locks are *released* at the start of the
    commit phase instead of downgraded to shared.  A concurrent writer
    can then overwrite the prepared value; if the exposer's decision
    turns out to be abort, its rollback restores the before-image over
    the writer's committed effect.  Under ``exposure`` with the
    crash-point sweep this yields a ``dirty_undo`` violation the
    checker must find.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.core.gtm import GTMConfig
from repro.core.protocols import (
    check_matrix,
    preparable_protocols,
    protocol_mutants,
)
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment, write
from repro.net.message import reset_message_ids

#: The protocol matrix the regression suite sweeps, derived from the
#: protocol registry: every ``in_check`` protocol with its natural
#: granularity, sorted by name.
CHECK_PROTOCOLS: list[tuple[str, str]] = check_matrix()

#: Cross-cutting seeded bugs plus the registry's protocol-specific
#: ones (``presume_commit`` targets one_phase, ``short_release_all``
#: targets short_commit).
MUTANTS = ("no_l1_guard", "stale_epoch") + tuple(sorted(protocol_mutants()))


@dataclass
class CheckSpec:
    """One fully-determined scenario for the exploration engine."""

    protocol: str = "before"
    granularity: str = "per_action"
    workload: str = "transfers"
    seed: int = 0
    n_sites: int = 2
    n_txns: int = 2
    coordinators: int = 1
    #: Paxos Commit only: acceptor-group fault tolerance (2F+1 built).
    paxos_f: int = 1
    mutant: str = ""
    #: Data-plane sharding: > 0 places one global table (``acct``)
    #: across the sites, each partition with ``replication`` members.
    partitions: int = 0
    replication: int = 1
    #: Group-decision pipeline window (0 = per-transaction decides,
    #: the seed path).  A positive window drives the checker through
    #: the size-or-deadline decision batching added for EXP-A6,
    #: including its Paxos acceptance-before-ack invariant.
    pipeline_window: float = 0.0
    #: Simulated-time ceiling of one execution; generous, because an
    #: exploration must never mistake a slow schedule for a hang.
    horizon: float = 20000.0

    def __post_init__(self) -> None:
        if self.mutant and self.mutant not in MUTANTS:
            raise ValueError(f"unknown mutant {self.mutant!r}")
        target = protocol_mutants().get(self.mutant)
        if target is not None and self.protocol != target:
            raise ValueError(
                f"mutant {self.mutant!r} targets protocol {target!r}, "
                f"not {self.protocol!r}"
            )
        if self.workload not in ("transfers", "rw_cross", "replicated", "exposure"):
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.workload == "replicated" and self.partitions < 1:
            raise ValueError("workload 'replicated' requires partitions >= 1")
        if self.mutant == "stale_epoch" and self.partitions < 1:
            raise ValueError("mutant 'stale_epoch' requires partitions >= 1")

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CheckSpec":
        return cls(**data)


@dataclass
class Scenario:
    """A built system-under-test, ready to run once."""

    spec: CheckSpec
    federation: Federation
    processes: list = field(default_factory=list)
    #: The cells the workload's balanced transfers conserve, with their
    #: initial values (``check_invariants``' ``conserved``); empty for
    #: workloads that overwrite.
    conserved: dict = field(default_factory=dict)


def _transfer_keys(spec: CheckSpec) -> list[str]:
    """One private key per transfer transaction, on distinct pages.

    Locking is page-granular at L0 (``buckets`` hash buckets per
    table), so two "disjoint" keys sharing a bucket still conflict --
    enough to distributed-deadlock simultaneously submitted transfers
    on every schedule.  Keys are picked so their buckets are pairwise
    distinct (until the table runs out of buckets, at which point
    collisions are unavoidable and accepted).
    """
    from repro.storage.heap import _stable_hash

    keys: list[str] = []
    used: set[int] = set()
    candidate = 0
    while len(keys) < spec.n_txns:
        key = f"g{candidate}"
        candidate += 1
        bucket = _stable_hash(key) % 8  # SiteSpec's default bucket count
        if bucket in used and len(used) < 8:
            continue
        used.add(bucket)
        keys.append(key)
    return keys


def _site_specs(spec: CheckSpec) -> list[SiteSpec]:
    preparable = spec.protocol in preparable_protocols()
    # "x"/"y" feed the rw_cross workload; the "g<n>" keys are the
    # transfer transactions' private, page-disjoint keys.
    rows = {"x": 100, "y": 100}
    for key in _transfer_keys(spec):
        rows[key] = 100
    return [
        SiteSpec(
            f"s{index}",
            tables={f"t{index}": dict(rows)},
            preparable=preparable,
        )
        for index in range(spec.n_sites)
    ]


def _transfer_batches(spec: CheckSpec) -> list[dict]:
    """Deterministic balanced transfers, all submitted at t=0.

    Simultaneous submission maximizes the same-instant frontier the
    scheduler gets to reorder; the amounts differ per transaction so a
    lost or doubled effect is visible in the balances, not just in the
    histories.
    """
    keys = _transfer_keys(spec)
    batches = []
    for index in range(spec.n_txns):
        src = index % spec.n_sites
        dst = (index + 1) % spec.n_sites
        amount = index + 1
        batches.append({
            "name": f"T{index}",
            "operations": [
                increment(f"t{src}", keys[index], -amount),
                increment(f"t{dst}", keys[index], amount),
            ],
        })
    return batches


def _replicated_batches(spec: CheckSpec) -> list[dict]:
    """Transfers over the placed table, plus one intends-abort.

    Distinct per-transaction keys live in one partitioned namespace;
    the final transaction intends to abort, exercising replica-side
    undo under whatever crash point the explorer lands on.
    """
    keys = _transfer_keys(spec)
    batches = []
    for index in range(spec.n_txns):
        amount = index + 1
        batches.append({
            "name": f"T{index}",
            "operations": [
                increment("acct", keys[index], -amount),
                increment("acct", keys[(index + 1) % len(keys)], amount),
            ],
            # The abort rides on the *undelayed* first transaction so
            # the staggered ones are real transfers a lost replica
            # write would visibly corrupt.
            "intends_abort": index == 0 and spec.n_txns > 1,
            # Staggered arrivals: later transactions decompose *during*
            # an early crash point's eviction window (post-promotion,
            # pre-rejoin), which is the only routing that can leave a
            # resync-less rejoiner behind -- the stale_epoch bait.
            "delay": index * 50.0,
        })
    return batches


def _rw_cross_batches(spec: CheckSpec) -> list[dict]:
    """The §3.3 write-write cross: opposite site orders, same instant."""
    return [
        {
            "name": "T0",
            "operations": [write("t0", "x", 1), write("t1", "y", 1)],
        },
        {
            "name": "T1",
            "operations": [write("t1", "y", 2), write("t0", "x", 2)],
        },
    ]


def _exposure_batches(spec: CheckSpec) -> list[dict]:
    """Staggered writers around one cross-site transaction's commit.

    ``T1`` writes the same key as ``T0`` and reaches it only once T0
    releases it -- the Short-Commit clobber victim.  ``T2`` is key- and
    page-disjoint from both but staggered so its second operation is in
    flight at ``t0`` when T0's commit record forces there -- under the
    crash-point sweep that puts a mid-execution site failure inside
    another transaction, the one-phase ``presume_commit`` window."""
    return [
        {
            "name": "T0",
            "operations": [write("t0", "x", 1), write("t1", "y", 1)],
        },
        {
            "name": "T1",
            "operations": [write("t0", "x", 2)],
            "delay": 2.0,
        },
        {
            "name": "T2",
            "operations": [write("t1", "g0", 3), write("t0", "g2", 3)],
            "delay": 6.5,
        },
    ]


def build_scenario(spec: CheckSpec) -> Scenario:
    """Build the federation and spawn the workload (nothing runs yet).

    The global message-id counter is reset first so two builds of the
    same spec -- in one process or across processes -- produce
    byte-identical traces and ``.repro.json`` files.
    """
    reset_message_ids()
    placement = None
    if spec.partitions > 0:
        from repro.dataplane import PlacementSpec

        placement = [
            PlacementSpec(
                table="acct",
                partitions=spec.partitions,
                replication=spec.replication,
                rows={key: 100 for key in _transfer_keys(spec)},
            )
        ]
    config = FederationConfig(
        seed=spec.seed,
        latency=1.0,
        coordinators=spec.coordinators,
        paxos_f=spec.paxos_f,
        placement=placement,
        gtm=GTMConfig(
            protocol=spec.protocol,
            granularity=spec.granularity,
            msg_timeout=50.0,
            pipeline_window=spec.pipeline_window,
        ),
    )
    federation = Federation(_site_specs(spec), config)
    if spec.mutant == "no_l1_guard":
        for gtm in federation.coordinators:
            gtm.l1 = None
    elif spec.mutant == "stale_epoch":
        federation.dataplane.fencing = False
        federation.dataplane.drain_on_rejoin = False
        federation.dataplane.resync_on_rejoin = False
    elif spec.mutant:
        # Registry-declared mutants are flags on the protocol class,
        # named like the mutant.
        for gtm in federation.coordinators:
            if not hasattr(gtm.protocol, spec.mutant):
                raise ValueError(
                    f"{type(gtm.protocol).__name__} has no {spec.mutant!r} flag"
                )
            setattr(gtm.protocol, spec.mutant, True)

    conserved = {}
    if spec.workload == "rw_cross":
        batches = _rw_cross_batches(spec)
    elif spec.workload == "exposure":
        batches = _exposure_batches(spec)
    elif spec.workload == "replicated":
        batches = _replicated_batches(spec)
        conserved = {("acct", key): 100 for key in _transfer_keys(spec)}
    else:
        batches = _transfer_batches(spec)
        conserved = {
            (f"t{site}", key): 100
            for site in range(spec.n_sites)
            for key in _transfer_keys(spec)
        }

    def submitter(batch: dict):
        if batch.get("delay"):
            yield batch["delay"]
        outcome = yield federation.submit(
            batch["operations"],
            name=batch["name"],
            intends_abort=batch.get("intends_abort", False),
        )
        return outcome

    processes = [
        federation.kernel.spawn(submitter(batch), name=f"check:{batch['name']}")
        for batch in batches
    ]
    return Scenario(
        spec=spec, federation=federation, processes=processes, conserved=conserved
    )
