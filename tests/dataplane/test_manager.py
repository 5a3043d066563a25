"""DataPlane manager tests: routing, promotion, fencing, rejoin."""

import pytest

from repro.core.gtm import GTMConfig
from repro.dataplane import PlacementSpec, PlacementUnavailable
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment, read


def build(
    sites: int = 3,
    partitions: int = 3,
    replication: int = 2,
    protocol: str = "2pc",
    granularity: str = "per_site",
    keys: int = 12,
) -> Federation:
    preparable = protocol in ("2pc", "2pc-pa", "3pc", "paxos")
    specs = [
        SiteSpec(f"s{i}", tables={}, preparable=preparable)
        for i in range(sites)
    ]
    placement = [
        PlacementSpec(
            table="acct",
            partitions=partitions,
            replication=replication,
            rows={f"k{j}": 100 for j in range(keys)},
        )
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=5,
            placement=placement,
            gtm=GTMConfig(protocol=protocol, granularity=granularity),
        ),
    )


def test_writes_fan_out_to_all_members_reads_to_primary():
    fed = build()
    dp = fed.dataplane
    partition = dp.map.partition_of("acct", "k0")

    routed = dp.routes(increment("acct", "k0", 1))
    assert [op.site for op in routed] == partition.members
    assert all(op.local_table == partition.local_table for op in routed)
    assert all(op.partition == partition.pid for op in routed)
    assert all(op.epoch == partition.epoch for op in routed)

    routed = dp.routes(read("acct", "k0"))
    assert [op.site for op in routed] == [partition.primary]
    assert dp.routed_writes == 1 and dp.routed_reads == 1


def test_frozen_and_memberless_partitions_are_unavailable():
    fed = build()
    dp = fed.dataplane
    partition = dp.map.partition_of("acct", "k0")
    partition.frozen = True
    with pytest.raises(PlacementUnavailable):
        dp.routes(increment("acct", "k0", 1))
    partition.frozen = False
    partition.offline.update(partition.members)
    partition.members.clear()
    with pytest.raises(PlacementUnavailable):
        dp.routes(increment("acct", "k0", 1))
    assert dp.unavailable_rejections == 2


def test_lease_expiry_promotes_replica_and_bumps_epoch():
    fed = build()
    dp = fed.dataplane
    victim = dp.map.partition(0).primary
    affected = [p for p in dp.map.partitions if victim in p.members]
    epochs = {p.pid: p.epoch for p in affected}

    fed.crash_site(victim, at=10.0)
    fed.run(until=10.0 + dp.LEASE_TIMEOUT / 2)
    # Leases have not expired yet: membership unchanged.
    assert all(victim in p.members for p in affected)

    fed.run(until=10.0 + dp.LEASE_TIMEOUT + 1.0)
    for partition in affected:
        assert victim not in partition.members
        assert victim in partition.offline
        assert partition.epoch == epochs[partition.pid] + 1
        assert partition.primary != victim
    # The victim was primary of some partitions and replica of others;
    # both cases remove it, but only the primary loss is a promotion.
    assert dp.promotions >= 1
    assert dp.promotions + dp.evictions == len(affected)


def test_returning_within_lease_keeps_membership():
    fed = build()
    dp = fed.dataplane
    victim = dp.map.partition(0).primary
    fed.crash_site(victim, at=10.0)
    fed.restart_site(victim, at=20.0)  # back before the 40.0 lease
    fed.run(until=100.0)
    assert all(victim not in p.offline for p in dp.map.partitions)
    assert dp.promotions == 0 and dp.evictions == 0 and dp.rejoins == 0


def test_stale_epoch_execution_is_fenced():
    fed = build()
    dp = fed.dataplane
    partition = dp.map.partition_of("acct", "k0")
    stale = dp.routes(increment("acct", "k0", 1))[0]
    partition.epoch += 1  # a membership change supersedes the stamp
    comm = fed.comms[stale.site]
    assert comm._stale_epoch(stale)
    assert dp.stale_rejections == 1
    fresh = dp.routes(increment("acct", "k0", 1))[0]
    assert not comm._stale_epoch(fresh)
    # Unstamped (non-placed) operations are never fenced.
    assert not comm._stale_epoch(increment("t0", "k0", 1))


def test_rejoin_drains_resyncs_and_readmits():
    fed = build()
    dp = fed.dataplane
    victim = dp.map.partition(0).primary
    memberships = len(dp.map.partitions_for_site(victim))

    fed.crash_site(victim, at=10.0)
    fed.run(until=60.0)  # leases expire at 50.0
    assert victim not in dp.map.partition(0).members

    # Diverge the survivors while the victim is out.
    outcome = fed.submit([increment("acct", "k0", 7), increment("acct", "k1", -7)])
    fed.run()
    assert outcome.value.committed

    fed.restart_site(victim, at=200.0)
    fed.run()
    for partition in dp.map.partitions_for_site(victim):
        assert victim in partition.members
        assert not partition.offline
        assert not partition.frozen
    assert dp.rejoins == memberships
    # The missed write was copied over during resync.
    for partition in dp.map.partitions:
        images = {
            site: dp.table_records(site, partition.local_table)
            for site in partition.members
        }
        assert len({repr(sorted(i.items())) for i in images.values()}) == 1


def test_metrics_shape():
    fed = build()
    metrics = fed.dataplane.metrics()
    assert set(metrics["partitions"]) == {"acct/p0", "acct/p1", "acct/p2"}
    for entry in metrics["partitions"].values():
        assert entry["epoch"] == 1
        assert len(entry["members"]) == 2
        assert entry["offline"] == []
    assert metrics["routed_writes"] == 0
    assert fed.metrics()["dataplane"]["promotions"] == 0
