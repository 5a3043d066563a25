"""End-to-end failover: primary crash mid-traffic, promotion, rejoin.

Balanced transfers run against a replicated placement while the
primary of partition 0 crashes and later restarts.  Afterwards every
global transaction must be resolved, money conserved, atomicity intact
and every serving replica byte-equal to its primary -- under both a
prepared protocol (2PC) and the paper's commit-before discipline.
"""

import pytest

from benchmarks.bench_s2_dataplane import measure_failover
from repro.core.gtm import GTMConfig
from repro.core.invariants import (
    atomicity_report,
    replica_convergence_violations,
)
from repro.dataplane import PlacementSpec
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment

N_SITES, N_KEYS, N_TXNS = 4, 16, 24
INITIAL = 100


def build(protocol: str, granularity: str) -> Federation:
    preparable = protocol in ("2pc", "2pc-pa", "3pc", "paxos")
    specs = [
        SiteSpec(f"s{i}", tables={}, preparable=preparable)
        for i in range(N_SITES)
    ]
    placement = [
        PlacementSpec(
            table="acct",
            partitions=N_SITES,
            replication=2,
            rows={f"k{j}": INITIAL for j in range(N_KEYS)},
        )
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=23,
            placement=placement,
            gtm=GTMConfig(
                protocol=protocol, granularity=granularity, msg_timeout=50.0
            ),
        ),
    )


@pytest.mark.parametrize("protocol,granularity", [
    ("2pc", "per_site"),
    ("3pc", "per_site"),
    ("before", "per_action"),
    ("paxos", "per_site"),
])
def test_primary_crash_failover(protocol, granularity):
    fed = build(protocol, granularity)
    dp = fed.dataplane
    victim = dp.map.partition(0).primary

    fed.crash_site(victim, at=60.0)
    fed.restart_site(victim, at=260.0)
    batches = [
        {
            "operations": [
                increment("acct", f"k{index % N_KEYS}", -1),
                increment("acct", f"k{(index + 1) % N_KEYS}", 1),
            ],
            "name": f"F{index}",
            "delay": index * 12.0,  # spans crash, eviction and rejoin
        }
        for index in range(N_TXNS)
    ]
    outcomes = fed.run_transactions(batches)
    fed.run()  # drain recovery + rejoin stragglers

    assert all(outcome is not None for outcome in outcomes)
    assert sum(1 for o in outcomes if o.committed) >= N_TXNS - 2
    assert not fed.pool.unresolved_orphans()
    assert atomicity_report(fed).ok
    assert replica_convergence_violations(fed) == []
    # Balanced transfers: the global balance is conserved exactly.
    total = sum(fed.peek_global("acct", f"k{j}") for j in range(N_KEYS))
    assert total == N_KEYS * INITIAL

    assert dp.promotions >= 1, "lease expiry never promoted a replica"
    assert dp.rejoins >= 1, "the victim never rejoined its partitions"
    assert victim in dp.map.partition(0).members


def test_benchmark_failover_row_promotes_rejoins_and_converges():
    """EXP-S2's failover row: the 8-site open-loop run it measures."""
    row = measure_failover("2pc", "per_site")
    assert row["promotions"] >= 1 and row["rejoins"] >= 1
    assert row["unresolved_indoubt"] == 0
    assert row["atomicity_ok"] and row["replicas_converged"]


def test_failover_without_replicas_blocks_until_restart():
    """replication=1: no failover target -- the partition waits.

    Transactions touching the crashed primary's keys cannot finish
    until it returns; atomicity must still hold afterwards, with no
    promotion (there is nothing to promote).
    """
    specs = [SiteSpec(f"s{i}", tables={}, preparable=True) for i in range(3)]
    fed = Federation(
        specs,
        FederationConfig(
            seed=29,
            placement=[PlacementSpec(
                table="acct", partitions=3, replication=1,
                rows={f"k{j}": INITIAL for j in range(6)},
            )],
            gtm=GTMConfig(protocol="2pc", granularity="per_site"),
        ),
    )
    dp = fed.dataplane
    victim = dp.map.partition(0).primary
    fed.crash_site(victim, at=30.0)
    fed.restart_site(victim, at=400.0)
    outcomes = fed.run_transactions([
        {
            "operations": [
                increment("acct", f"k{j}", -1),
                increment("acct", f"k{(j + 1) % 6}", 1),
            ],
            "delay": j * 10.0,
        }
        for j in range(6)
    ])
    fed.run()
    assert all(outcome is not None for outcome in outcomes)
    assert not fed.pool.unresolved_orphans()
    assert atomicity_report(fed).ok
    assert dp.promotions == 0
    total = sum(fed.peek_global("acct", f"k{j}") for j in range(6))
    assert total == 6 * INITIAL
