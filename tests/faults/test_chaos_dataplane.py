"""Chaos over the partitioned data plane: crashes, leases, convergence.

The partitioned chaos configuration replaces the per-site tables with
one hash-placed ``acct`` namespace; scheduled primary crashes drive
the lease/promotion/rejoin machinery while the usual network faults
run.  Every seeded schedule must end conserved, atomic, resolved --
and with every serving replica byte-equal to its primary.
"""

import pytest

from repro.faults import ChaosSpec, run_chaos

from .test_chaos import assert_chaos_ok


@pytest.mark.parametrize("protocol,granularity", [
    ("2pc", "per_site"),
    ("before", "per_action"),
    ("paxos", "per_site"),
])
@pytest.mark.parametrize("seed", [7, 11])
def test_chaos_partitioned_matrix(protocol, granularity, seed):
    result = run_chaos(ChaosSpec(
        protocol=protocol,
        granularity=granularity,
        seed=seed,
        n_sites=4,
        partitions=4,
        replication=2,
        site_crashes=1,
        site_crash_at=80.0,
    ))
    assert_chaos_ok(result)
    assert result.replicas_converged, result.violations
    assert result.committed + result.aborted == result.spec.n_txns


def test_chaos_partitioned_crash_exercises_failover():
    result = run_chaos(ChaosSpec(
        protocol="2pc",
        granularity="per_site",
        seed=5,
        n_sites=4,
        partitions=4,
        replication=2,
        site_crashes=2,
        site_crash_at=60.0,
        # Outlive the lease so evictions actually fire before restart.
        replica_outage=120.0,
    ))
    assert_chaos_ok(result)
    assert result.replicas_converged, result.violations
    counters = result.counters
    assert counters["dataplane_promotions"] + counters["dataplane_evictions"] >= 1
    assert counters["dataplane_rejoins"] >= 1


def test_chaos_partitioned_replays_deterministically():
    spec = ChaosSpec(
        protocol="before", granularity="per_action", seed=3,
        n_sites=4, partitions=4, replication=2,
        site_crashes=1, site_crash_at=70.0,
    )
    first = run_chaos(spec)
    second = run_chaos(spec)
    assert first.committed == second.committed
    assert first.aborted == second.aborted
    assert first.counters == second.counters
    assert first.federation.kernel.events_dispatched == \
        second.federation.kernel.events_dispatched


def test_chaos_unpartitioned_spec_unchanged():
    """partitions=0 must keep the legacy chaos path bit-for-bit."""
    legacy = run_chaos(ChaosSpec(protocol="2pc", granularity="per_site", seed=7))
    again = run_chaos(ChaosSpec(protocol="2pc", granularity="per_site", seed=7))
    assert legacy.counters == again.counters
    assert legacy.committed == again.committed
    assert "dataplane_promotions" not in legacy.counters
