"""CoordinatorPool: routing, rerouting, crash/failover bookkeeping."""

import zlib

import pytest

from repro.core.gtm import GTMConfig
from repro.core.invariants import atomicity_report, check_invariants, serializability_ok
from repro.core.pool import AllCoordinatorsDown
from repro.core.protocols import PROTOCOL_REGISTRY, preparable_protocols
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment

N_SITES = 3
N_KEYS = 16
#: Every account the transfers move money between (the battery's
#: ``conserved`` declaration).
ACCOUNTS = {(f"t{i}", f"k{j}"): 100 for i in range(N_SITES) for j in range(N_KEYS)}


def build(
    coordinators: int = 4,
    protocol: str = "2pc",
    granularity: str = "per_site",
    seed: int = 5,
    **knobs,
) -> Federation:
    preparable = protocol in preparable_protocols()
    specs = [
        SiteSpec(
            f"s{i}",
            tables={f"t{i}": {f"k{j}": 100 for j in range(N_KEYS)}},
            preparable=preparable,
        )
        for i in range(N_SITES)
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=seed,
            coordinators=coordinators,
            gtm=GTMConfig(protocol=protocol, granularity=granularity),
            **knobs,
        ),
    )


def transfer(n: int) -> list:
    """Two-site transfer; distinct keys per ``n`` (no lock conflicts)."""
    src, dst = n % N_SITES, (n + 1) % N_SITES
    return [
        increment(f"t{src}", f"k{n % 16}", -1),
        increment(f"t{dst}", f"k{n % 16}", 1),
    ]


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def test_hash_routing_is_crc32_of_gtxn_id():
    fed = build(coordinators=4)
    for name in ("G1", "alpha", "payment-77"):
        expected = zlib.crc32(name.encode()) % 4
        assert fed.pool.shard_of(name) == expected


def test_unknown_routing_rejected():
    # Routing is hash-only: there is no routing knob left to set.
    with pytest.raises(TypeError):
        FederationConfig(coordinators=2, coordinator_routing="bogus")


@pytest.mark.parametrize("coordinators", [0, -3])
def test_coordinator_count_must_be_positive(coordinators):
    with pytest.raises(ValueError, match="coordinators"):
        FederationConfig(coordinators=coordinators)


def test_single_coordinator_is_passthrough():
    fed = build(coordinators=1)
    assert len(fed.coordinators) == 1
    assert "central1" not in fed.nodes  # no extra nodes were created
    process = fed.submit(transfer(0))
    fed.run()
    assert process.value.committed
    # The seed's GTM naming, not the pool's routing namespace.
    assert process.value.gtxn_id == "G1"
    assert fed.pool.metrics() == fed.gtm.metrics()


def test_shards_spread_transactions():
    fed = build(coordinators=4)
    processes = [fed.submit(transfer(n)) for n in range(12)]
    fed.run()
    assert all(p.value.committed for p in processes)
    per_shard = [gtm.committed for gtm in fed.coordinators]
    assert sum(per_shard) == 12
    assert sum(1 for c in per_shard if c > 0) >= 2  # actually sharded
    assert atomicity_report(fed).ok
    assert serializability_ok(fed)


# ---------------------------------------------------------------------------
# Rerouting and total outage
# ---------------------------------------------------------------------------


def test_crashed_home_shard_reroutes_submission():
    fed = build(coordinators=2)
    name = "G1"
    home = fed.pool.shard_of(name)
    fed.coordinators[home].comm.node.crash()
    process = fed.pool.submit(transfer(0), name=name)
    fed.run()
    assert process.value.committed
    assert fed.pool.submissions_rerouted == 1
    peer = fed.coordinators[(home + 1) % 2]
    assert peer.committed == 1


def test_all_coordinators_down_raises():
    fed = build(coordinators=2)
    fed.coordinators[0].comm.node.crash()
    fed.coordinators[1].comm.node.crash()
    with pytest.raises(AllCoordinatorsDown):
        fed.pool.submit(transfer(0))
    with pytest.raises(AllCoordinatorsDown):
        fed.pool.live_coordinator()


def test_crash_is_idempotent():
    fed = build(coordinators=3)
    fed.coordinators[1].comm.node.crash()
    fed.coordinators[1].comm.node.crash()
    assert fed.pool.crashes == 1


# ---------------------------------------------------------------------------
# Crash + failover
# ---------------------------------------------------------------------------


#: Every registered protocol at its natural granularity, plus the
#: paper's commit-before per site.
ROWS = sorted((name, info.granularity) for name, info in PROTOCOL_REGISTRY.items())
ROWS.append(("before", "per_site"))

#: "": 3 shards, shard 1 killed for good.  "clean" / "lossy": 4 shards
#: on default links, then on reliable links that lose and duplicate
#: transmissions (the receiver filter is the only duplicate filter),
#: shard 1 -- and for paxos one of the F=1 acceptors -- killed at 8 and
#: restarted at 40, so the restart path runs on those links too.
LINKS = {
    "": None,
    "clean": {},
    "lossy": {"reliable": True, "loss_rate": 0.05, "dup_rate": 0.2},
}

ADOPTION_RACE = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1(b): the per-action adopter undoes an action whose "
    "execute_l0 is still in flight, and the late action then commits (needs fencing)",
)


def crash_rows() -> list:
    """``(protocol, granularity, links, drifts, id)`` per crash row."""
    rows = []
    for links in LINKS:
        for protocol, granularity in ROWS:
            # Per action, commit-before and its descendants drift (item
            # 1(b)); the 3-shard kill at 4.0 comes before the race for
            # the compensating ones.
            drifts = granularity == "per_action" and (links or protocol == "before")
            row_id = "-".join(filter(None, (protocol, granularity, links)))
            rows.append((protocol, granularity, links, drifts, row_id))
    return rows


def crash_mid_flight(protocol: str, granularity: str, links: str) -> Federation:
    """12 transfers, one arriving per time unit, while a shard dies."""
    if LINKS[links] is None:
        fed = build(coordinators=3, protocol=protocol, granularity=granularity)
        # The commit-before descendants crash earlier: at 6.0 they would
        # hit the adoption race (ROADMAP item 1(b)), not failover.
        compensating = protocol in ("saga", "altruistic")
        fed.crash_site(fed.coordinators[1].name, at=4.0 if compensating else 6.0)
    else:
        fed = build(
            coordinators=4, protocol=protocol, granularity=granularity, seed=7,
            metrics=True, spans=True, paxos_f=1, **LINKS[links],
        )
        victims = [fed.coordinators[1].name]
        if fed.acceptors is not None:
            victims.append(fed.acceptors.names[0])
        for victim in victims:
            fed.crash_site(victim, at=8.0)
            fed.restart_site(victim, at=40.0)
    fed.run_transactions(
        [{"operations": transfer(n), "delay": float(n)} for n in range(12)]
    )
    fed.run()  # drain failover stragglers
    return fed


@pytest.mark.parametrize("protocol,granularity,links,conserved", [
    pytest.param(protocol, granularity, links, None if drifts else ACCOUNTS, id=row_id)
    for protocol, granularity, links, drifts, row_id in crash_rows()
])
def test_mid_flight_crash_leaves_no_orphans(protocol, granularity, links, conserved):
    """The battery, conservation included where the row keeps it: the
    orphans (commit-before's per-site ones included, whose adopter
    re-drives their own logged inverses) are compensated, not left
    behind."""
    fed = crash_mid_flight(protocol, granularity, links)
    assert fed.pool.crashes == 1
    assert check_invariants(fed, conserved=conserved) == []
    if protocol in ("saga", "altruistic"):
        # They inherit commit-before's recovery policy.
        assert sum(gtm.recovery.redriven_undos for gtm in fed.coordinators) > 0


@ADOPTION_RACE
@pytest.mark.parametrize("protocol,granularity,links", [
    pytest.param(protocol, granularity, links, id=row_id)
    for protocol, granularity, links, drifts, row_id in crash_rows()
    if drifts
])
def test_mid_flight_crash_conserves_money(protocol, granularity, links):
    """Conservation on the rows that drift; the test above holds them
    to the rest of the battery."""
    fed = crash_mid_flight(protocol, granularity, links)
    assert check_invariants(fed, conserved=ACCOUNTS) == []


@pytest.mark.parametrize("at", [step / 2 for step in range(2, 41)])
def test_per_site_adopter_conserves_at_every_crash_instant(at):
    """Per-site commit-before, shard 1 killed at every half instant of
    the run: the adopter compensates the orphans' committed locals."""
    fed = build(
        coordinators=4, protocol="before", granularity="per_site", seed=7,
        metrics=True, spans=True,
    )
    fed.crash_site(fed.coordinators[1].name, at=at)
    fed.run_transactions(
        [{"operations": transfer(n), "delay": float(n)} for n in range(12)]
    )
    fed.run()
    assert check_invariants(fed, conserved=ACCOUNTS) == []


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1(b): the adopter reads action 1's marker at s1 as "
    "'not committed' while its execute_l0 is still in flight, undoes action 0, "
    "and the late action then commits (total 4801; needs fencing)",
)
def test_adoption_races_an_in_flight_action():
    """12 transactions, 3 coordinators, commit-before per action, shard 1
    crashes at t=6.0 -- the smallest known conservation drift with a
    clean atomicity report."""
    fed = build(coordinators=3, protocol="before", granularity="per_action")
    fed.crash_site(fed.coordinators[1].name, at=6.0)
    fed.run_transactions(
        [{"operations": transfer(n), "delay": float(n)} for n in range(12)]
    )
    fed.run()
    assert fed.pool.unresolved_orphans() == []
    assert atomicity_report(fed).ok  # only conservation sees it
    assert fed.peek("s1", "t1", "k0") == 100  # 101: the late action landed
    assert check_invariants(fed, conserved=ACCOUNTS) == []


def test_failover_redrives_hardened_commit():
    """A commit hardened before the crash must commit everywhere.

    With seed 5 / latency 1 the 2pc decision for ``T0`` hardens at
    t=9.2 (see the kernel trace); crashing its shard at t=9.7 leaves a
    hardened commit with unacknowledged sites.  The failover peer must
    read that decision from the shared log and redrive *commit* --
    presuming abort here would wrongly erase a durable decision.
    """
    fed = build(coordinators=2)
    name = shard1_name = None
    for i in range(100):
        candidate = f"T{i}"
        if fed.pool.shard_of(candidate) == 1:
            name = shard1_name = candidate
            break
    assert shard1_name is not None
    fed.pool.submit(transfer(0), name=name)
    fed.crash_site(fed.coordinators[1].name, at=9.7)
    fed.run()
    assert fed.coordinators[1].decision_log.decision_for(name) == "commit"
    # Both sites applied the transfer: nothing was presumed aborted.
    assert fed.peek("s0", "t0", "k0") == 99
    assert fed.peek("s1", "t1", "k0") == 101
    assert fed.pool.unresolved_orphans() == []
    assert atomicity_report(fed).ok


def test_double_crash_merges_into_running_adoption():
    """A re-crash mid-adoption merges orphans; no duplicate adopter.

    Unit-level check of the ``_start_failover`` guard: while shard 0's
    adoption process is draining its batch, a second crash of the same
    shard must fold the new orphans into that very batch -- spawning a
    second adoption would redrive transactions the running one is
    still settling.
    """
    fed = build(coordinators=3)
    pool = fed.pool
    first, second = object(), object()
    pool._adoption_running.add(0)  # an adoption is (notionally) running
    pool._adoptions[0] = {"X1": first}
    pool._pending_orphans.update({"X2": second})
    queued_before = fed.kernel.queued
    started_before = pool.failovers_started
    pool._start_failover()
    # Merged into the running batch, counted, and *no* process spawned.
    assert pool._adoptions[0] == {"X1": first, "X2": second}
    assert pool.failovers_started == started_before + 1
    assert pool._adoption_running == {0}
    assert fed.kernel.queued == queued_before
    assert pool._pending_orphans == {}


def test_double_crash_of_same_shard_converges():
    """Crash, restart, re-crash: adoption stays idempotent end to end.

    Shard 1 crashes with transactions in flight, its peer starts
    adopting, shard 1 restarts, accepts fresh work, and crashes again
    while the first adoption is still draining.  The second batch
    merges into the first; afterwards nothing may be double-driven,
    orphaned, or left in the adoption bookkeeping.
    """
    fed = build(coordinators=2)
    shard1 = [f"T{i}" for i in range(40)
              if fed.pool.shard_of(f"T{i}") == 1][:6]
    assert len(shard1) == 6

    def submitter(name: str, delay: float, n: int):
        yield delay
        outcome = yield fed.submit(transfer(n), name=name)
        return outcome

    # Four transactions in flight at the first crash; two more begin
    # at the reborn shard and are caught by the second crash.
    delays = [0.5, 2.0, 3.5, 4.5, 9.5, 10.0]
    processes = [
        fed.kernel.spawn(
            submitter(name, delays[i], i), name=f"client:{name}"
        )
        for i, name in enumerate(shard1)
    ]
    fed.crash_site(fed.coordinators[1].name, at=5.0)
    fed.restart_site(fed.coordinators[1].name, at=9.0)
    fed.crash_site(fed.coordinators[1].name, at=11.0)  # again, mid-adoption of batch 1
    fed.run()
    assert fed.pool.crashes == 2
    assert fed.pool.failovers_started == 2
    assert all(process.done for process in processes)
    assert fed.pool.unresolved_orphans() == []
    assert fed.pool._adoptions == {}
    assert fed.pool._adoption_running == set()
    assert atomicity_report(fed).ok
    assert serializability_ok(fed)


def test_restart_rejoins_the_pool():
    fed = build(coordinators=2)
    fed.crash_site(fed.coordinators[0].name, at=5.0)
    fed.restart_site(fed.coordinators[0].name, at=50.0)
    batches = [
        {"operations": transfer(n), "delay": 60.0 + n} for n in range(4)
    ]
    fed.run_transactions(batches)
    # Post-restart traffic reaches the reborn shard again.
    assert not fed.coordinators[0].crashed
    assert fed.coordinators[0].committed > 0
    assert fed.pool.unresolved_orphans() == []
    assert atomicity_report(fed).ok


def test_pool_metrics_aggregate_across_shards():
    fed = build(coordinators=2)
    for n in range(6):
        fed.submit(transfer(n))
    fed.run()
    merged = fed.pool.metrics()
    per_shard = [gtm.metrics() for gtm in fed.coordinators]
    assert merged["global_committed"] == sum(
        m["global_committed"] for m in per_shard
    )
    # Shared components are reported once (shard 0), not double-counted.
    assert merged["decision_forces"] == per_shard[0]["decision_forces"]
    for key in (
        "coordinator_crashes",
        "failovers_started",
        "submissions_rerouted",
        "unresolved_orphans",
    ):
        assert key in merged
    assert merged["unresolved_orphans"] == 0


def test_pool_metrics_are_shaped_like_one_gtms():
    """Every per-shard key survives the merge; only pool keys are added."""
    fed = build(coordinators=2)
    for n in range(6):
        fed.submit(transfer(n))
    fed.run()
    merged = fed.pool.metrics()
    per_shard = [gtm.metrics() for gtm in fed.coordinators]
    assert set(merged) - set(per_shard[0]) == {
        "coordinator_crashes", "failovers_started", "submissions_rerouted",
        "unresolved_orphans",
    }
    assert set(per_shard[0]) <= set(merged)
    for key in ("decision_size_flushes", "recovery_promotions_adopted"):
        assert merged[key] == sum(m[key] for m in per_shard)


def test_is_active_spans_shards_and_adoptions():
    fed = build(coordinators=2)
    name = "G1"
    shard = fed.pool.shard_of(name)
    fed.pool.submit(transfer(0), name=name)
    fed.kernel.run(until=2.0)  # mid-flight
    assert fed.pool.is_active(name)
    fed.coordinators[shard].comm.node.crash()
    # Now in-doubt: either pending or already adopted by the peer.
    assert fed.pool.is_active(name)
    fed.run()
    assert not fed.pool.is_active(name)
    assert fed.pool.unresolved_orphans() == []
