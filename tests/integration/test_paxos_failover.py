"""Paxos Commit under coordinator and acceptor crashes: non-blocking.

The tentpole property: a coordinator crash never leaves a transaction
blocked in doubt.  Undecided transactions of a crashed shard wait out
the takeover timeout, then a live peer finishes their consensus
instances at a higher ballot -- committing what the acceptor majority
already chose, aborting (through a takeover Phase 1 round, never by
silent presumption) what it did not.  Up to F simultaneous acceptor
crashes change nothing; beyond F the system stalls exactly until the
group heals back to a majority, then drains.
"""

import zlib

from repro.core.gtm import GTMConfig
from repro.core.invariants import (
    atomicity_report,
    check_invariants,
    serializability_ok,
)
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment

N_SITES = 3
N_KEYS = 8
HORIZON = 6000.0


def build(coordinators: int = 2, paxos_f: int = 1, seed: int = 3) -> Federation:
    specs = [
        SiteSpec(
            f"s{i}",
            tables={f"t{i}": {f"k{j}": 100 for j in range(N_KEYS)}},
            preparable=True,
        )
        for i in range(N_SITES)
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=seed,
            latency=1.0,
            coordinators=coordinators,
            paxos_f=paxos_f,
            gtm=GTMConfig(protocol="paxos", granularity="per_site"),
        ),
    )


def transfer(index: int) -> list:
    return [
        increment(f"t{index % N_SITES}", f"k{index % N_KEYS}", -1),
        increment(f"t{(index + 1) % N_SITES}", f"k{index % N_KEYS}", 1),
    ]


def submit_all(fed: Federation, n: int = 6, spacing: float = 5.0) -> list:
    def submitter(index: int):
        yield index * spacing
        outcome = yield fed.submit(transfer(index), name=f"G{index}")
        return outcome

    return [
        fed.kernel.spawn(submitter(index), name=f"client:{index}")
        for index in range(n)
    ]


def assert_converged(fed: Federation, processes: list) -> None:
    assert fed.pool.unresolved_orphans() == []
    assert all(process.done for process in processes)
    assert atomicity_report(fed).ok
    assert serializability_ok(fed)
    violations = check_invariants(fed, processes=processes)
    assert not violations, violations


def test_coordinator_crash_resolves_by_takeover():
    fed = build()
    processes = submit_all(fed)
    # G0..G3 hash to shard 1 (crc32 % 2): kill the shard with work.
    fed.crash_site(fed.coordinators[1].name, at=8.0)  # stays down for good
    fed.run(until=HORIZON)
    assert fed.pool.crashes == 1
    assert fed.pool.takeovers_started >= 1
    assert_converged(fed, processes)
    # The conservation audit: committed transfers balance out.
    total = sum(
        fed.peek(f"s{i}", f"t{i}", f"k{j}")
        for i in range(N_SITES)
        for j in range(N_KEYS)
    )
    assert total == N_SITES * N_KEYS * 100


def test_f_acceptor_crashes_with_coordinator_crash_still_resolve():
    fed = build(paxos_f=1)
    processes = submit_all(fed)
    fed.crash_site(fed.coordinators[1].name, at=8.0)
    fed.crash_site(fed.acceptors.names[0], at=8.0)  # F=1: one of three may die
    fed.run(until=HORIZON)
    assert_converged(fed, processes)


def test_takeover_counts_one_failover_per_hand_off():
    """Two orphans, one hand-off: ``failovers`` counts the batch.

    A takeover goes through the same adoption queue as every other
    protocol's orphans, so the recovery manager's ``failovers`` (the
    chaos harness's ``failovers`` counter) counts one per hand-off --
    not one per taken-over transaction -- while ``failover_resolved``
    still counts each settled orphan.
    """
    fed = build()
    names = [name for name in (f"T{i}" for i in range(40)) if fed.pool.shard_of(name) == 1]
    processes = [fed.submit(transfer(i), name=name) for i, name in enumerate(names[:2])]
    fed.crash_site(fed.coordinators[1].name, at=3.0)  # both still undecided
    fed.run(until=HORIZON)
    assert fed.pool.takeovers_started == 1
    assert fed.pool.failovers_started == 0  # a takeover, not an adoption
    assert sum(gtm.recovery.failovers for gtm in fed.coordinators) == 1
    assert sum(gtm.recovery.failover_resolved for gtm in fed.coordinators) == 2
    assert_converged(fed, processes)


def test_chosen_commit_survives_coordinator_crash():
    """A decision the acceptors chose is never presumed aborted.

    The home coordinator is killed right after the second acceptor
    force -- the instant the commit record reached a majority, before
    any site saw the decision.  The takeover leader must read commit
    from the majority and drive it to every site.
    """
    baseline = build(seed=9)
    outcomes = baseline.run_transactions(
        [{"operations": transfer(0), "name": "G0"}]
    )
    assert outcomes[0].committed
    force_times = sorted(
        record.time
        for record in baseline.kernel.trace.select(category="log_force")
        if record.site.startswith("acceptor")
    )
    assert len(force_times) == 3  # one ballot-0 acceptance per acceptor
    chosen_at = force_times[1]  # majority (F+1 = 2) reached here

    fed = build(seed=9)
    home = zlib.crc32(b"G0") % 2
    processes = submit_all(fed, n=1, spacing=0.0)
    fed.crash_site(fed.coordinators[home].name, at=chosen_at + 0.5)
    fed.run(until=HORIZON)
    assert fed.acceptors.decision_for("G0") == "commit"
    # Both sites applied the transfer: nothing was presumed aborted.
    assert fed.peek("s0", "t0", "k0") == 99
    assert fed.peek("s1", "t1", "k0") == 101
    assert_converged(fed, processes)


def test_undecided_transaction_aborts_via_takeover_phase1():
    """No consensus record yet -> the takeover *chooses* abort.

    Killing the home coordinator before any acceptor force leaves the
    instance empty; a majority of higher-ballot promises then proves
    ballot 0 can never complete, and the takeover proposes abort.  The
    abort is a chosen consensus value, readable forever after.
    """
    fed = build(seed=9)
    home = zlib.crc32(b"G0") % 2
    processes = submit_all(fed, n=1, spacing=0.0)
    fed.crash_site(fed.coordinators[home].name, at=2.0)  # before prepare completes
    fed.run(until=HORIZON)
    assert fed.acceptors.decision_for("G0") == "abort"
    assert fed.peek("s0", "t0", "k0") == 100  # nothing applied
    assert fed.peek("s1", "t1", "k0") == 100
    assert_converged(fed, processes)


def test_fast_path_abort_in_doubt_local_is_concluded():
    """A fast-path abort leaves no consensus record -- recovery concludes.

    s1 dies before voting, so the home coordinator aborts G0 without
    ever starting a consensus instance (presumed abort).  s0 -- already
    prepared -- applies the abort only volatilely, crashes, and its
    restart reinstates the prepared local.  No acceptor majority will
    ever answer and no takeover is pending (the home never crashed):
    the restart sweep must *conclude* the instance at a higher ballot,
    choosing abort, or the local blocks forever.
    """
    specs = [
        SiteSpec("s0", tables={"t0": {"k0": 100}}, preparable=True),
        SiteSpec("s1", tables={"t1": {"k0": 100}}, preparable=True),
    ]
    fed = Federation(
        specs,
        FederationConfig(
            seed=5, latency=1.0, coordinators=1, paxos_f=1,
            gtm=GTMConfig(protocol="paxos", granularity="per_site"),
        ),
    )

    def client():
        outcome = yield fed.submit(
            [increment("t0", "k0", -1), increment("t1", "k0", 1)], name="G0"
        )
        return outcome

    process = fed.kernel.spawn(client(), name="client")
    fed.crash_site("s1", at=7.0)  # prepared is sent; the vote dies here
    fed.crash_site("s0", at=65.0)  # after the volatile abort landed
    fed.restart_site("s0", at=100.0)
    fed.restart_site("s1", at=100.0)
    fed.run(until=HORIZON)
    assert process.done
    assert process.value.committed  # the retry attempt went through
    # Attempt G0's instance was concluded -- abort is *chosen*, durable.
    assert fed.gtm.recovery.concluded == 1
    assert fed.acceptors.decision_for("G0") == "abort"
    assert fed.acceptors.decision_for(process.value.gtxn_id) == "commit"
    assert fed.engines["s0"].active_txns() == []
    assert fed.peek("s0", "t0", "k0") == 99
    assert fed.peek("s1", "t1", "k0") == 101
    assert_converged(fed, [process])


def test_beyond_f_outage_blocks_then_drains_after_heal():
    fed = build(paxos_f=1)
    processes = submit_all(fed)
    fed.crash_site(fed.acceptors.names[0], at=5.0)
    fed.crash_site(fed.acceptors.names[1], at=5.0)  # 2 > F=1: majority unreachable
    fed.restart_site(fed.acceptors.names[0], at=300.0)
    fed.run(until=HORIZON)
    # Healed back to 2 of 3: everything must have drained.
    assert_converged(fed, processes)
    committed = sum(gtm.committed for gtm in fed.coordinators)
    assert committed == 6
    # The commits could only finish after the heal.
    finish_times = [
        outcome.finish_time
        for gtm in fed.coordinators
        for outcome in gtm.outcomes
    ]
    assert max(finish_times) > 300.0


def test_crash_site_routes_acceptor_names():
    fed = build(paxos_f=1)
    fed.crash_site("acceptor1")
    assert fed.acceptors.acceptors[1].node.crashed
    fed.restart_site("acceptor1")
    fed.run(until=50.0)
    assert not fed.acceptors.acceptors[1].node.crashed
