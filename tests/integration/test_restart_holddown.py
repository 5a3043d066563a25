"""Restart / hold-down edges: idempotence and deterministic ordering.

The bugs these pin down: a restart scheduled *before* an overlapping
crash extended the outage used to resurrect the site early, and two
restarts landing at the same instant used to run the §3.1 recovery
sweep twice (double-redriving in-doubt decisions).  Both orderings of
``hold_down`` vs ``restart_site`` must behave identically, restarting
a running site must be a no-op, and concurrent restarts must fold into
one recovery pass.  The same edges hold for every role that lives on a
node -- data site, coordinator shard and Paxos acceptor -- since they
all crash and restart through it.
"""

import pytest

from repro.core.gtm import GTMConfig
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment


def build(protocol: str = "2pc", coordinators: int = 1) -> Federation:
    specs = [
        SiteSpec("s0", tables={"t0": {"k": 100}}, preparable=True),
        SiteSpec("s1", tables={"t1": {"k": 100}}, preparable=True),
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=4, coordinators=coordinators, gtm=GTMConfig(protocol=protocol)
        ),
    )


def sample(fed: Federation, at: float, name: str = "s0"):
    """Record ``name``'s crashed flag at simulated time ``at``."""
    box: list[bool] = []
    fed.kernel.call_at(at, lambda: box.append(fed.nodes[name].crashed))
    return box


def test_restart_of_running_site_is_noop():
    fed = build()
    passes_before = fed.gtm.recovery.passes
    fed.restart_site("s0")  # immediate, site is up
    fed.restart_site("s0", at=5.0)
    fed.run()
    assert not fed.nodes["s0"].crashed
    # No spurious recovery sweep ran for a site that never went down.
    assert fed.gtm.recovery.passes == passes_before


def test_holddown_then_restart_is_ignored():
    """Ordering 1: the hold-down exists before the restart fires."""
    fed = build()
    fed.crash_site("s0", at=10.0)
    fed.hold_down("s0", until=100.0)
    fed.restart_site("s0", at=50.0)  # inside the hold-down: ignored
    fed.restart_site("s0", at=120.0)
    mid = sample(fed, 60.0)
    late = sample(fed, 130.0)
    fed.run()
    assert mid == [True]  # still down at t=60
    assert late == [False]  # the post-hold-down restart went through


def test_restart_scheduled_before_holddown_is_ignored_too():
    """Ordering 2: the restart was scheduled first, hold-down second.

    The check happens when the restart *fires*, so scheduling order
    must not matter -- only simulated-time order does.
    """
    fed = build()
    fed.crash_site("s0", at=10.0)
    fed.restart_site("s0", at=50.0)  # scheduled before the hold-down call
    fed.hold_down("s0", until=100.0)
    fed.restart_site("s0", at=120.0)
    mid = sample(fed, 60.0)
    late = sample(fed, 130.0)
    fed.run()
    assert mid == [True]
    assert late == [False]


def test_overlapping_holddowns_extend_never_shorten():
    fed = build()
    fed.crash_site("s0", at=10.0)
    fed.hold_down("s0", until=200.0)
    fed.hold_down("s0", until=80.0)  # shorter: must not shrink the outage
    fed.restart_site("s0", at=100.0)  # inside the surviving hold-down
    fed.restart_site("s0", at=220.0)
    mid = sample(fed, 110.0)
    fed.run()
    assert mid == [True]
    assert not fed.nodes["s0"].crashed


def test_double_restart_runs_recovery_once():
    """Two restarts at the same instant fold into one recovery pass."""
    fed = build()
    process = fed.submit([increment("t0", "k", -1), increment("t1", "k", 1)])
    fed.crash_site("s0", at=1.0)
    fed.restart_site("s0", at=40.0)
    fed.restart_site("s0", at=40.0)  # duplicate schedule, same instant
    fed.run()
    assert not fed.nodes["s0"].crashed
    assert process.done
    # Exactly one §3.1 sweep for the restart, not two racing ones.
    assert fed.gtm.recovery.passes == 1


def test_restart_after_restart_completes_is_noop():
    fed = build()
    fed.crash_site("s0", at=1.0)
    fed.restart_site("s0", at=20.0)
    fed.restart_site("s0", at=60.0)  # site already back up: no-op
    fed.run()
    assert not fed.nodes["s0"].crashed
    assert fed.gtm.recovery.passes == 1


# ---------------------------------------------------------------------------
# Every role: a data site, a coordinator shard and a Paxos acceptor
# ---------------------------------------------------------------------------

ROLES = ["s0", "central1", "acceptor0"]


def build_roles() -> Federation:
    """Two coordinator shards and a 3-acceptor group next to the sites."""
    return build(protocol="paxos", coordinators=2)


def count_restarts(fed: Federation, name: str) -> list[float]:
    """Record the instants at which ``name``'s node restart runs."""
    node = fed.nodes[name]
    calls: list[float] = []
    restart = node.restart

    def counted():
        calls.append(fed.kernel.now)
        return restart()

    node.restart = counted
    return calls


@pytest.mark.parametrize("name", ROLES)
def test_holddown_defers_the_restart_of_every_role(name):
    fed = build_roles()
    fed.crash_site(name, at=10.0)
    fed.hold_down(name, until=100.0)
    fed.restart_site(name, at=50.0)  # inside the hold-down: ignored
    fed.restart_site(name, at=120.0)
    mid = sample(fed, 60.0, name)
    late = sample(fed, 130.0, name)
    fed.run()
    assert mid == [True]
    assert late == [False]


@pytest.mark.parametrize("name", ROLES)
def test_same_instant_restarts_of_every_role_fold_into_one(name):
    fed = build_roles()
    calls = count_restarts(fed, name)
    fed.crash_site(name, at=1.0)
    fed.restart_site(name, at=40.0)
    fed.restart_site(name, at=40.0)  # duplicate schedule, same instant
    fed.run()
    assert not fed.nodes[name].crashed
    assert calls == [40.0]


@pytest.mark.parametrize("name", ROLES)
def test_restart_of_every_running_role_is_noop(name):
    fed = build_roles()
    server = fed.nodes[name].server
    calls = count_restarts(fed, name)
    fed.restart_site(name)  # immediate, the node is up
    fed.restart_site(name, at=5.0)
    fed.run()
    assert not fed.nodes[name].crashed
    assert calls == []
    assert fed.nodes[name].server is server


@pytest.mark.parametrize("name", ROLES)
def test_restarted_role_serves_from_a_fresh_live_server(name):
    fed = build_roles()
    node = fed.nodes[name]
    old = node.server
    assert old.alive
    fed.crash_site(name, at=10.0)
    fed.restart_site(name, at=40.0)
    fed.run()
    assert not node.crashed
    assert not old.alive
    assert node.server is not old
    assert node.server.alive
    assert node.server.name == old.name
