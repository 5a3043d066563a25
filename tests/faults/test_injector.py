"""Fault injector."""

from repro.faults import FaultInjector
from repro.mlt.actions import increment
from tests.protocols.conftest import build_fed, submit_and_run


def test_probability_zero_never_fires():
    fed = build_fed("after")
    injector = FaultInjector(fed)
    injector.erroneous_aborts_after_ready(probability=0.0)
    outcome = submit_and_run(fed, [increment("t0", "x", 1)])
    assert outcome.committed
    assert injector.injected_aborts == 0


def test_probability_one_always_fires():
    fed = build_fed("after")
    injector = FaultInjector(fed)
    injector.erroneous_aborts_after_ready(probability=1.0, sites=["s0"], delay=0.2)
    submit_and_run(fed, [increment("t0", "x", 1)])
    assert injector.injected_aborts == 1


def test_2pc_ready_state_immune():
    """A prepared (ready) local may no longer be unilaterally aborted."""
    fed = build_fed("2pc")
    injector = FaultInjector(fed)
    injector.erroneous_aborts_after_ready(probability=1.0, delay=0.2)
    outcome = submit_and_run(fed, [increment("t0", "x", 1), increment("t1", "x", 1)])
    assert outcome.committed
    assert injector.injected_aborts == 0  # injector skips protocol == 2pc


def test_crash_and_recover_cycle():
    fed = build_fed("before", granularity="per_action", msg_timeout=10, poll=5.0)
    injector = FaultInjector(fed)
    injector.crash_site("s0", at=1.0, recover_after=30.0)
    fed.run(until=5.0)
    assert fed.nodes["s0"].crashed
    fed.run(until=60.0)
    assert not fed.nodes["s0"].crashed
    assert injector.injected_crashes == 1


def test_coordinator_crash_routes_through_the_pool_and_recovers():
    """A coordinator name crashes the GTM, so its restart brings it back."""
    fed = build_fed("2pc")
    name = fed.coordinators[0].name
    injector = FaultInjector(fed)
    injector.crash_site(name, at=1.0, recover_after=30.0)
    fed.run(until=5.0)
    assert fed.gtm.crashed and fed.nodes[name].crashed
    fed.run(until=60.0)
    assert not fed.gtm.crashed and not fed.nodes[name].crashed
    outcome = submit_and_run(fed, [increment("t0", "x", 1)])
    assert outcome.committed


def test_crash_traced():
    fed = build_fed("before")
    FaultInjector(fed).crash_site("s0", at=1.0)
    fed.run(until=10)
    faults = fed.kernel.trace.select(category="fault")
    assert faults and faults[0].details["kind"] == "crash"


def test_random_crashes_schedule_deterministic():
    def make():
        fed = build_fed("before", granularity="per_action", seed=5)
        injector = FaultInjector(fed)
        injector.random_crashes(["s0", "s1"], horizon=500, crash_rate=0.01, outage=20)
        fed.run(until=500)
        return [
            (r.time, r.site)
            for r in fed.kernel.trace.select(category="fault")
        ]

    assert make() == make()


def test_abort_subtxn_direct():
    fed = build_fed("before", granularity="per_site")
    injector = FaultInjector(fed)

    def killer():
        yield 4.0
        comm = fed.comms["s0"]
        for txn_id in comm._subtxns.values():
            injector.abort_subtxn("s0", txn_id)

    fed.kernel.spawn(killer())
    outcome = submit_and_run(
        fed, [increment("t0", "x", 1)] * 4 + [increment("t1", "x", 1)]
    )
    # Whether the GTM retried or aborted, the books must balance.
    from repro.core.invariants import atomicity_report

    assert atomicity_report(fed).ok
