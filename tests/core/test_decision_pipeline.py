"""DecisionPipeline size-or-deadline flush, adaptive window, paxos guard."""

import pytest

from repro.core.gtm import GTMConfig
from repro.errors import DurabilityOrderViolation
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment
from repro.sim.events import Future


def build(**gtm_kwargs) -> Federation:
    specs = [
        SiteSpec("s0", tables={"t0": {f"k{j}": 100 for j in range(8)}},
                 preparable=True, buckets=8),
        SiteSpec("s1", tables={"t1": {f"k{j}": 100 for j in range(8)}},
                 preparable=True, buckets=8),
    ]
    config = GTMConfig(protocol="2pc", granularity="per_site", **gtm_kwargs)
    return Federation(specs, FederationConfig(seed=11, gtm=config))


def transfers(fed, n):
    return [
        fed.submit(
            [increment("t0", f"k{i % 8}", -1), increment("t1", f"k{i % 8}", 1)],
            name=f"T{i}",
        )
        for i in range(n)
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        GTMConfig(pipeline_policy="magic")
    with pytest.raises(ValueError):
        GTMConfig(pipeline_max_group=-1)


def test_negative_pipeline_window_rejected():
    # Used to construct fine and silently build no pipeline at all.
    with pytest.raises(ValueError, match="negative flush window"):
        GTMConfig(pipeline_window=-1.0)


def test_size_trigger_flushes_full_group():
    # A window this long would stall every commit; the size trigger
    # must release full groups long before the deadline.
    fed = build(pipeline_window=500.0, pipeline_max_group=2)
    processes = transfers(fed, 4)
    fed.run()
    pipeline = fed.gtm.pipeline
    groups = pipeline.groups
    assert all(p.value.committed for p in processes)
    assert groups.size_flushes >= 1
    # Every group left on the size trigger; the scheduled deadlines all
    # fired stale (generation bumped) and flushed nothing.
    assert groups.deadline_flushes == 0
    assert pipeline.decisions_grouped == 2 * pipeline.groups_sent
    metrics = fed.gtm.metrics()
    assert metrics["decision_size_flushes"] == groups.size_flushes
    assert metrics["decision_deadline_flushes"] == groups.deadline_flushes


def test_deadline_flush_counts_partial_groups():
    fed = build(pipeline_window=1.0, pipeline_max_group=50)
    processes = transfers(fed, 3)
    fed.run()
    assert all(p.value.committed for p in processes)
    assert fed.gtm.pipeline.groups.deadline_flushes >= 1
    assert fed.gtm.pipeline.groups.size_flushes == 0


def test_static_policy_has_no_controller():
    fed = build(pipeline_window=1.0)
    assert fed.gtm.pipeline is not None
    assert fed.gtm.pipeline.groups.controller is None


def test_adaptive_policy_observes_and_outcomes_match_static():
    static = build(pipeline_window=2.0)
    static_procs = transfers(static, 8)
    static.run()
    adaptive = build(pipeline_window=2.0, pipeline_policy="adaptive")
    adaptive_procs = transfers(adaptive, 8)
    adaptive.run()
    controller = adaptive.gtm.pipeline.groups.controller
    assert controller is not None
    assert controller.observations > 0
    assert controller.floor == pytest.approx(0.25)
    # The adaptive deadline reschedules flushes, never outcomes.
    assert [p.value.committed for p in adaptive_procs] == [
        p.value.committed for p in static_procs
    ]


def test_adaptive_lone_decision_pays_no_window():
    # An idle site's group flushes at the end of the decision instant:
    # a lone transfer commits as fast as with no pipeline at all.
    unpipelined = build(pipeline_window=0.0)
    [plain] = transfers(unpipelined, 1)
    unpipelined.run()
    adaptive = build(pipeline_window=50.0, pipeline_policy="adaptive")
    [lone] = transfers(adaptive, 1)
    adaptive.run()
    assert lone.value.committed
    assert lone.value.response_time == plain.value.response_time
    assert adaptive.gtm.pipeline.groups.deadline_flushes == 2  # one per site


def test_adaptive_same_instant_decisions_share_one_group():
    fed = build(pipeline_window=50.0, pipeline_policy="adaptive")
    pipeline = fed.gtm.pipeline
    for i in range(2):
        fed.kernel.spawn(pipeline.decide("s0", f"G{i}", "commit", None))
    fed.run()
    assert pipeline.groups_sent == 1
    assert pipeline.decisions_grouped == 2
    assert fed.kernel.now < 50.0  # nobody waited out the window


def test_adaptive_decision_on_a_busy_site_waits_the_window():
    # The second transfer decides within 50 of the sites' first flush,
    # so its groups linger the window; the first lingered not at all.
    static = build(pipeline_window=50.0)
    static_procs = transfers(static, 2)
    static.run()
    adaptive = build(pipeline_window=50.0, pipeline_policy="adaptive")
    first, second = transfers(adaptive, 2)
    adaptive.run()
    assert first.value.response_time == pytest.approx(
        static_procs[0].value.response_time - 50.0
    )
    assert second.value.response_time >= 50.0
    assert adaptive.gtm.pipeline.groups.controller.observations == 4


def test_static_pipeline_lone_decision_still_waits_the_window():
    unpipelined = build(pipeline_window=0.0)
    [plain] = transfers(unpipelined, 1)
    unpipelined.run()
    static = build(pipeline_window=50.0)
    [lone] = transfers(static, 1)
    static.run()
    assert lone.value.response_time == pytest.approx(plain.value.response_time + 50.0)


def test_paxos_group_send_requires_chosen_decisions():
    """Defence in depth: pipelined forcing cannot outrun the acceptors.

    ``PaxosCommit`` delivers decisions directly, so nothing should ever
    reach ``_send_group`` without a majority-chosen value -- but if a
    future regression routes one there, the participant ack would
    precede durable acceptance.  The pipeline must refuse loudly.
    """
    fed = Federation(
        [
            SiteSpec("s0", tables={"t0": {"k": 100}}, preparable=True),
            SiteSpec("s1", tables={"t1": {"k": 100}}, preparable=True),
        ],
        FederationConfig(
            seed=11,
            gtm=GTMConfig(
                protocol="paxos", granularity="per_site", pipeline_window=5.0
            ),
        ),
    )
    pipeline = fed.gtm.pipeline
    assert pipeline is not None
    assert fed.gtm.acceptors is not None
    entries = [("T-unchosen", "commit", None, Future(label="test"))]
    sender = pipeline._send_group("s0", entries)
    with pytest.raises(DurabilityOrderViolation, match="T-unchosen"):
        next(sender)


def test_paxos_group_send_accepts_chosen_decisions():
    """The guard passes decisions the acceptor group actually chose."""
    fed = Federation(
        [
            SiteSpec("s0", tables={"t0": {"k": 100}}, preparable=True),
            SiteSpec("s1", tables={"t1": {"k": 100}}, preparable=True),
        ],
        FederationConfig(
            seed=11,
            gtm=GTMConfig(
                protocol="paxos", granularity="per_site", pipeline_window=5.0
            ),
        ),
    )
    process = fed.submit(
        [increment("t0", "k", -1), increment("t1", "k", 1)], name="T0"
    )
    fed.run()
    assert process.value.committed
    assert fed.gtm.acceptors.decision_for("T0") == "commit"
    # Replaying the committed decision through the group path does not
    # trip the guard (it advances into the send instead).
    entries = [("T0", "commit", None, Future(label="test"))]
    sender = fed.gtm.pipeline._send_group("s0", entries)
    next(sender)  # no DurabilityOrderViolation
