"""Regression: buffered group decisions must die with their coordinator.

The bug: ``DecisionPipeline`` buffers commit decisions for up to
``pipeline_window`` before flushing them as one ``decide_group``.  A GTM
crash inside that window used to leave the scheduled ``_flush`` armed;
it would later fire on behalf of the dead coordinator, harden a commit
and message sites -- while a failover peer may already have presumed
those very transactions aborted from the (empty) decision log.

Now the pool's crash hook on the shard's node calls
``pipeline.crash()`` (dropping the buffers, counted in
``dropped_on_crash``) and ``_flush`` itself refuses to run for a
crashed GTM, so the only resolution path is the failover peer's
presumed abort.
"""

import zlib

import pytest

from repro.core.gtm import GTMConfig
from repro.core.invariants import atomicity_report
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment

#: Long enough that the commit decision is still buffered at crash time.
WINDOW = 50.0


def build(coordinators: int = 2) -> Federation:
    specs = [
        SiteSpec("s0", tables={"t0": {"k": 100}}, preparable=True),
        SiteSpec("s1", tables={"t1": {"k": 100}}, preparable=True),
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=11,
            coordinators=coordinators,
            gtm=GTMConfig(
                protocol="2pc", granularity="per_site", pipeline_window=WINDOW
            ),
        ),
    )


def shard1_name(n_shards: int) -> str:
    """A gtxn name that hash-routes to shard 1."""
    for i in range(100):
        name = f"T{i}"
        if zlib.crc32(name.encode()) % n_shards == 1:
            return name
    raise AssertionError("unreachable")


def test_buffered_decisions_dropped_not_flushed():
    fed = build(coordinators=2)
    name = shard1_name(2)
    shard = fed.coordinators[1]
    process = fed.submit(
        [increment("t0", "k", -5), increment("t1", "k", 5)], name=name
    )
    # Prepare completes within a few time units; the commit decision
    # then sits in the pipeline buffer until WINDOW elapses.  Crash the
    # shard squarely inside that window.
    fed.crash_site(fed.coordinators[1].name, at=20.0)
    fed.run()

    # The scenario materialized: decisions were buffered and dropped.
    assert shard.pipeline is not None
    assert shard.pipeline.dropped_on_crash >= 1
    # No posthumous flush hardened a commit for the dead coordinator.
    assert shard.decision_log.decision_for(name) != "commit"
    assert shard.pipeline.groups_sent == 0

    # The failover peer presumed abort and resolved every site.
    assert fed.pool.unresolved_orphans() == []
    assert fed.peek("s0", "t0", "k") == 100
    assert fed.peek("s1", "t1", "k") == 100
    assert atomicity_report(fed).ok
    # The submitter was interrupted, not left hanging.
    assert process.done


def test_stale_flush_timer_is_inert_after_crash():
    """The pre-armed ``_flush`` fires post-crash and must do nothing."""
    fed = build(coordinators=2)
    name = shard1_name(2)
    shard = fed.coordinators[1]
    fed.submit([increment("t0", "k", -1), increment("t1", "k", 1)], name=name)
    fed.crash_site(fed.coordinators[1].name, at=20.0)
    # Run well past decide-time + WINDOW: the flush timer has fired.
    fed.run(until=WINDOW * 3)
    fed.run()
    assert shard.pipeline.groups_sent == 0
    assert shard.comm.node.crashed
    # dropped_on_crash counts each buffered per-site decision exactly
    # once: one per participant site, never recounted by the stale
    # flush timer.
    assert shard.pipeline.dropped_on_crash == 2


def test_live_pipeline_still_groups():
    """Sanity: without a crash the pipeline path is unchanged."""
    fed = build(coordinators=1)
    processes = [
        fed.submit([increment("t0", "k", -1), increment("t1", "k", 1)])
        for _ in range(3)
    ]
    fed.run()
    assert all(p.value.committed for p in processes)
    assert fed.gtm.pipeline.groups_sent > 0
    assert fed.gtm.pipeline.dropped_on_crash == 0
