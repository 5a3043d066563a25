"""Global transaction manager: configuration, retries, metrics."""

import pytest

from repro.core.gtm import GTMConfig
from repro.mlt.actions import increment, write
from repro.mlt.conflicts import READ_WRITE_TABLE, SEMANTIC_TABLE
from tests.protocols.conftest import build_fed, submit_and_run


def test_config_validates_granularity():
    with pytest.raises(ValueError):
        GTMConfig(granularity="per_galaxy")


def test_l1_table_resolution_defaults():
    assert GTMConfig(protocol="2pc").resolved_l1_table() is None
    assert GTMConfig(protocol="3pc").resolved_l1_table() is None
    assert GTMConfig(protocol="saga").resolved_l1_table() is None
    assert GTMConfig(protocol="after").resolved_l1_table() is READ_WRITE_TABLE
    assert GTMConfig(protocol="before").resolved_l1_table() is SEMANTIC_TABLE
    assert GTMConfig(protocol="altruistic").resolved_l1_table() is READ_WRITE_TABLE


def test_l1_table_override():
    config = GTMConfig(protocol="before", l1_table=READ_WRITE_TABLE)
    assert config.resolved_l1_table() is READ_WRITE_TABLE


def test_unknown_protocol_rejected():
    from repro.core.protocols.base import make_protocol

    with pytest.raises(ValueError):
        make_protocol("four_pc")


def test_gtxn_ids_sequential():
    fed = build_fed("before", granularity="per_action")
    p1 = fed.submit([increment("t0", "x", 1)])
    p2 = fed.submit([increment("t0", "y", 1)])
    fed.run()
    assert p1.value.gtxn_id == "G1"
    assert p2.value.gtxn_id == "G2"


def test_outcomes_recorded_with_counts():
    fed = build_fed("before", granularity="per_action")
    fed.submit([increment("t0", "x", 1)])
    fed.submit([increment("t0", "y", 1)], intends_abort=True)
    fed.run()
    assert fed.gtm.committed == 1
    assert fed.gtm.aborted == 1
    assert len(fed.gtm.outcomes) == 2


def test_metrics_shape():
    fed = build_fed("before", granularity="per_action")
    submit_and_run(fed, [increment("t0", "x", 1)])
    metrics = fed.gtm.metrics()
    assert metrics["global_committed"] == 1
    assert metrics["mean_response_time"] > 0
    assert "l1_hold_time" in metrics


def test_retry_on_l1_timeout_eventually_commits(monkeypatch):
    """An L1 timeout aborts the attempt; the GTM retries and wins."""
    from repro.core.gtm import GlobalTransactionManager
    from repro.integration.federation import Federation, FederationConfig, SiteSpec

    monkeypatch.setattr(GlobalTransactionManager, "L1_TIMEOUT", 8.0)
    fed = Federation(
        [SiteSpec("s0", tables={"t0": {"x": 100}})],
        FederationConfig(
            seed=3, gtm=GTMConfig(protocol="before", granularity="per_action")
        ),
    )
    fed.gtm.RETRY_BACKOFF = 2.0
    # A long writer holds the X lock; a second writer times out at L1,
    # retries after backoff, then succeeds.
    ops_long = [write("t0", "x", 1)] * 6
    p1 = fed.submit(ops_long, name="LONG")
    from tests.protocols.conftest import submit_delayed

    p2 = submit_delayed(fed, [write("t0", "x", 2)], delay=1.0, name="SHORT")
    fed.run()
    assert p1.value.committed
    assert p2.value.committed
    assert p2.value.attempts > 1


def test_retry_exhaustion_reports_abort(monkeypatch):
    from repro.core.gtm import GlobalTransactionManager
    from repro.integration.federation import Federation, FederationConfig, SiteSpec

    monkeypatch.setattr(GlobalTransactionManager, "L1_TIMEOUT", 3.0)
    fed = Federation(
        [SiteSpec("s0", tables={"t0": {"x": 100}})],
        FederationConfig(
            seed=3, gtm=GTMConfig(protocol="before", granularity="per_action")
        ),
    )
    fed.gtm.RETRY_ATTEMPTS = 1
    fed.gtm.RETRY_BACKOFF = 1.0

    def hog():
        # Hold the L1 lock directly, forever.
        yield from fed.gtm.l1.acquire("HOG", ("t0", "x"), READ_WRITE_TABLE.mode_for("write"))
        yield 10_000

    fed.kernel.spawn(hog())
    outcome = submit_and_run(fed, [write("t0", "x", 5)])
    assert not outcome.committed
    assert outcome.attempts == 2  # original + one retry


def test_routed_ops_recorded():
    fed = build_fed("after")
    outcome = submit_and_run(fed, [increment("t0", "x", 1), increment("t1", "x", 1)])
    assert outcome.routed_ops == [("s0", "increment"), ("s1", "increment")]
