"""Federation-level features: partitioned schemas, metrics, determinism."""


from repro.core.gtm import GTMConfig
from repro.core.protocols.base import ProtocolContext
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.integration.schema import Placement
from repro.mlt.actions import increment, read


def build_partitioned(protocol: str = "before") -> Federation:
    """One logical 'customers' table partitioned over two sites."""
    fed = Federation(
        [
            SiteSpec("east", tables={"customers": {"alice": 10, "carol": 30}}),
            SiteSpec("west", tables={"customers": {"walter": 20, "zoe": 40}}),
        ],
        FederationConfig(
            seed=8, gtm=GTMConfig(protocol=protocol, granularity="per_action")
        ),
    )
    # The auto-mapping took "customers" -> east (first site); replace it
    # with an explicit partitioning by first letter.
    fed.schema._single.pop("customers")
    fed.schema.map_partitioned(
        "customers",
        lambda key: Placement("east" if str(key) < "m" else "west", "customers"),
    )
    return fed


def test_partitioned_table_routes_by_key():
    fed = build_partitioned()
    process = fed.submit(
        [
            read("customers", "alice"),
            read("customers", "zoe"),
            increment("customers", "carol", 5),
            increment("customers", "walter", -5),
        ]
    )
    fed.run()
    outcome = process.value
    assert outcome.committed
    assert outcome.reads == {"customers['alice']": 10, "customers['zoe']": 40}
    assert outcome.sites == ["east", "west"]
    assert fed.peek("east", "customers", "carol") == 35
    assert fed.peek("west", "customers", "walter") == 15


def test_partitioned_abort_undoes_both_partitions():
    fed = build_partitioned()
    process = fed.submit(
        [
            increment("customers", "carol", 5),
            increment("customers", "walter", -5),
        ],
        intends_abort=True,
    )
    fed.run()
    assert not process.value.committed
    assert fed.peek("east", "customers", "carol") == 30
    assert fed.peek("west", "customers", "walter") == 20


def test_metrics_report_structure():
    fed = build_partitioned()
    fed.submit([increment("customers", "carol", 1)])
    fed.run()
    metrics = fed.metrics()
    assert metrics["gtm"]["global_committed"] == 1
    assert metrics["network"]["sent"] > 0
    assert set(metrics["sites"]) == {"east", "west"}
    assert metrics["totals"]["local_commits"] >= 1
    assert "lock_hold_time" in metrics["totals"]


def test_identical_seeds_identical_outcomes():
    def once():
        fed = build_partitioned()
        processes = [
            fed.submit([increment("customers", "carol", i)]) for i in range(3)
        ]
        fed.run()
        return [
            (p.value.committed, round(p.value.response_time, 6)) for p in processes
        ] + [fed.network.sent, fed.peek("east", "customers", "carol")]

    assert once() == once()


def test_run_transactions_convenience_returns_in_submission_order():
    fed = build_partitioned()
    outcomes = fed.run_transactions(
        [
            {"operations": [increment("customers", "carol", 1)], "name": "A"},
            {"operations": [increment("customers", "zoe", 1)], "name": "B", "delay": 5},
        ]
    )
    assert [o.gtxn_id for o in outcomes] == ["A", "B"]
    assert all(o.committed for o in outcomes)


def test_setup_resets_clock_to_zero():
    fed = build_partitioned()
    assert fed.kernel.now == 0.0


def test_peek_reads_buffer_then_disk():
    fed = build_partitioned()
    assert fed.peek("east", "customers", "alice") == 10
    assert fed.peek("east", "customers", "missing") is None


def test_shared_gtm_config_keeps_each_federations_durable_status():
    """A GTMConfig shared by two federation configs is never rewritten.

    The volatile federation's communication managers cannot confirm a
    forward commit after a crash, so its recovery must not re-drive
    undos through a durable ``status_query`` -- even when a sibling
    in-database config built later shares the very same GTMConfig.
    """
    shared = GTMConfig(protocol="before", granularity="per_site")
    volatile = FederationConfig(log_placement="volatile", gtm=shared)
    FederationConfig(gtm=shared)
    fed = Federation([SiteSpec("s0", tables={"t0": {"x": 100}})], volatile)
    assert fed.gtm.durable_status is False
    fed.gtm.undo_log.record(
        "G9", "s0",
        increment("t0", "x", 5).routed("s0", "t0"),
        increment("t0", "x", -5).routed("s0", "t0"),
    )
    ctx = ProtocolContext.from_record(fed.gtm, "G9", site="s0")
    fed.kernel.spawn(fed.gtm.protocol.after_site_restart(ctx, "s0"))
    fed.run()
    assert "status_query" not in fed.network.message_counts()
    assert fed.gtm.recovery.redriven_undos == 0
    assert fed.peek("s0", "t0", "x") == 100
