"""Instrumentation wiring: hooks, baselines, restarts, fault counters."""

from repro.core.gtm import GTMConfig
from repro.faults.chaos import ChaosSpec, run_chaos
from repro.faults.injector import FaultInjector
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment


def build(metrics=True, spans=False, protocol="after", **gtm_extra):
    return Federation(
        [
            SiteSpec("s0", tables={"t0": {"x": 100}}),
            SiteSpec("s1", tables={"t1": {"x": 100}}),
        ],
        FederationConfig(
            seed=3, metrics=metrics, spans=spans,
            gtm=GTMConfig(protocol=protocol, **gtm_extra),
        ),
    )


TRANSFER = [increment("t0", "x", -10), increment("t1", "x", 10)]


class TestAttachment:
    def test_disabled_by_default(self):
        fed = Federation(
            [SiteSpec("s0", tables={"t0": {"x": 1}}),
             SiteSpec("s1", tables={"t1": {"x": 1}})],
            FederationConfig(seed=3),
        )
        assert fed.obs is None
        for engine in fed.engines.values():
            assert engine.locks.hold_observer is None
            assert engine.disk.trace_forces is False

    def test_metrics_mode_attaches_lock_observer_only(self):
        fed = build(metrics=True, spans=False)
        for engine in fed.engines.values():
            assert engine.locks.hold_observer is not None
            assert engine.disk.trace_forces is False

    def test_span_mode_turns_on_force_tracing(self):
        fed = build(metrics=True, spans=True)
        for engine in fed.engines.values():
            assert engine.disk.trace_forces is True


class TestCollection:
    def test_lock_hold_histogram_fed_by_observer(self):
        fed = build()
        fed.submit(TRANSFER)
        fed.run()
        registry = fed.obs.collect()
        histogram = registry.get("lock_hold", site="s0", protocol="after")
        assert histogram.count > 0
        assert histogram.mean > 0

    def test_site_counters_are_run_only(self):
        fed = build()
        fed.submit(TRANSFER)
        fed.run()
        registry = fed.obs.collect()
        # Exactly one local commit per site for one global transfer;
        # the setup loader commit is baselined away.
        assert registry.value("local_commits", site="s0", protocol="after") == 1
        assert registry.value("log_forces", site="s0", protocol="after") >= 1

    def test_collect_is_idempotent(self):
        fed = build()
        fed.submit(TRANSFER)
        fed.run()
        fed.obs.collect()
        first = fed.obs.registry.get("gtxn_response_time", protocol="after").count
        fed.obs.collect()
        fed.obs.collect()
        assert fed.obs.registry.get(
            "gtxn_response_time", protocol="after"
        ).count == first

    def test_network_and_gtm_counters_present(self):
        fed = build()
        fed.submit(TRANSFER)
        fed.run()
        registry = fed.obs.collect()
        assert registry.value("messages_sent", protocol="after") == fed.network.sent
        assert registry.value(
            "global_committed", site="central", protocol="after"
        ) == 1


class TestRestartReattachment:
    def test_observer_survives_crash_restart(self):
        fed = build(protocol="after", msg_timeout=20)
        fed.submit(TRANSFER)
        fed.run()
        before = fed.obs.registry.get("lock_hold", site="s0", protocol="after").count
        fed.crash_site("s0")
        fed.restart_site("s0", at=fed.kernel.now + 10)
        fed.run()
        # The restart replaced the LockManager: the observer must be
        # re-attached to the new instance.
        assert fed.engines["s0"].locks.hold_observer is not None
        fed.submit(TRANSFER)
        fed.run()
        after = fed.obs.registry.get("lock_hold", site="s0", protocol="after").count
        assert after > before

    def test_lock_counters_rebaselined_after_restart(self):
        fed = build(protocol="after", msg_timeout=20)
        fed.submit(TRANSFER)
        fed.run()
        fed.crash_site("s0")
        fed.restart_site("s0", at=fed.kernel.now + 10)
        fed.run()
        fed.submit(TRANSFER)
        fed.run()
        registry = fed.obs.collect()
        # The fresh LockManager starts at zero; with a zeroed baseline
        # the reported counter must never go negative.
        assert registry.value("lock_grants", site="s0", protocol="after") >= 0


class TestFaultCounterMigration:
    def test_injector_attributes_read_registry(self):
        fed = build(metrics=False)
        injector = FaultInjector(fed)
        assert injector.injected_aborts == 0
        injector._aborts.inc()
        assert injector.injected_aborts == 1
        assert injector.counters() == {
            "injected_aborts": 1,
            "injected_crashes": 0,
            "injected_partitions": 0,
        }

    def test_injector_shares_federation_registry(self):
        fed = build(metrics=True)
        injector = FaultInjector(fed)
        assert injector.registry is fed.obs.registry
        injector._crashes.inc()
        assert fed.obs.registry.value(
            "injected_crashes", protocol="after"
        ) == 1

    def test_injector_private_registry_without_obs(self):
        fed = build(metrics=False)
        injector = FaultInjector(fed)
        assert fed.obs is None
        assert injector.registry is not None

    def test_chaos_counters_keys_unchanged(self):
        spec = ChaosSpec(
            protocol="2pc", seed=1, n_txns=4, fault_horizon=100.0,
            resolution_horizon=1500.0, crash_rate=0.0, partition_count=0,
        )
        result = run_chaos(spec)
        for key in (
            "retransmissions", "injected_aborts", "injected_crashes",
            "injected_partitions", "recovery_passes",
        ):
            assert key in result.counters
        assert result.registry is not None
        assert result.registry.value(
            "injected_crashes", protocol="2pc"
        ) == result.counters["injected_crashes"]

    def test_chaos_metrics_mode_uses_federation_registry(self):
        spec = ChaosSpec(
            protocol="2pc", seed=1, n_txns=4, fault_horizon=100.0,
            resolution_horizon=1500.0, crash_rate=0.0, partition_count=0,
            metrics=True,
        )
        result = run_chaos(spec)
        assert result.registry is result.federation.obs.registry
