"""Federation instrumentation: feed the metrics registry from a run.

:class:`Observability` attaches to a built
:class:`~repro.integration.federation.Federation` and owns its
:class:`~repro.obs.metrics.MetricsRegistry`.  Almost everything is
*pull* -- a collector copies counters the system already maintains
(network, GTM, per-site engine/disk/log/locks) into the registry at
:meth:`collect` time, so the running simulation pays nothing.  Exactly
two opt-in hooks touch the hot path, both following the
``TraceLog.enabled`` single-attribute-test idiom:

* ``LockManager.hold_observer`` feeds the per-site L0 lock-hold
  histogram (re-attached after a site restart, which replaces the
  lock manager);
* ``StableDisk.trace_forces`` (span mode only) emits ``log_force``
  trace records so :func:`repro.obs.spans.build_spans` can build
  log-force spans.

The federation zeroes its counters and traces nothing while it loads
its initial data, so every reported number covers the run only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanForest, build_spans

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.integration.federation import Federation

#: GTM counters copied verbatim (labelled site="central").
_GTM_COUNTERS = (
    "global_committed", "global_aborted",
    "redo_executions", "undo_executions",
    "decision_forces", "decision_groups", "decisions_grouped",
    "decision_size_flushes", "decision_deadline_flushes",
    "recovery_passes", "recovery_resolved_indoubt",
    "recovery_redriven_redos", "recovery_redriven_undos",
    "recovery_orphans_terminated",
    "l1_waits", "l1_deadlocks",
)

_LOCAL_TERMINAL = ("committed", "aborted")


def _site_counters(engine: Any) -> dict[str, float]:
    locks = engine.locks
    return {
        "local_commits": engine.commits,
        "local_ops": engine.ops,
        "log_forces": engine.disk.log_forces,
        "log_records": engine.log.appended,
        "log_force_writes": engine.log.forced,
        "page_reads": engine.disk.page_reads,
        "page_writes": engine.disk.page_writes,
        "lock_grants": locks.grants,
        "lock_waits": locks.waits,
        "lock_releases": locks.releases,
        "lock_wait_time": locks.total_wait_time,
        "lock_hold_time": locks.total_hold_time,
        "deadlocks": locks.deadlocks,
        "lock_timeouts": locks.timeouts,
    }


class Observability:
    """Metrics + span instrumentation for one federation run."""

    def __init__(self, federation: "Federation", spans: bool = False):
        self.federation = federation
        self.registry = MetricsRegistry()
        self.protocol = federation.config.gtm.protocol
        self.spans_enabled = spans
        # Idempotent-scan cursors (collect() may run many times).
        # Outcome cursors are per coordinator shard: each shard appends
        # to its own outcome list.
        self._outcome_scan: dict[str, int] = {}
        self._trace_scan = 0
        self._ready_since: dict[tuple[str, str], float] = {}

        if spans:
            federation.kernel.trace.enabled = True  # spans are built from the record stream
            for engine in federation.engines.values():
                engine.disk.trace_forces = True

        for site in federation.engines:
            self._attach_lock_observer(site)
            # A restart replaces the site's LockManager: re-attach the
            # observer.
            federation.nodes[site].on_restart.append(self._restart_hook(site))

        self.registry.register_collector(self._collect)

    # -- hooks ----------------------------------------------------------

    def _attach_lock_observer(self, site: str) -> None:
        histogram = self.registry.histogram(
            "lock_hold", site=site, protocol=self.protocol
        )
        self.federation.engines[site].locks.hold_observer = (
            lambda _resource, hold, _h=histogram: _h.observe(hold)
        )

    def _restart_hook(self, site: str):
        def reattach() -> None:
            self._attach_lock_observer(site)
            if self.spans_enabled:
                self.federation.engines[site].disk.trace_forces = True
        return reattach

    # -- collection -----------------------------------------------------

    def collect(self) -> MetricsRegistry:
        """Run the collectors; returns the (now current) registry."""
        self.registry.collect()
        return self.registry

    def _collect(self) -> None:
        registry = self.registry
        protocol = self.protocol
        federation = self.federation

        network = federation.network
        for name, value in (
            ("messages_sent", network.sent),
            ("messages_delivered", network.delivered),
            ("messages_dropped", network.dropped),
            ("envelopes", network.envelopes),
            ("piggybacked", network.piggybacked),
        ):
            registry.counter(name, protocol=protocol).set_total(value)
        for kind, count in network.message_counts().items():
            registry.counter(
                "messages_by_kind", protocol=protocol, kind=kind
            ).set_total(count)
        for name, value in network.reliability_counts().items():
            if name == "unacked_in_flight":
                registry.gauge(name, protocol=protocol).set(value)
            else:
                registry.counter(name, protocol=protocol).set_total(value)
        for name, value in network.batching_counts().items():
            if name == "batch_window_now":
                # The adaptive controller's live window is a level, not
                # a count.
                registry.gauge(name, protocol=protocol).set(value)
            else:
                registry.counter(name, protocol=protocol).set_total(value)
        # Per-destination retry-budget exhaustion (site + protocol
        # labels): lets chaos runs assert on which site silently lost a
        # request, not just that *some* retry chain gave up.
        for dest, count in sorted(network.retransmit_budget_exhausted.items()):
            registry.counter(
                "retransmit_budget_exhausted", site=dest, protocol=protocol
            ).set_total(count)

        # One instrument set per coordinator shard; shard 0 keeps the
        # historical site="central" labels, so single-coordinator runs
        # are unchanged.
        for gtm in federation.coordinators:
            gtm_metrics = gtm.metrics()
            for name in _GTM_COUNTERS:
                registry.counter(name, site=gtm.name, protocol=protocol).set_total(
                    gtm_metrics[name]
                )
            for name in ("l1_wait_time", "l1_hold_time", "mean_response_time"):
                registry.gauge(name, site=gtm.name, protocol=protocol).set(
                    gtm_metrics[name]
                )

        for site, engine in federation.engines.items():
            for name, value in _site_counters(engine).items():
                registry.counter(name, site=site, protocol=protocol).set_total(value)
            registry.gauge("lock_max_hold_time", site=site, protocol=protocol).set(
                engine.locks.max_hold_time
            )
            registry.counter("crashes", site=site, protocol=protocol).set_total(
                engine.crashes
            )
            for reason, count in engine.aborts.items():
                if count:
                    registry.counter(
                        "local_aborts", site=site, protocol=protocol,
                        reason=reason.value,
                    ).set_total(count)

        # Response-time distribution over committed globals (all shards
        # feed the one histogram).
        response = registry.histogram("gtxn_response_time", protocol=protocol)
        for gtm in federation.coordinators:
            outcomes = gtm.outcomes
            for outcome in outcomes[self._outcome_scan.get(gtm.name, 0):]:
                if outcome.committed:
                    response.observe(outcome.response_time)
            self._outcome_scan[gtm.name] = len(outcomes)

        # Data-plane routing and membership (only when placement is on).
        dataplane = getattr(federation, "dataplane", None)
        if dataplane is not None:
            for name in (
                "promotions", "evictions", "rejoins", "resynced_keys",
                "stale_rejections", "unavailable_rejections",
                "routed_reads", "routed_writes",
            ):
                registry.counter(
                    f"dataplane_{name}", protocol=protocol
                ).set_total(getattr(dataplane, name))
            for partition in dataplane.map.partitions:
                labels = {
                    "partition": f"{partition.table}/p{partition.index}",
                    "protocol": protocol,
                }
                registry.gauge("partition_epoch", **labels).set(partition.epoch)
                registry.gauge("partition_members", **labels).set(
                    len(partition.members)
                )

        # In-doubt windows (§3): local ready -> terminal, from the trace.
        indoubt = registry.histogram("indoubt_window", protocol=protocol)
        trace = federation.kernel.trace
        for record in trace.select(category="txn_state", start=self._trace_scan):
            state = record.details.get("state")
            key = (record.site, record.subject)
            if state == "ready":
                self._ready_since.setdefault(key, record.time)
            elif state in _LOCAL_TERMINAL and key in self._ready_since:
                indoubt.observe(record.time - self._ready_since.pop(key))
        self._trace_scan = len(trace)

    # -- spans ----------------------------------------------------------

    def span_forest(self) -> SpanForest:
        """Build the span forest of the run so far."""
        return build_spans(self.federation.kernel.trace)

    def __repr__(self) -> str:
        return (
            f"<Observability protocol={self.protocol} "
            f"spans={'on' if self.spans_enabled else 'off'} "
            f"instruments={len(self.registry)}>"
        )
