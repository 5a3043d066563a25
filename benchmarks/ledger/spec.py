"""What the ledger reports: metric names, units, directions, bounds.

The single source for ``BENCHMARK.json`` (``benchmark_json()``; a
self-test keeps the committed file equal to it) and for the README
glossary.  ``moves`` on a per-layer metric is the prediction, written
before measuring, of which end-to-end metric it should move and on
which workload.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.core.protocols import PROTOCOL_REGISTRY

from benchmarks.ledger.workloads import WORKLOADS

RUN_SECONDS = 24


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: end-to-end: share of the parent's median it may worsen by;
    #: per-layer: ``None`` (no bound).
    bound: Optional[float]
    moves: str


END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25,
           "federation construction + input generation of one round "
           "(sum over cells of each cell's lower quartile over the rounds)"),
    Metric("wall_us_per_commit", "us", "lower", 0.25,
           "timed wall of a round / transactions committed in it, both phases "
           "(sum over cells of each cell's lower quartile over the rounds)"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10,
           "ru_maxrss of the workload's own process"),
    Metric("sim_p50_response", "u", "lower", 0.05,
           "median scheduled-arrival -> commit latency, nominal phase, protocols pooled"),
    Metric("sim_p99_response", "u", "lower", 0.05,
           "p99 of the same sample (sample count printed beside it)"),
    Metric("sim_slo_met_share", "share", "higher", 0.005,
           "nominal arrivals committed within the workload's latency limit / arrivals "
           "not meant to abort; a failed, shed or late arrival is a miss"),
    Metric("sim_goodput", "commits/u", "higher", 0.05,
           "committed / makespan in the saturated phase, mean over protocols"),
    Metric("sim_max_commit_gap", "u", "lower", 0.05,
           "longest commit-free interval between first arrival and last completion, "
           "nominal phase, max over protocols (time without service)"),
    Metric("served_share", "share", "higher", 0.005,
           "arrivals that committed or aborted by intent / arrivals, both phases "
           "(1 - failed share: victims, timeouts, cascades, interrupted all count as failed)"),
]

#: layer -> the ``repro`` source paths (relative to the package) it owns,
#: in report order.
LAYER_PATHS = [
    ("sim", ("sim/",)),
    ("net", ("net/",)),
    ("storage", ("storage/",)),
    ("localdb", ("localdb/",)),
    ("mlt", ("mlt/",)),
    ("core.gtm", ("core/gtm.py", "core/global_txn.py", "core/redo.py", "core/undo.py")),
    ("core.protocols", ("core/protocols/", "baselines/")),
    ("core.recovery", ("core/recovery.py",)),
    ("core.paxos", ("core/paxos.py",)),
    ("core.pool", ("core/pool.py",)),
    ("integration", ("integration/",)),
    ("dataplane", ("dataplane/",)),
    ("obs", ("obs/",)),
    ("faults", ("faults/",)),
    ("workloads", ("workloads/",)),
]
LAYERS = [layer for layer, _ in LAYER_PATHS]


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to (``None``: not the system's)."""
    _, found, inside = filename.replace("\\", "/").rpartition("/repro/")
    if not found:
        return None
    for layer, prefixes in LAYER_PATHS:
        if inside.startswith(prefixes):
            return layer
    return None


_WALL_ALL = "wall_us_per_commit on every workload"
_CONTENDED = "sim_p99_response, sim_slo_met_share, sim_goodput, served_share on contended_mix"
_SHARDED = "sim_p50_response, wall_us_per_commit on replicated_sharded"
_CRASH = "sim_max_commit_gap, sim_p99_response, served_share on crash_recovery; 0 elsewhere"


def per_layer() -> list[Metric]:
    """Every per-layer metric, in report order."""

    def m(name, unit, better, moves):
        return Metric(name, unit, better, None, moves)

    metrics = []
    for layer in LAYERS:
        metrics.append(m(f"{layer}.self_us_per_commit", "us", "lower",
                         f"{_WALL_ALL} where {layer} runs; never a sim_* metric"))
        metrics.append(m(f"{layer}.calls_in_per_commit", "count", "lower",
                         f"{layer}.self_us_per_commit"))
    metrics += [
        m("bench.unattributed_share", "share", "lower",
          "nothing; profile time outside every layer (stdlib reached from no layer)"),
        m("bench.profile_overhead_ratio", "ratio", "lower",
          "nothing; profiled wall / untraced wall of the same cells"),
        m("sim.events_per_commit", "count", "lower", _WALL_ALL),
        m("sim.events_per_wall_s", "1/s", "higher",
          "wall_us_per_commit, but falls when events per commit are removed"),
        m("sim.bare_us_per_event", "us", "lower", _WALL_ALL),
        m("net.ping_us_per_roundtrip", "us", "lower", _WALL_ALL),
        m("localdb.solo_us_per_txn", "us", "lower", _WALL_ALL),
        m("net.msgs_per_commit", "count", "lower",
          "sim_p50_response, sim_goodput on commit_matrix (2 u per sequential round)"),
        m("net.envelopes_per_commit", "count", "lower", _SHARDED),
        m("net.msgs_per_envelope", "count", "higher",
          "wall down, sim_p50_response up by the batching delay, replicated_sharded only"),
        m("net.retransmits_per_commit", "count", "lower",
          "sim_p99_response on replicated_sharded and crash_recovery; 0 elsewhere"),
        m("net.dups_suppressed_per_commit", "count", "lower",
          "wall_us_per_commit on replicated_sharded and crash_recovery; 0 elsewhere"),
        m("storage.log_forces_per_commit", "count", "lower",
          "sim_p50_response, sim_goodput on commit_matrix"),
        m("storage.page_writes_per_commit", "count", "lower", "sim_p50_response"),
        m("storage.page_reads_per_commit", "count", "lower", "sim_p50_response"),
        m("storage.buffer_hit_rate", "share", "higher",
          "sim_p50_response; low on commit_matrix by design (512 pages, 64 frames)"),
        m("localdb.lock_wait_per_commit", "u", "lower",
          f"{_CONTENDED}; on commit_matrix only the commit-marker pages are waited for"),
        m("localdb.lock_hold_per_commit", "u", "lower", _CONTENDED),
        m("localdb.xlock_hold_per_commit", "u", "lower", _CONTENDED),
        m("localdb.deadlocks_per_commit", "count", "lower", _CONTENDED),
        m("localdb.lock_timeouts_per_commit", "count", "lower", _CONTENDED),
        m("localdb.local_aborts_per_commit", "count", "lower", _CONTENDED),
        m("mlt.l1_wait_per_commit", "u", "lower", _CONTENDED),
        m("mlt.l1_hold_per_commit", "u", "lower", _CONTENDED),
        m("mlt.l1_deadlocks_per_commit", "count", "lower", _CONTENDED),
        m("core.gtm.decision_forces_per_commit", "count", "lower",
          "sim_p50_response, sim_goodput on commit_matrix"),
        m("core.gtm.decisions_per_group", "count", "higher", _SHARDED),
        m("core.protocols.redo_per_commit", "count", "lower", _CONTENDED),
        m("core.protocols.undo_per_commit", "count", "lower", _CONTENDED),
        m("core.protocols.l0_retries_per_commit", "count", "lower", _CONTENDED),
        m("core.protocols.local_txns_per_commit", "count", "lower",
          "wall_us_per_commit; wasted local work shows as growth"),
    ]
    for protocol in PROTOCOL_REGISTRY:
        prefix = f"core.protocols.{protocol}"
        where = "its share of the pooled figure; 0 where the workload does not run it"
        metrics += [
            m(f"{prefix}.wall_us_per_commit", "us", "lower", where),
            m(f"{prefix}.msgs_per_commit", "count", "lower", where),
            m(f"{prefix}.forces_per_commit", "count", "lower", where),
            m(f"{prefix}.sim_p50", "u", "lower", where),
        ]
    metrics += [
        m("core.recovery.passes", "count", "lower", _CRASH),
        m("core.recovery.resolved_indoubt", "count", "lower", _CRASH),
        m("core.recovery.redriven_redos", "count", "lower", _CRASH),
        m("core.recovery.redriven_undos", "count", "lower", _CRASH),
        m("core.recovery.orphans_terminated", "count", "lower", _CRASH),
        m("core.recovery.unresolved_indoubt", "count", "lower", "must be 0 everywhere"),
        m("core.pool.failovers_started", "count", "lower", _CRASH),
        m("core.pool.submissions_rerouted", "count", "lower", _CRASH),
        m("core.paxos.acceptor_forces_per_commit", "count", "lower", _SHARDED),
        m("core.paxos.rejections", "count", "lower", "sim_p99_response on crash_recovery"),
        m("dataplane.routed_writes_per_commit", "count", "lower", _SHARDED),
        m("dataplane.promotions", "count", "lower", "0: no workload crashes a replica"),
        m("dataplane.rejoins", "count", "lower", "0: no workload crashes a replica"),
        m("dataplane.stale_rejections", "count", "lower", "0: no workload crashes a replica"),
        m("workloads.queue_wait_per_commit", "u", "lower",
          "sim_p99_response; admission-queue wait, mostly the saturated phase"),
        m("workloads.max_queue_depth", "count", "lower", "sim_p99_response"),
        m("faults.injected_crashes", "count", "lower", _CRASH),
        m("faults.injected_aborts", "count", "lower",
          "redo_per_commit on contended_mix and crash_recovery"),
        m("faults.injected_partitions", "count", "lower", _CRASH),
        m("faults.time_to_resolution", "u", "lower", _CRASH),
        m("obs.spans_wall_ratio", "ratio", "lower",
          "nothing end to end (obs is off in the untraced rounds)"),
        m("obs.spans_per_commit", "count", "lower", "obs.spans_wall_ratio"),
        m("obs.sim_rpc_share", "share", "lower", "sim_p50_response (where the time goes)"),
        m("obs.sim_log_force_share", "share", "lower", "sim_p50_response"),
        m("obs.sim_subtxn_share", "share", "lower", "sim_p50_response"),
    ]
    return metrics


def benchmark_json() -> dict:
    """The contract file, generated from the tables above."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in per_layer()
        ],
    }
