"""The traced run: per-layer metrics from counts, a profile and spans.

Counts come from the untraced rounds (they repeat exactly).  Time busy
and calls entering a layer come from one *profiled pass* of the latency
phase under ``cProfile``, folded by source path into layers; the
simulated-time split comes from one *spans pass* with the existing
observability switched on.  Both passes run from the benchmark's own
files -- no source edits -- and end-to-end numbers never come from
them; each pass's wall over the untraced wall of the same cells is
its overhead.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import statistics
import time
from collections import defaultdict
from typing import Any

from repro.core.protocols import PROTOCOL_REGISTRY
from repro.localdb.engine import LocalDatabase
from repro.net.message import Message
from repro.net.network import FixedLatency, Network
from repro.net.node import Node
from repro.sim.kernel import Kernel

from benchmarks.ledger.measure import plain_timed, run_round, total
from benchmarks.ledger.spec import LAYERS, layer_of, per_layer

#: Pseudo-layer for profile time outside every layer.
OTHER = "stdlib"


def fold_profile(stats: dict) -> tuple[dict[str, float], dict[str, int], list[dict]]:
    """pstats caller->callee edges folded by layer.

    Returns (self seconds, calls in, edge table).  A layer's self time
    is the ``tottime`` of its own functions (generator resumes
    included) plus that of the builtins and stdlib functions it calls
    directly; what no layer called is left under ``stdlib``.
    ``calls in`` counts calls whose caller sits outside the layer.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls_in: dict[str, int] = defaultdict(int)
    edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        # Outside every layer: charged to the layers that called it, and
        # whatever no layer called (root frames, stdlib from stdlib)
        # stays here, so the fold always adds up to the profiler's total.
        self_s[layer or OTHER] += tottime
        for caller, (_ccc, calls, edge_tottime, edge_cumtime) in callers.items():
            caller_layer = layer_of(caller[0])
            if layer is None and caller_layer is not None:
                self_s[caller_layer] += edge_tottime
                self_s[OTHER] -= edge_tottime
            if caller_layer != layer:
                edge = edges[(caller_layer or OTHER, layer or OTHER)]
                edge[0] += calls
                edge[1] += edge_cumtime
                if layer is not None:
                    calls_in[layer] += calls
    table = [
        {"caller": a, "callee": b, "calls": calls, "cumulative_s": cumulative}
        for (a, b), (calls, cumulative) in sorted(edges.items())
    ]
    return dict(self_s), dict(calls_in), table


def profiled_pass(workload, seed: int, size: str) -> dict[str, Any]:
    """One round of the latency phase under ``cProfile``."""
    profiler = cProfile.Profile()

    def timed(fn):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            profiler.enable()
            try:
                value = fn()
            finally:
                profiler.disable()
            return value, time.perf_counter() - started
        finally:
            gc.enable()

    cells, _, _ = run_round(workload, seed, size, timed, only=workload.latency_phase)
    stats = pstats.Stats(profiler)
    self_s, calls_in, edges = fold_profile(stats.stats)
    return {
        "wall_s": sum(cell.wall_s for cell in cells),
        # What the profiler saw; the rest of the wall is its own bookkeeping.
        "profiled_s": stats.total_tt,
        "committed": sum(cell.committed for cell in cells),
        "cells": [cell.key for cell in cells],
        "self_s": self_s,
        "calls_in": calls_in,
        "edges": edges,
    }


def spans_pass(workload, seed: int, size: str) -> dict[str, Any]:
    """One round of the latency phase with metrics, spans and trace on."""
    found = {"spans": 0, "committed": 0}
    by_category: dict[str, float] = defaultdict(float)

    def read_forest(cell, _inputs) -> None:
        fed = cell.federation
        forest = fed.obs.span_forest()
        found["spans"] += len(forest)
        # ``crash_recovery`` keeps only its last schedule's federation.
        found["committed"] += sum(gtm.committed for gtm in fed.coordinators)
        for span in forest:
            by_category[span.category] += span.duration

    cells, _, _ = run_round(
        workload, seed, size, plain_timed, spans=True,
        only=workload.latency_phase, inspect=read_forest,
    )
    return {
        "wall_s": sum(cell.wall_s for cell in cells),
        "cells": [cell.key for cell in cells],
        **found,
        "sim_time": dict(by_category),
    }


# -- solo calibrations: progressively thicker stacks, nothing above them --


def _bare_kernel_us_per_event() -> float:
    """Many processes waking in the same slot on a bare ``Kernel``."""
    kernel = Kernel(seed=1)
    kernel.trace.enabled = False

    def sleeper():
        for _ in range(100):
            yield 1.0

    for index in range(400):
        kernel.spawn(sleeper(), name=f"p{index}")
    _, wall = plain_timed(kernel.run)
    return wall / kernel.events_dispatched * 1e6


def _ping_us_per_roundtrip(pings: int = 4000) -> float:
    """Request/reply between two ``Node``s over ``Network``."""
    kernel = Kernel(seed=1)
    kernel.trace.enabled = False
    net = Network(kernel, latency=FixedLatency(1.0))
    central = net.add_node(Node(kernel, "central", is_central=True))
    site = net.add_node(Node(kernel, "site"))

    def echo():
        while True:
            message = yield from site.recv()
            if message.kind == "stop":
                return
            net.send(message.reply("pong"))

    def pinger():
        for _ in range(pings):
            net.send(Message(kind="ping", sender="central", dest="site"))
            yield from central.recv()
        net.send(Message(kind="stop", sender="central", dest="site"))

    kernel.spawn(echo(), name="echo")
    kernel.spawn(pinger(), name="pinger")
    _, wall = plain_timed(kernel.run)
    return wall / pings * 1e6


def _solo_localdb_us_per_txn(txns: int = 1500) -> float:
    """begin / increment / commit on one engine, no GTM, no network."""
    kernel = Kernel(seed=1)
    kernel.trace.enabled = False
    engine = LocalDatabase(kernel, "solo")

    def load():
        yield from engine.create_table("t", 8)
        txn = engine.begin()
        for key in range(8):
            yield from engine.insert(txn, "t", key, 0)
        yield from engine.commit(txn)

    def work():
        for index in range(txns):
            txn = engine.begin()
            yield from engine.increment(txn, "t", index % 8, 1)
            yield from engine.commit(txn)

    kernel.spawn(load(), name="load")
    kernel.run()
    kernel.spawn(work(), name="work")
    _, wall = plain_timed(kernel.run)
    return wall / txns * 1e6


def solo_calibrations(repeats: int = 5) -> dict[str, float]:
    return {
        name: statistics.median(loop() for _ in range(repeats))
        for name, loop in (
            ("sim.bare_us_per_event", _bare_kernel_us_per_event),
            ("net.ping_us_per_roundtrip", _ping_us_per_roundtrip),
            ("localdb.solo_us_per_txn", _solo_localdb_us_per_txn),
        )
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload, summary: dict, seed: int, size: str) -> dict[str, Any]:
    """Run both traced passes and assemble every per-layer metric.

    ``summary`` is :func:`measure.measure`'s result for the same
    workload, seed and size: its last round's cells supply the counts,
    its per-cell wall times the untraced baseline of both ratios.
    """
    cells = summary["cells"]
    commits = summary["committed"]
    wall_s = summary["end_to_end"]["wall_us_per_commit"] * commits / 1e6

    def per_commit(counter: str) -> float:
        return total(cells, counter) / commits

    profile = profiled_pass(workload, seed, size)
    spans = spans_pass(workload, seed, size)

    def untraced(keys):
        return sum(summary["cell_wall_s"][key] for key in keys)

    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_us_per_commit"] = (
            profile["self_s"].get(layer, 0.0) / profile["committed"] * 1e6
        )
        values[f"{layer}.calls_in_per_commit"] = (
            profile["calls_in"].get(layer, 0) / profile["committed"]
        )
    span_time = spans["sim_time"]
    child_time = sum(span_time.get(c, 0.0) for c in ("rpc", "log_force", "subtxn"))
    values.update(solo_calibrations())
    values.update({
        "bench.unattributed_share": _ratio(
            profile["self_s"].get(OTHER, 0.0), profile["profiled_s"]
        ),
        "bench.profile_overhead_ratio": profile["wall_s"] / untraced(profile["cells"]),
        "sim.events_per_commit": per_commit("events"),
        "sim.events_per_wall_s": total(cells, "events") / wall_s,
        "net.msgs_per_commit": per_commit("msgs"),
        "net.envelopes_per_commit": per_commit("envelopes"),
        "net.msgs_per_envelope": _ratio(total(cells, "msgs"), total(cells, "envelopes")),
        "net.retransmits_per_commit": per_commit("retransmits"),
        "net.dups_suppressed_per_commit": per_commit("dups_suppressed"),
        "storage.log_forces_per_commit": per_commit("log_forces"),
        "storage.page_writes_per_commit": per_commit("page_writes"),
        "storage.page_reads_per_commit": per_commit("page_reads"),
        "storage.buffer_hit_rate": _ratio(
            total(cells, "buffer_hits"),
            total(cells, "buffer_hits") + total(cells, "buffer_misses"),
        ),
        "localdb.lock_wait_per_commit": per_commit("lock_wait"),
        "localdb.lock_hold_per_commit": per_commit("lock_hold"),
        "localdb.xlock_hold_per_commit": per_commit("xlock_hold"),
        "localdb.deadlocks_per_commit": per_commit("deadlocks"),
        "localdb.lock_timeouts_per_commit": per_commit("lock_timeouts"),
        "localdb.local_aborts_per_commit": per_commit("local_aborts"),
        "mlt.l1_wait_per_commit": per_commit("l1_wait"),
        "mlt.l1_hold_per_commit": per_commit("l1_hold"),
        "mlt.l1_deadlocks_per_commit": per_commit("l1_deadlocks"),
        "core.gtm.decision_forces_per_commit": per_commit("decision_forces"),
        "core.gtm.decisions_per_group": _ratio(
            total(cells, "decisions_grouped"), total(cells, "decision_groups")
        ),
        "core.protocols.redo_per_commit": per_commit("redo"),
        "core.protocols.undo_per_commit": per_commit("undo"),
        "core.protocols.l0_retries_per_commit": per_commit("l0_retries"),
        "core.protocols.local_txns_per_commit": (
            total(cells, "local_commits") + total(cells, "local_aborts")
        ) / commits,
        "core.recovery.passes": total(cells, "recovery_passes"),
        "core.recovery.resolved_indoubt": total(cells, "recovery_resolved_indoubt"),
        "core.recovery.redriven_redos": total(cells, "recovery_redriven_redos"),
        "core.recovery.redriven_undos": total(cells, "recovery_redriven_undos"),
        "core.recovery.orphans_terminated": total(cells, "recovery_orphans_terminated"),
        "core.recovery.unresolved_indoubt": total(cells, "unresolved_indoubt"),
        "core.pool.failovers_started": total(cells, "failovers_started"),
        "core.pool.submissions_rerouted": total(cells, "submissions_rerouted"),
        "core.paxos.acceptor_forces_per_commit": per_commit("acceptor_forces"),
        "core.paxos.rejections": total(cells, "paxos_rejections"),
        "dataplane.routed_writes_per_commit": per_commit("routed_writes"),
        "dataplane.promotions": total(cells, "promotions"),
        "dataplane.rejoins": total(cells, "rejoins"),
        "dataplane.stale_rejections": total(cells, "stale_rejections"),
        "workloads.queue_wait_per_commit": per_commit("queue_wait"),
        "workloads.max_queue_depth": total(cells, "max_queue_depth"),
        "faults.injected_crashes": total(cells, "injected_crashes"),
        "faults.injected_aborts": total(cells, "injected_aborts"),
        "faults.injected_partitions": total(cells, "injected_partitions"),
        "faults.time_to_resolution": total(cells, "time_to_resolution"),
        "obs.spans_wall_ratio": spans["wall_s"] / untraced(spans["cells"]),
        "obs.spans_per_commit": _ratio(spans["spans"], spans["committed"]),
        "obs.sim_rpc_share": _ratio(span_time.get("rpc", 0.0), child_time),
        "obs.sim_log_force_share": _ratio(span_time.get("log_force", 0.0), child_time),
        "obs.sim_subtxn_share": _ratio(span_time.get("subtxn", 0.0), child_time),
    })
    for protocol in PROTOCOL_REGISTRY:
        mine = [cell for cell in cells if cell.protocol == protocol]
        done = sum(cell.committed for cell in mine)
        prefix = f"core.protocols.{protocol}"
        if not mine:  # this workload does not run the protocol
            values.update(dict.fromkeys(
                (f"{prefix}.wall_us_per_commit", f"{prefix}.msgs_per_commit",
                 f"{prefix}.forces_per_commit", f"{prefix}.sim_p50"), 0.0))
            continue
        values[f"{prefix}.wall_us_per_commit"] = untraced(c.key for c in mine) / done * 1e6
        values[f"{prefix}.msgs_per_commit"] = total(mine, "msgs") / done
        values[f"{prefix}.forces_per_commit"] = (
            total(mine, "log_forces") + total(mine, "decision_forces")
        ) / done
        values[f"{prefix}.sim_p50"] = statistics.median(
            lat for cell in mine if cell.phase == workload.latency_phase
            for lat in cell.latencies
        )
    return {
        "per_layer": {metric.name: values[metric.name] for metric in per_layer()},
        "profile": profile,
        "spans": spans,
    }
