"""The four ledger workloads: how each is built, driven, counted, audited.

A workload is a fixed list of *cells* -- one (protocol, phase) pair
each -- that a round runs once, in order.  Protocol lists are derived
from ``PROTOCOL_REGISTRY``; rates, windows, sizes and latency limits
are constants fixed by the one-off calibration in ``calibrate.py``
(README, "Calibration") and are never recomputed at run time, so a
parent commit and a change always see the same offered load.

Simulated environment of every workload: star topology, fixed one-way
message latency 1.0 u, default ``LocalDBConfig`` storage costs (page
read / page write / log force 1.0 u, CPU op 0.1 u).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.gtm import GTMConfig
from repro.core.invariants import atomicity_report, check_invariants, serializability_ok
from repro.core.protocols import PROTOCOL_REGISTRY, ProtocolInfo
from repro.dataplane import PlacementSpec
from repro.faults.chaos import ChaosSpec, build_chaos_federation, run_chaos
from repro.faults.injector import FaultInjector
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.workloads.open_loop import OpenLoopDriver, OpenLoopSpec

from benchmarks.ledger import inputs as gen

#: ``timed(fn) -> (fn(), wall seconds)``; the plain, profiled and spans
#: passes differ only in what they wrap around the call.
Timed = Callable[[Callable[[], Any]], tuple[Any, float]]


@dataclass
class Cell:
    """What one (protocol, phase) run of a round produced."""

    protocol: str
    phase: str
    setup_s: float
    wall_s: float
    arrivals: int
    committed: int
    intended_aborts: int
    #: Scheduled-arrival -> commit, committed transactions only.
    latencies: list[float]
    #: Longest interval without a commit between the first arrival and
    #: the last completion (time without service).
    max_commit_gap: float
    goodput: float
    counters: dict[str, float]
    #: For the audits and the spans pass; dropped once they have looked.
    federation: Any = field(default=None, repr=False)
    #: ``crash_recovery`` only: schedules ``run_chaos`` itself faulted.
    chaos_notes: list[str] = field(default_factory=list)

    @property
    def key(self) -> str:
        return f"{self.protocol}/{self.phase}"

    @property
    def failed(self) -> int:
        """Arrivals that neither committed nor aborted by intent."""
        return self.arrivals - self.committed - self.intended_aborts

    def simulated(self) -> dict[str, Any]:
        """Everything that must repeat bit-for-bit in every round."""
        return {
            "arrivals": self.arrivals,
            "committed": self.committed,
            "intended_aborts": self.intended_aborts,
            "latencies": self.latencies,
            "max_commit_gap": self.max_commit_gap,
            "goodput": self.goodput,
            "counters": self.counters,
        }


#: Counters that combine across cells as a maximum, not a sum.
MAX_COUNTERS = ("time_to_resolution", "max_queue_depth")


def base_id(gtxn_id: str) -> str:
    """Strip the GTM's retry suffix (``T7~r2`` -> ``T7``)."""
    return gtxn_id.split("~", 1)[0]


def intended_aborts(outcomes: list, intended: set[str]) -> int:
    """Outcomes that aborted, of transactions that meant to."""
    return sum(
        1 for o in outcomes if not o.committed and base_id(o.gtxn_id) in intended
    )


def collect_counters(fed: Federation) -> dict[str, float]:
    """Flatten the federation's public counters into raw totals."""
    report = fed.metrics()
    gtm, network, totals = report["gtm"], report["network"], report["totals"]
    sites = list(report["sites"].values())
    reliability = network["reliability"]
    acceptors = report.get("acceptors", {})
    dataplane = report.get("dataplane", {})
    outcomes = fed.pool.outcomes()

    def site_sum(name: str) -> float:
        return sum(site[name] for site in sites)

    return {
        "events": fed.kernel.events_dispatched,
        "msgs": network["sent"],
        "envelopes": network["envelopes"],
        "retransmits": reliability["retransmissions"],
        "dups_suppressed": reliability["duplicates_suppressed"],
        "log_forces": totals["log_forces"],
        "page_writes": site_sum("page_writes"),
        "page_reads": site_sum("page_reads"),
        "buffer_hits": site_sum("buffer_hits"),
        "buffer_misses": site_sum("buffer_misses"),
        "lock_wait": totals["lock_wait_time"],
        "lock_hold": totals["lock_hold_time"],
        "xlock_hold": site_sum("lock_exclusive_hold_time"),
        "deadlocks": site_sum("deadlocks"),
        "lock_timeouts": site_sum("lock_timeouts"),
        "local_commits": totals["local_commits"],
        "local_aborts": sum(totals["local_aborts"].values()),
        "l1_wait": gtm["l1_wait_time"],
        "l1_hold": gtm["l1_hold_time"],
        "l1_deadlocks": gtm["l1_deadlocks"],
        "decision_forces": gtm["decision_forces"],
        "decision_groups": gtm["decision_groups"],
        "decisions_grouped": gtm["decisions_grouped"],
        "redo": gtm["redo_executions"],
        "undo": gtm["undo_executions"],
        "l0_retries": sum(outcome.l0_retries for outcome in outcomes),
        "recovery_passes": gtm["recovery_passes"],
        "recovery_resolved_indoubt": gtm["recovery_resolved_indoubt"],
        "recovery_redriven_redos": gtm["recovery_redriven_redos"],
        "recovery_redriven_undos": gtm["recovery_redriven_undos"],
        "recovery_orphans_terminated": gtm["recovery_orphans_terminated"],
        "unresolved_indoubt": len(fed.pool.unresolved_orphans())
        + sum(
            1
            for engine in fed.engines.values()
            for txn in engine.active_txns()
            if txn.gtxn_id
        ),
        "failovers_started": fed.pool.failovers_started,
        "submissions_rerouted": fed.pool.submissions_rerouted,
        "acceptor_forces": acceptors.get("acceptor_forces", 0),
        "paxos_rejections": acceptors.get("rejections", 0),
        "routed_writes": dataplane.get("routed_writes", 0),
        "promotions": dataplane.get("promotions", 0),
        "rejoins": dataplane.get("rejoins", 0),
        "stale_rejections": dataplane.get("stale_rejections", 0),
        # Filled in by the workload that knows them.
        "queue_wait": 0.0,
        "max_queue_depth": 0,
        "injected_crashes": 0,
        "injected_aborts": 0,
        "injected_partitions": 0,
        "time_to_resolution": 0.0,
    }


def service_span(outcomes: list) -> tuple[float, float]:
    """(makespan, longest commit-free gap) from the public outcome records.

    The first arrival always finds the admission window empty, so its
    GTM submit time *is* its arrival time.
    """
    first = min(o.submit_time for o in outcomes)
    last = max(o.finish_time for o in outcomes)
    instants = [first, *sorted(o.finish_time for o in outcomes if o.committed), last]
    return last - first, max(b - a for a, b in zip(instants, instants[1:]))


class OpenLoopWorkload:
    """A workload driven through ``OpenLoopDriver`` in two phases.

    *nominal* offers about 60% of the slowest protocol's saturated
    goodput (latency figures come from here); *saturated* offers at
    least twice the fastest protocol's capacity (goodput comes from
    here).  Arrivals keep their schedule regardless of completions,
    latency is timed from the scheduled arrival, the queue is
    unbounded.  Generator lateness is zero by construction: arrival
    instants are simulated time.
    """

    name: str
    why: str
    #: printed under the workload's heading, if there is anything to say
    note = ""
    phases = ("nominal", "saturated")
    #: phase whose latencies feed p50 / p99 / SLO / commit gap ...
    latency_phase = "nominal"
    #: ... and phase whose goodput is reported.
    goodput_phase = "saturated"
    n_sites: int
    #: phase -> arrivals per simulated time unit.
    rates: dict[str, float]
    window_per_coordinator: int
    #: nominal-phase latency limit (u) for ``sim_slo_met_share``.
    slo_limit: float
    #: size -> phase -> transactions per cell.
    sizes: dict[str, dict[str, int]]
    #: counters that must stay exactly 0 on this workload: nothing
    #: crashes here, so nothing may recover, fail over or stay in doubt.
    #: ``zero_if_preparable`` adds counters that must be 0 for the
    #: protocols whose sites expose a ready state.
    zero_if_preparable: tuple[str, ...] = ()
    must_be_zero: tuple[str, ...] = (
        "recovery_passes", "recovery_resolved_indoubt", "recovery_redriven_redos",
        "recovery_redriven_undos", "failovers_started", "submissions_rerouted",
        "promotions", "rejoins", "stale_rejections", "injected_crashes",
        "injected_partitions", "time_to_resolution", "unresolved_indoubt",
    )

    def protocols(self) -> list[str]:
        raise NotImplementedError

    def transactions(
        self, pattern: random.Random, payload: random.Random, n_txns: int, prefix: str
    ) -> list[dict]:
        raise NotImplementedError

    def site_specs(self, info: ProtocolInfo) -> list[SiteSpec]:
        raise NotImplementedError

    def config(self, info: ProtocolInfo, spans: bool) -> FederationConfig:
        raise NotImplementedError

    def arm(self, fed: Federation) -> Optional[FaultInjector]:
        """Install this workload's fault source, if it has one."""
        return None

    def balance_problems(
        self, fed: Federation, committed: list[dict], inputs: dict
    ) -> list[str]:
        """Check the stored values against the committed transactions."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def cells(self) -> list[tuple[str, str]]:
        return [(p, phase) for p in self.protocols() for phase in self.phases]

    def generate(self, seed: int, size: str) -> dict[str, Any]:
        pattern, payload = random.Random(gen.PATTERN_SEED), random.Random(seed)
        return {
            "pattern_seed": gen.PATTERN_SEED,
            **{
                phase: self.transactions(
                    pattern, payload, self.sizes[size][phase], phase[0].upper()
                )
                for phase in self.phases
            },
        }

    def run_cell(
        self, protocol: str, phase: str, inputs: dict, timed: Timed, spans: bool = False
    ) -> Cell:
        info = PROTOCOL_REGISTRY[protocol]
        transactions = inputs[phase]
        batches = gen.to_batches(transactions)
        started = time.perf_counter()
        fed = Federation(self.site_specs(info), self.config(info, spans))
        injector = self.arm(fed)
        driver = OpenLoopDriver(
            fed,
            OpenLoopSpec(
                arrival_rate=self.rates[phase],
                n_txns=len(batches),
                window_per_coordinator=self.window_per_coordinator,
            ),
        )
        setup_s = time.perf_counter() - started
        # Trace sink off unless the spans pass needs the record stream.
        fed.kernel.trace.enabled = spans
        result, wall_s = timed(lambda: driver.run(batches))

        counters = collect_counters(fed)
        counters["queue_wait"] = result.total_queue_wait
        counters["max_queue_depth"] = result.max_queue_depth
        if injector is not None:
            counters.update(injector.counters())
        outcomes = fed.pool.outcomes()
        intended = {t["name"] for t in transactions if t["intends_abort"]}
        return Cell(
            protocol=protocol,
            phase=phase,
            setup_s=setup_s,
            wall_s=wall_s,
            arrivals=len(batches),
            committed=result.committed,
            intended_aborts=intended_aborts(outcomes, intended),
            latencies=list(result.response_times),
            max_commit_gap=service_span(outcomes)[1],
            goodput=result.throughput,
            counters=counters,
            federation=fed,
        )

    def audit(self, cell: Cell, inputs: dict) -> list[str]:
        """Post-run correctness obligations; empty means clean."""
        fed, info = cell.federation, PROTOCOL_REGISTRY[cell.protocol]
        problems = []
        fed.run()  # drain stragglers (late acks, replica applies)
        if fed.dataplane is not None:
            problems += [str(v) for v in check_invariants(fed)]
        else:
            problems += [
                f"atomicity {v.kind}: {v.gtxn_id}@{v.site} ({v.detail})"
                for v in atomicity_report(fed).violations
            ]
            if info.serializable and not serializability_ok(fed):
                problems.append("committed history is not serializable")
        outcomes = fed.pool.outcomes()
        if len(outcomes) != cell.arrivals:
            problems.append(f"{cell.arrivals - len(outcomes)} arrivals never finished")
        committed = {base_id(o.gtxn_id) for o in outcomes if o.committed}
        problems += self.balance_problems(
            fed, [t for t in inputs[cell.phase] if t["name"] in committed], inputs
        )
        zero = self.must_be_zero + (
            self.zero_if_preparable if info.requires_prepare else ()
        )
        problems += [
            f"{name} = {cell.counters[name]} (must be 0 on {self.name})"
            for name in zero if cell.counters[name]
        ]
        return problems


class CommitMatrix(OpenLoopWorkload):
    name = "commit_matrix"
    why = (
        "every registered protocol on uncontended one-key-per-page transfers: "
        "sim, net, integration and protocol code do the work, locks and recovery none"
    )
    n_sites = 4
    pages = 512
    rates = {"nominal": 0.4, "saturated": 2.0}
    window_per_coordinator = 16
    slo_limit = 25.0
    sizes = {
        "full": {"nominal": 200, "saturated": 200},
        "smoke": {"nominal": 40, "saturated": 40},
    }
    # A fresh page per transaction: nothing may deadlock, retry or be
    # redone, and no data page is ever waited for.  Lock wait is exactly
    # 0 for every preparable protocol; the others also write the in-DB
    # commit-marker relation (the paper's log placement for unchangeable
    # TMs), whose few pages they do queue on -- same transactions, so
    # their data pages are just as uncontended.
    zero_if_preparable = ("lock_wait",)
    must_be_zero = OpenLoopWorkload.must_be_zero + (
        "deadlocks", "lock_timeouts", "l1_wait", "l1_deadlocks",
        "redo", "undo", "l0_retries", "recovery_orphans_terminated",
        "injected_aborts", "retransmits",
    )

    def protocols(self) -> list[str]:
        return list(PROTOCOL_REGISTRY)

    def keys(self) -> tuple[str, ...]:
        return gen.one_key_per_page(self.pages)

    def transactions(self, pattern, payload, n_txns, prefix):
        return gen.unique_key_transfers(
            pattern, payload, n_txns, self.n_sites, self.keys(), prefix
        )

    def site_specs(self, info):
        rows = dict.fromkeys(self.keys(), gen.INITIAL_BALANCE)
        return [
            SiteSpec(
                f"s{i}", tables={f"t{i}": dict(rows)},
                preparable=info.requires_prepare, buckets=self.pages,
            )
            for i in range(self.n_sites)
        ]

    def config(self, info, spans):
        return FederationConfig(
            seed=gen.PATTERN_SEED, latency=1.0, metrics=spans, spans=spans,
            gtm=GTMConfig(protocol=info.name, granularity=info.granularity),
        )

    def balance_problems(self, fed, committed, inputs):
        # Transfers move value, so the total never changes.
        expected = self.n_sites * self.pages * gen.INITIAL_BALANCE
        actual = sum(
            fed.peek(f"s{i}", f"t{i}", key)
            for i in range(self.n_sites) for key in self.keys()
        )
        return [] if actual == expected else [f"balance {actual} != {expected}"]


class ContendedMix(OpenLoopWorkload):
    name = "contended_mix"
    why = (
        "2pc/after/before on Zipf(1.0) reads, increments and overwrites with intended "
        "and erroneous aborts: page locks, deadlocks, L1 locks and redo/undo do the work"
    )
    n_sites = 4
    keys_per_site = 64
    zipf_s = 1.0
    erroneous_abort_rate = 0.1
    rates = {"nominal": 0.03, "saturated": 0.25}
    window_per_coordinator = 4
    slo_limit = 200.0
    sizes = {
        "full": {"nominal": 500, "saturated": 300},
        "smoke": {"nominal": 40, "saturated": 30},
    }

    def protocols(self) -> list[str]:
        # The paper's three strategies, whatever else is registered.
        return [p for p in PROTOCOL_REGISTRY if p in ("2pc", "after", "before")]

    def objects(self) -> list[tuple[str, str]]:
        # Rank order interleaves the sites so the hot set spans them.
        return [
            (f"t{i}", f"k{j}")
            for j in range(self.keys_per_site) for i in range(self.n_sites)
        ]

    def transactions(self, pattern, payload, n_txns, prefix):
        return gen.zipf_mix(
            pattern, payload, n_txns, self.objects(), self.zipf_s, ops_per_txn=4,
            read_fraction=0.3, increment_fraction=0.5,
            intended_abort_rate=0.05, prefix=prefix,
        )

    def site_specs(self, info):
        rows = {f"k{j}": gen.INITIAL_BALANCE for j in range(self.keys_per_site)}
        return [
            SiteSpec(
                f"s{i}", tables={f"t{i}": dict(rows)}, preparable=info.requires_prepare
            )
            for i in range(self.n_sites)
        ]

    config = CommitMatrix.config

    def arm(self, fed):
        injector = FaultInjector(fed)
        injector.erroneous_aborts_after_ready(probability=self.erroneous_abort_rate)
        return injector

    def balance_problems(self, fed, committed, inputs):
        # An overwrite makes a key's final value depend on the
        # serialization order, so conservation is checked on the keys no
        # generated transaction overwrites: there the committed
        # increments must add up whatever the order.
        overwritten = {
            (op[1], op[2])
            for phase in self.phases for txn in inputs[phase] for op in txn["ops"]
            if op[0] == "write"
        }
        expected = dict.fromkeys(
            sorted(set(self.objects()) - overwritten), gen.INITIAL_BALANCE
        )
        for txn in committed:
            for kind, table, key, value in txn["ops"]:
                if kind == "increment" and (table, key) in expected:
                    expected[(table, key)] += value
        stored = {
            (table, key): fed.peek("s" + table[1:], table, key)
            for table, key in expected
        }
        return [
            f"{table}[{key}] = {stored[table, key]}, committed increments give {value}"
            for (table, key), value in expected.items()
            if stored[table, key] != value
        ]


class ReplicatedSharded(OpenLoopWorkload):
    name = "replicated_sharded"
    why = (
        "2pc/paxos/one_phase on 8 partitions x 2 replicas, 4 coordinators, lossy reliable "
        "links, adaptive batching and pipelining: net, pool, paxos and data plane do the work"
    )
    n_sites = 8
    n_keys = 512
    zipf_s = 0.8
    rates = {"nominal": 0.16, "saturated": 0.7}
    window_per_coordinator = 4
    slo_limit = 120.0
    sizes = {
        "full": {"nominal": 350, "saturated": 350},
        "smoke": {"nominal": 40, "saturated": 40},
    }

    def protocols(self) -> list[str]:
        return [p for p in PROTOCOL_REGISTRY if p in ("2pc", "paxos", "one_phase")]

    def transactions(self, pattern, payload, n_txns, prefix):
        objects = [("acct", f"k{j}") for j in range(self.n_keys)]
        return gen.zipf_mix(
            pattern, payload, n_txns, objects, self.zipf_s, ops_per_txn=2,
            read_fraction=0.4, increment_fraction=0.6,
            intended_abort_rate=0.0, prefix=prefix,
        )

    def site_specs(self, info):
        return [
            SiteSpec(f"s{i}", preparable=info.requires_prepare)
            for i in range(self.n_sites)
        ]

    def config(self, info, spans):
        return FederationConfig(
            seed=gen.PATTERN_SEED, latency=1.0, metrics=spans, spans=spans,
            coordinators=4, paxos_f=1,
            reliable=True, loss_rate=0.02, dup_rate=0.02, retransmit_timeout=6.0,
            batch_window=1.0, batch_policy="adaptive", batch_max_msgs=8,
            placement=[
                PlacementSpec(
                    table="acct", partitions=8, replication=2, buckets=64,
                    rows={f"k{j}": gen.INITIAL_BALANCE for j in range(self.n_keys)},
                )
            ],
            gtm=GTMConfig(
                protocol=info.name, granularity=info.granularity,
                pipeline_window=1.0, pipeline_policy="adaptive", pipeline_max_group=8,
            ),
        )

    def balance_problems(self, fed, committed, inputs):
        # Reads and increments only: the sum is order-free.
        expected = self.n_keys * gen.INITIAL_BALANCE + sum(
            op[3] for txn in committed for op in txn["ops"] if op[0] == "increment"
        )
        actual = sum(fed.peek_global("acct", f"k{j}") for j in range(self.n_keys))
        return [] if actual == expected else [f"balance {actual} != {expected}"]


class CrashRecovery:
    """``run_chaos`` under a coordinator crash, site crashes and bad links.

    One phase (``chaos``) serves both the latency and the goodput
    figures.  ``run_chaos`` owns its federation, so set-up is timed on
    a separate ``build_chaos_federation(spec)`` call, the timed section
    is the whole ``run_chaos`` call (fault schedule, run to resolution
    and the harness's own audit), and the trace sink stays on.  A cell
    runs the protocol under each of the fixed fault seeds
    (``inputs.CHAOS_SEEDS`` says why ``--seed`` does not choose them).
    """

    name = "crash_recovery"
    why = (
        "2pc/after/before/paxos through run_chaos: coordinator crash, site crash cycles, "
        "partitions, lossy links, arrivals continuing: recovery, WAL, retransmission work"
    )
    note = (
        "one phase; setup_s is a separate build_chaos_federation call, "
        "wall_us_per_commit covers the whole run_chaos call, trace sink on"
    )
    phases = ("chaos",)
    latency_phase = goodput_phase = "chaos"
    n_sites = 4
    keys_per_site = 64
    #: transactions arrive uniformly over this span, faults all through it
    submit_spread = 1500.0
    slo_limit = 360.0
    sizes = {"full": {"chaos": 270}, "smoke": {"chaos": 40}}

    def protocols(self) -> list[str]:
        return [p for p in PROTOCOL_REGISTRY if p in ("2pc", "after", "before", "paxos")]

    def cells(self) -> list[tuple[str, str]]:
        return [(p, "chaos") for p in self.protocols()]

    def generate(self, seed: int, size: str) -> dict[str, Any]:
        # ``seed`` selects nothing here: see ``inputs.CHAOS_SEEDS``.
        return {
            "n_txns": self.sizes[size]["chaos"],
            "chaos": list(gen.CHAOS_SEEDS),
        }

    def spec(self, protocol: str, fault_seed: int, n_txns: int, spans: bool) -> ChaosSpec:
        paxos = protocol == "paxos"
        return ChaosSpec(
            protocol=protocol,
            granularity=PROTOCOL_REGISTRY[protocol].granularity,
            seed=fault_seed,
            n_sites=self.n_sites,
            n_txns=n_txns,
            keys_per_site=self.keys_per_site,
            submit_spread=self.submit_spread,
            fault_horizon=self.submit_spread,
            resolution_horizon=self.submit_spread + 20000.0,
            coordinators=2,
            coordinator_crash_at=0.4 * self.submit_spread,
            coordinator_outage=60.0,
            # F acceptor kills, never restarted: paxos must ride them out.
            acceptor_crashes=1 if paxos else 0,
            acceptor_crash_at=0.3 * self.submit_spread if paxos else 0.0,
            metrics=spans,
        )

    def run_cell(
        self, protocol: str, phase: str, inputs: dict, timed: Timed, spans: bool = False
    ) -> Cell:
        n_txns = inputs["n_txns"]
        every = ChaosSpec(protocol).intended_abort_every
        intended = {f"C{i}" for i in range(n_txns) if i % every == every - 1}
        cell = Cell(
            protocol=protocol, phase=phase, setup_s=0.0, wall_s=0.0, arrivals=0,
            committed=0, intended_aborts=0, latencies=[], max_commit_gap=0.0,
            goodput=0.0, counters={},
        )
        for fault_seed in inputs["chaos"]:
            spec = self.spec(protocol, fault_seed, n_txns, spans)
            started = time.perf_counter()
            build_chaos_federation(spec)
            cell.setup_s += time.perf_counter() - started
            result, wall_s = timed(lambda: run_chaos(spec))
            cell.wall_s += wall_s
            fed = cell.federation = result.federation
            counters = collect_counters(fed)
            counters["time_to_resolution"] = result.time_to_resolution
            for name in ("injected_crashes", "injected_aborts", "injected_partitions"):
                counters[name] = result.counters[name]
            for name, value in counters.items():
                merge = max if name in MAX_COUNTERS else sum
                cell.counters[name] = merge((cell.counters.get(name, 0), value))
            outcomes = fed.pool.outcomes()
            makespan, gap = service_span(outcomes)
            cell.arrivals += n_txns
            cell.committed += result.committed
            cell.intended_aborts += intended_aborts(outcomes, intended)
            cell.latencies += [
                o.finish_time - o.submit_time for o in outcomes if o.committed
            ]
            cell.max_commit_gap = max(cell.max_commit_gap, gap)
            cell.goodput += result.committed / makespan / len(inputs["chaos"])
            if not result.ok:
                cell.chaos_notes.append(
                    f"fault seed {fault_seed}: atomicity={result.atomicity_ok} "
                    f"serializable={result.serializable} converged={result.converged} "
                    f"conserved={result.conserved} {result.violations[:3]} "
                    f"{result.stuck[:3]}"
                )
        return cell

    def audit(self, cell: Cell, inputs: dict) -> list[str]:
        # run_chaos audited atomicity, serializability, convergence and
        # conservation itself; its verdicts were recorded per fault seed.
        problems = list(cell.chaos_notes)
        if cell.counters["unresolved_indoubt"]:
            problems.append(
                f"unresolved_indoubt = {cell.counters['unresolved_indoubt']}"
            )
        return problems


WORKLOADS = {
    w.name: w
    for w in (CommitMatrix(), ContendedMix(), ReplicatedSharded(), CrashRecovery())
}
