"""EXP-R1 -- chaos matrix: robustness and its performance price.

Sweep the intensity of a seeded randomized fault schedule -- message
loss, duplication, reordering, link partitions, crash/recover cycles
and erroneous local aborts -- over the reliable transport and measure
what the §3 fault-tolerance machinery costs: committed throughput and
mean response degrade with the fault level, and the time between the
last fault and the last transaction reaching a terminal state
(*time-to-resolution*) grows, but every run stays atomic, serializable,
conserved and convergent.

Level 0.0 is the clean-network baseline (reliable delivery on, zero
faults); level 1.0 matches the chaos test suite's defaults; level 2.0
doubles every fault rate.  Each level aggregates several seeds for the
two protocols whose recovery paths differ most: 2PC (prepared in-doubt
locals, hardened decisions) and commit-after (§3.2 redo obligations).
"""

from repro.bench import format_table
from repro.faults.chaos import ChaosSpec, run_chaos

from benchmarks._common import run_once, save_result

SEEDS = [1, 2, 3]
FAULT_LEVELS = [0.0, 0.5, 1.0, 2.0]
PROTOCOLS = [("2pc", "per_site"), ("after", "per_site")]

#: Fault-injection and reliability counters aggregated over the last
#: ``run_experiment`` call; ``run_all.py`` records them in the
#: per-bench JSON report.
FAULT_COUNTERS: dict[str, int] = {}

_COUNTER_KEYS = (
    "injected_aborts", "injected_crashes", "injected_partitions",
    "retransmissions", "duplicates_suppressed", "abandoned_messages",
    "recovery_passes", "recovery_resolved_indoubt",
    "recovery_redriven_redos", "recovery_orphans_terminated",
)


def chaos_spec(protocol: str, granularity: str, seed: int, level: float) -> ChaosSpec:
    base = ChaosSpec(protocol=protocol, granularity=granularity, seed=seed)
    return ChaosSpec(
        protocol=protocol,
        granularity=granularity,
        seed=seed,
        loss_rate=base.loss_rate * level,
        dup_rate=base.dup_rate * level,
        reorder_rate=base.reorder_rate * level,
        crash_rate=base.crash_rate * level,
        partition_count=int(round(base.partition_count * level)),
        erroneous_abort_rate=base.erroneous_abort_rate * level,
    )


def measure_level(level: float) -> dict:
    """Aggregate one fault level across ``SEEDS`` x ``PROTOCOLS``."""
    committed = aborted = 0
    resp_sum = resp_n = 0
    ttr_sum = runs = 0
    all_ok = True
    counters = dict.fromkeys(_COUNTER_KEYS, 0)
    for protocol, granularity in PROTOCOLS:
        for seed in SEEDS:
            result = run_chaos(chaos_spec(protocol, granularity, seed, level))
            runs += 1
            all_ok = all_ok and result.ok
            committed += result.committed
            aborted += result.aborted
            ttr_sum += result.time_to_resolution
            metrics = result.federation.gtm.metrics()
            if result.committed:
                resp_sum += metrics["mean_response_time"] * result.committed
                resp_n += result.committed
            for key in _COUNTER_KEYS:
                counters[key] += result.counters.get(key, 0)
    return {
        "level": level,
        "runs": runs,
        "all_ok": all_ok,
        "committed": committed,
        "aborted": aborted,
        "mean_resp": resp_sum / max(1, resp_n),
        "mean_ttr": ttr_sum / max(1, runs),
        "counters": counters,
    }


def headline() -> dict:
    """Compact chaos summary for BENCH_perf.json."""
    levels = {}
    for level in (0.0, 1.0, 2.0):
        row = measure_level(level)
        levels[f"{level:g}x"] = {
            "all_ok": row["all_ok"],
            "committed": row["committed"],
            "aborted": row["aborted"],
            "mean_response": round(row["mean_resp"], 1),
            "mean_time_to_resolution": round(row["mean_ttr"], 1),
            "retransmissions": row["counters"]["retransmissions"],
            "duplicates_suppressed": row["counters"]["duplicates_suppressed"],
            "injected_crashes": row["counters"]["injected_crashes"],
        }
    return {
        "scenario": (
            f"{len(SEEDS)} seeds x {len(PROTOCOLS)} protocols per level, "
            "12 txns over 3 sites, reliable transport"
        ),
        "invariants_held_at_every_level": all(
            row["all_ok"] for row in levels.values()
        ),
        "fault_levels": levels,
    }


def run_experiment() -> str:
    rows = []
    by_level = {}
    FAULT_COUNTERS.clear()
    for level in FAULT_LEVELS:
        row = measure_level(level)
        by_level[level] = row
        for key, value in row["counters"].items():
            FAULT_COUNTERS[key] = FAULT_COUNTERS.get(key, 0) + value
        rows.append([
            level, row["runs"], row["committed"], row["aborted"],
            round(row["mean_resp"], 1), round(row["mean_ttr"], 1),
            row["counters"]["retransmissions"],
            row["counters"]["duplicates_suppressed"],
            row["counters"]["injected_crashes"],
            row["counters"]["recovery_passes"],
            "OK" if row["all_ok"] else "VIOLATED",
        ])
    table = format_table(
        ["fault level", "runs", "committed", "aborted", "mean resp",
         "time-to-res", "retransmits", "dups supp", "crashes",
         "recov passes", "invariants"],
        rows,
        title="EXP-R1: chaos sweep -- fault level vs throughput/latency/resolution",
    )
    # Correctness never degrades, whatever the fault level.
    assert all(row[-1] == "OK" for row in rows)
    # The clean baseline needs no fault machinery at all ...
    assert by_level[0.0]["counters"]["injected_crashes"] == 0
    assert by_level[0.0]["mean_ttr"] == 0.0
    # ... while the full-chaos levels exercise every counter we claim.
    assert by_level[1.0]["counters"]["retransmissions"] > 0
    assert by_level[1.0]["counters"]["injected_crashes"] > 0
    # Faults cost performance: latency and resolution time degrade.
    assert by_level[2.0]["mean_resp"] > by_level[0.0]["mean_resp"]
    assert by_level[2.0]["mean_ttr"] > by_level[0.0]["mean_ttr"]
    return table


def test_r1_chaos(benchmark):
    save_result("r1_chaos", run_once(benchmark, run_experiment))
