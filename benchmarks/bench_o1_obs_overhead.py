"""EXP-O1: observability overhead on the simulation hot path.

Runs the same deterministic transfer workload three times -- metrics
off, metrics on, metrics + spans on -- and measures *host* wall-clock
throughput.  Metrics are pull-based, so the "on" run must stay within
noise of "off"; span mode adds the opt-in ``log_force`` trace records
and pays their emission cost.

The throughput numerator is the kernel's *dispatched event* count,
which is identical in all three modes (asserted): observability never
schedules events, it only observes them.  Dividing by the per-mode
trace-record count instead (as an earlier revision did) is wrong --
span mode emits *extra* trace records for the same simulated work, so
the heavier mode showed a higher "rate" than baseline.  The simulated
outcome is identical in all three modes (the golden no-interference
test locks this down byte-for-byte); only Python-side cost may
differ.  ``run_all.py`` records the measured rates in
``BENCH_perf.json`` under ``"obs"``.
"""

import gc
import time

from repro.bench import format_table
from repro.core.gtm import GTMConfig
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment
from repro.net.message import reset_message_ids

from benchmarks._common import run_once, save_result

N_TXNS = 120
N_SITES = 3

#: Refreshed by run_experiment(); recorded in the per-bench JSON and
#: distilled into BENCH_perf.json by run_all.headline_numbers().
METRICS: dict = {}


def _workload() -> list[dict]:
    batches = []
    for index in range(N_TXNS):
        src = index % N_SITES
        dst = (index + 1) % N_SITES
        batches.append({
            "operations": [
                increment(f"t{src}", f"k{index % 4}", -1),
                increment(f"t{dst}", f"k{index % 4}", 1),
            ],
            "name": f"X{index}",
            "delay": index * 20.0,  # staggered: measure cost, not contention
        })
    return batches


def measure(metrics: bool, spans: bool) -> dict:
    """One full-federation run; returns trace events/s and run facts."""
    reset_message_ids()
    specs = [
        SiteSpec(
            f"s{i}",
            tables={f"t{i}": {f"k{j}": 1000 for j in range(4)}},
        )
        for i in range(N_SITES)
    ]
    fed = Federation(
        specs,
        FederationConfig(
            seed=17, metrics=metrics, spans=spans,
            gtm=GTMConfig(protocol="after", granularity="per_site"),
        ),
    )
    batches = _workload()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        outcomes = fed.run_transactions(batches)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if metrics:
        fed.obs.collect()
    # The numerator is mode-independent: every mode dispatches the
    # same kernel events for the same simulated run.  Trace records
    # are reported separately (span mode emits more of them).
    events = fed.kernel.events_dispatched
    return {
        "events": events,
        "trace_records": len(fed.kernel.trace),
        "elapsed": elapsed,
        "rate": events / elapsed,
        "committed": sum(1 for o in outcomes if o.committed),
        "end_time": fed.kernel.now,
    }


def measure_modes() -> dict[str, dict]:
    """Best-of-three per mode (wall clock is noisy downwards only)."""
    modes = {
        "off": (False, False),
        "metrics": (True, False),
        "metrics+spans": (True, True),
    }
    measure(False, False)  # warm-up
    results = {}
    for label, (metrics, spans) in modes.items():
        results[label] = max(
            (measure(metrics, spans) for _ in range(3)),
            key=lambda m: m["rate"],
        )
    return results


def run_experiment() -> str:
    results = measure_modes()
    baseline = results["off"]["rate"]
    METRICS.clear()
    rows = []
    for label, result in results.items():
        relative = result["rate"] / baseline
        METRICS[label] = {
            "events": result["events"],
            "trace_records": result["trace_records"],
            "events_per_sec": round(result["rate"]),
            "relative_to_off": round(relative, 3),
            "committed": result["committed"],
        }
        rows.append([
            label,
            result["events"],
            result["trace_records"],
            f"{result['elapsed'] * 1e3:.1f}ms",
            f"{result['rate'] / 1e3:.0f}k/s",
            f"{relative:.2f}x",
            result["committed"],
        ])
    # Normalisation guarantee: observability must not change what the
    # simulation *does* -- same dispatched events, same commits.
    assert len({r["events"] for r in results.values()}) == 1, (
        "modes dispatched different event counts: "
        f"{ {label: r['events'] for label, r in results.items()} }"
    )
    assert len({r["committed"] for r in results.values()}) == 1, (
        "observability changed the simulated outcome"
    )
    assert len({r["end_time"] for r in results.values()}) == 1
    return format_table(
        ["observability", "kernel events", "trace records", "wall time",
         "events/s", "vs off", "committed"],
        rows,
        title=(
            f"EXP-O1: observability overhead "
            f"({N_TXNS} transfers over {N_SITES} sites, commit-after)"
        ),
    )


def obs_headline() -> dict:
    """The BENCH_perf.json "obs" section (runs the sweep if needed)."""
    if not METRICS:
        run_experiment()
    return dict(METRICS)


def test_obs_overhead(benchmark):
    save_result("o1_obs_overhead", run_once(benchmark, run_experiment))
