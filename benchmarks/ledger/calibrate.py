"""One-off calibration behind the constants in ``workloads.py``.

Not part of a benchmark run: the rates, latency limits and vetted
chaos seeds it produced are frozen in the package so that a parent
commit and a change always see the same offered load.  Re-run it only
to *re-define* the benchmark (its own change, fresh baseline).

    PYTHONPATH=src python -m benchmarks.ledger.calibrate rates commit_matrix 0.3,0.6,1.2,8
    PYTHONPATH=src python -m benchmarks.ledger.calibrate chaos 1-60 full   # and: smoke
"""

from __future__ import annotations

import subprocess
import sys
import time

from benchmarks.ledger.workloads import WORKLOADS


def _timed(fn):
    started = time.perf_counter()
    return fn(), time.perf_counter() - started


def sweep_rates(name: str, rates: list[float], seed: int) -> None:
    """Per protocol and offered rate: goodput, latency and failures."""
    workload = WORKLOADS[name]
    inputs = workload.generate(seed, "full")
    print(f"{name}: seed {seed}, window {workload.window_per_coordinator}/coordinator")
    for protocol in workload.protocols():
        for rate in rates:
            workload.rates = {"nominal": rate, "saturated": rate}
            cell = workload.run_cell(protocol, "nominal", inputs, _timed)
            ordered = sorted(cell.latencies)
            print(
                f"  {protocol:13s} rate {rate:7.3f}  goodput {cell.goodput:7.4f}  "
                f"p50 {ordered[len(ordered) // 2]:8.2f}  "
                f"p99 {ordered[int(0.99 * len(ordered))]:8.2f}  "
                f"max {ordered[-1]:8.2f}  failed {cell.failed:3d}/{cell.arrivals}  "
                f"queue {cell.counters['max_queue_depth']:4d}  "
                f"us/commit {cell.wall_s / cell.committed * 1e6:6.0f}"
            )


def vet_chaos_seeds(seeds: list[int], size: str, limit_s: int = 20) -> None:
    """Which fault seeds pass every audit for every chaos protocol.

    Each seed runs in a child process: a schedule that does not finish
    within ``limit_s`` wall seconds (a healthy one takes about one) is
    rejected like a failed audit, and killed.
    """
    good = []
    for seed in seeds:
        try:
            child = subprocess.run(
                [sys.executable, "-m", "benchmarks.ledger.calibrate",
                 "chaos-seed", str(seed), size],
                timeout=limit_s, check=False,
            )
            if child.returncode == 0:
                good.append(seed)
        except subprocess.TimeoutExpired:
            print(f"  seed {seed:3d} did not finish in {limit_s} s")
    print("vetted:", good)


def vet_one_chaos_seed(seed: int, size: str) -> bool:
    workload = WORKLOADS["crash_recovery"]
    inputs = {"n_txns": workload.sizes[size]["chaos"], "chaos": [seed]}
    clean = True
    for protocol in workload.protocols():
        cell = workload.run_cell(protocol, "chaos", inputs, _timed)
        problems = workload.audit(cell, inputs)
        clean = clean and not problems
        print(
            f"  seed {seed:3d} {protocol:6s} ok={not problems} "
            f"failed {cell.failed}/{cell.arrivals} gap {cell.max_commit_gap:.1f} "
            f"{'; '.join(problems)}"
        )
    return clean


def main(argv: list[str]) -> None:
    if argv[0] == "rates":
        sweep_rates(
            argv[1], [float(r) for r in argv[2].split(",")],
            seed=int(argv[3]) if len(argv) > 3 else 1,
        )
    elif argv[0] == "chaos":
        low, high = argv[1].split("-")
        vet_chaos_seeds(list(range(int(low), int(high) + 1)), argv[2])
    elif argv[0] == "chaos-seed":
        sys.exit(0 if vet_one_chaos_seed(int(argv[1]), argv[2]) else 1)
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
