"""Run every benchmark and publish machine-readable results.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/run_all.py [--only PREFIX]

Each ``bench_*.py`` module exposes ``run_experiment() -> str``; this
driver imports them all, runs each experiment once (they are
deterministic simulations -- one round is exact), writes the rendered
table next to the ``.txt`` snapshots as ``benchmarks/results/<name>.json``
and finally distils the headline performance numbers into
``BENCH_perf.json`` at the repo root:

* physical envelopes and logical messages per transaction, batched vs
  unbatched, for commit-after and commit-before/per_site;
* forced decision-log writes per committed transaction;
* mean response times at both settings;
* wall-clock kernel hot-path throughput per ``bench_k1_hotpath``
  scenario (events/s, no trace sink);
* the EXP-R1 chaos sweep: invariants held, throughput/latency and
  time-to-resolution per fault level;
* the EXP-A6 adaptive section: latency recovery vs static batching,
  per-protocol open-loop latency-throughput Pareto points, and the
  flash-crowd SLO hold.

Benchmarks that inject faults additionally publish a module-level
``FAULT_COUNTERS`` dict (injected aborts/crashes, retransmissions,
duplicates suppressed, recovery passes...), recorded verbatim in the
per-bench JSON report.
"""

from __future__ import annotations

import importlib
import json
import pathlib
import platform
import sys
import time
import traceback

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))


def bench_modules() -> list[str]:
    return sorted(
        path.stem
        for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
    )


def run_benchmarks(only: str | None = None) -> list[dict]:
    reports = []
    for name in bench_modules():
        if only and not name.startswith(only):
            continue
        module = importlib.import_module(f"benchmarks.{name}")
        started = time.perf_counter()
        try:
            output = module.run_experiment()
            ok, error = True, None
        except Exception:
            output, ok, error = "", False, traceback.format_exc()
        report = {
            "bench": name,
            "ok": ok,
            "seconds": round(time.perf_counter() - started, 3),
            "output": output,
            "error": error,
            # Fault-injection accounting: benchmarks that inject faults
            # publish a module-level FAULT_COUNTERS dict (injected
            # aborts/crashes, retransmissions, duplicates suppressed...)
            # refreshed by run_experiment().
            "fault_counters": dict(getattr(module, "FAULT_COUNTERS", None) or {}),
            # Observability accounting: benchmarks that measure through
            # the metrics registry publish a module-level METRICS dict
            # refreshed by run_experiment().
            "metrics": dict(getattr(module, "METRICS", None) or {}),
        }
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.json").write_text(json.dumps(report, indent=2) + "\n")
        if output:
            (RESULTS_DIR / f"{name.removeprefix('bench_')}.txt").write_text(
                output + "\n"
            )
        status = "ok" if ok else "FAILED"
        print(f"{name:<40} {status:>6}  {report['seconds']:>7.2f}s")
        if error:
            print(error)
        reports.append(report)
    return reports


def environment_stamp(started_at: float) -> dict:
    """Provenance for BENCH_perf.json: wall-clock numbers only make
    sense relative to the interpreter and machine that produced them."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "total_wall_seconds": round(time.perf_counter() - started_at, 3),
    }


def headline_numbers() -> dict:
    """The distilled perf summary for BENCH_perf.json."""
    from benchmarks.bench_a5_batching import measure
    from benchmarks.bench_a6_adaptive import headline as adaptive_headline
    from benchmarks.bench_c1_check_throughput import headline as check_headline
    from benchmarks.bench_k1_hotpath import hotpath_headline
    from benchmarks.bench_o1_obs_overhead import obs_headline
    from benchmarks.bench_p1_paxos import headline as paxos_headline
    from benchmarks.bench_r1_chaos import headline as chaos_headline
    from benchmarks.bench_s1_sharded_gtm import headline as sharded_headline
    from benchmarks.bench_s2_dataplane import headline as dataplane_headline

    protocols = {}
    for protocol, granularity, piggyback in [
        ("after", "per_site", False),
        ("before", "per_site", True),
    ]:
        plain = measure(
            protocol, granularity, piggyback, window=0.0, n_txns=16, n_sites=2
        )
        batched = measure(
            protocol, granularity, piggyback, window=1.0, n_txns=16, n_sites=2
        )
        label = f"{protocol}/{granularity}"
        protocols[label] = {
            "committed": len(batched["committed"]),
            "outcomes_identical": batched["committed"] == plain["committed"],
            "logical_msgs_per_txn": {
                "unbatched": round(plain["logical_per_txn"], 2),
                "batched": round(batched["logical_per_txn"], 2),
            },
            "envelopes_per_txn": {
                "unbatched": round(plain["envelopes_per_txn"], 2),
                "batched": round(batched["envelopes_per_txn"], 2),
            },
            "envelope_reduction": round(
                1.0 - batched["envelopes_per_txn"] / plain["envelopes_per_txn"], 3
            ),
            "decision_forces": {
                "unbatched": plain["decision_forces"],
                "batched": batched["decision_forces"],
            },
            "mean_response": {
                "unbatched": round(plain["mean_resp"], 2),
                "batched": round(batched["mean_resp"], 2),
            },
        }

    return {
        "scenario": "16 concurrent 2-site transactions, batch/pipeline window 1.0",
        "protocols": protocols,
        "kernel_hotpath": hotpath_headline(),
        "chaos": chaos_headline(),
        "obs": obs_headline(),
        "sharded": sharded_headline(),
        "dataplane": dataplane_headline(),
        "paxos": paxos_headline(),
        "check": check_headline(),
        "adaptive": adaptive_headline(),
    }


def main(argv: list[str]) -> int:
    only = None
    if "--only" in argv:
        index = argv.index("--only") + 1
        if index >= len(argv):
            print("error: --only requires a benchmark-name prefix", file=sys.stderr)
            return 2
        only = argv[index]
        if not any(name.startswith(only) for name in bench_modules()):
            print(f"error: no benchmark matches prefix {only!r}", file=sys.stderr)
            return 2
    started_at = time.perf_counter()
    reports = run_benchmarks(only=only)
    if only:
        # A partial run must not clobber the full BENCH_perf.json
        # inventory; the per-bench JSONs above are the result.
        print(f"\npartial run ({len(reports)} benchmark(s)); BENCH_perf.json untouched")
    else:
        summary = headline_numbers()
        summary["environment"] = environment_stamp(started_at)
        summary["benchmarks"] = [
            {"bench": r["bench"], "ok": r["ok"], "seconds": r["seconds"]}
            for r in reports
        ]
        out = REPO_ROOT / "BENCH_perf.json"
        out.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"\nwrote {out}")
    failures = [r["bench"] for r in reports if not r["ok"]]
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
