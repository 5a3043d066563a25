"""The commit ledger's one command.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.ledger --seed N [--smoke] [--trace 1] [--out FILE]

With ``--workload`` it measures that workload in this process, prints
every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Without ``--workload`` it runs
the four workloads strictly one after another, each in a child process
of its own, so that ``peak_rss_mb`` is per workload and nothing
competes for the cores.  Any determinism, validity or audit failure
exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.ledger import layers, measure, spec  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402

ENVIRONMENT = (
    "simulated environment: star topology, fixed one-way message latency 1.0 u, "
    "default LocalDBConfig storage costs, time unit u; open loop (arrivals on "
    "schedule, latency from the scheduled arrival, unbounded queue); generator "
    "lateness 0 by construction (arrival instants are simulated time)"
)


def run_workload(name: str, seed: int, seconds: float, size: str, trace: bool) -> dict:
    """Measure one workload in this process; returns the full record."""
    workload = WORKLOADS[name]
    summary = measure.measure(workload, seed, size, seconds)
    record = {key: value for key, value in summary.items() if key != "cells"}
    if trace:
        record.update(layers.layer_metrics(workload, summary, seed, size))
    return record


def render(record: dict) -> str:
    """Every metric by name, with unit and sample counts."""
    lines = [
        f"== {record['workload']}  seed {record['seed']}  size {record['size']}  "
        f"{record['rounds']} rounds in {record['measured_s']:.1f} s  "
        f"inputs sha256 {record['input_sha256'][:16]}",
        f"   attempted {record['attempted']}  committed {record['committed']}  "
        f"failed {record['failed']}  audits ok",
    ]
    if WORKLOADS[record["workload"]].note:
        lines.append(f"   {WORKLOADS[record['workload']].note}")
    for metric in spec.END_TO_END:
        value = record["end_to_end"][metric.name]
        note = ""
        if metric.name in record["wall_spread"]:
            s = record["wall_spread"][metric.name]
            note = f"  (q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  min {s['min']:.4g}  n={s['rounds']})"
        elif metric.name in ("sim_p50_response", "sim_p99_response"):
            note = f"  (n={record['latency_samples']})"
        elif metric.name == "sim_slo_met_share":
            note = f"  (limit {record['slo_limit']} u)"
        lines.append(f"   {metric.name:38s} {value:14.6g} {metric.unit}{note}")
    units = {m.name: m.unit for m in spec.per_layer()}
    for name, value in record.get("per_layer", {}).items():
        lines.append(f"   {name:46s} {value:14.6g} {units[name]}")
    return "\n".join(lines)


def result_line(record: dict, trace: bool) -> str:
    """The contract's last line of standard output."""
    if trace:
        units = {m.name: m.unit for m in spec.per_layer()}
        values = record["per_layer"]
    else:
        units = {m.name: m.unit for m in spec.END_TO_END}
        values = record["end_to_end"]
    return json.dumps(
        {
            "correct": True,  # a failed audit or gate raised before this point
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one child process after another."""
    began = time.perf_counter()
    records = {}
    for name in WORKLOADS:
        part = pathlib.Path(f"{args.out or '.ledger'}.{name}.part")
        command = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(part),
        ] + (["--smoke"] if args.smoke else [])
        try:
            child = subprocess.run(command, check=False)
            if child.returncode != 0:
                print(f"{name}: exit code {child.returncode}", file=sys.stderr)
                return child.returncode
            records[name] = json.loads(part.read_text())
        finally:
            part.unlink(missing_ok=True)
    total_s = time.perf_counter() - began
    print(f"all {len(records)} workloads in {total_s:.1f} s")
    if args.out:
        document = {
            "seed": args.seed,
            "size": "smoke" if args.smoke else "full",
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "environment": ENVIRONMENT,
            "total_wall_s": total_s,
            "workloads": records,
        }
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="how long the untraced rounds measure (per workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the profiled and spans passes (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, three rounds: every metric in a few seconds")
    parser.add_argument("--out", help="write the full results JSON here")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0  # MIN_ROUNDS rounds only
    if args.workload is None:
        return run_all(args)

    try:
        record = run_workload(
            args.workload, args.seed, args.seconds,
            "smoke" if args.smoke else "full", bool(args.trace),
        )
    except measure.LedgerError as failure:
        print(f"LEDGER FAILURE: {failure}", file=sys.stderr)
        return 1
    print(ENVIRONMENT)
    print(render(record))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(result_line(record, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
