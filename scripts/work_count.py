"""Deterministic work per commit: Python opcodes and calls, by layer.

Runs one cell of a commit-ledger workload at smoke size and counts,
with a ``sys.settrace`` opcode tracer, every bytecode instruction and
every frame entry (calls and generator resumptions) inside the cell's
timed section -- the same section ``wall_us_per_commit`` times.  Each
count goes to the layer of the source file executing it, by the
ledger's own module-to-layer map (``benchmarks.ledger.spec.layer_of``);
code outside ``repro`` (the standard library, the harness) is
``other``.  The cell runs once first, uncounted, so one-time work (lazy
imports, caches) is not counted, and the counted run keeps the cyclic
collector off, as the ledger's timed section does: a collection at an
allocation-dependent moment would finalize suspended generators, and
each finalization counts as a call.

Wall time on a shared machine varies by several percent from run to
run; these counts do not vary at all, so a wall-only change can show
that it did (or did not) reduce work.  Tracing slows the run many
times over: measure wall time with the ledger, not here.

Usage (from the repo root)::

    python3 scripts/work_count.py --workload contended_mix \\
        [--protocol before] [--phase nominal] [--seed 1]
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
import time
from typing import Any, Callable

ROOT = pathlib.Path(__file__).resolve().parents[1]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.ledger.spec import LAYERS, layer_of  # noqa: E402
from benchmarks.ledger.workloads import WORKLOADS  # noqa: E402

OTHER = "other"


def count(fn: Callable[[], Any]) -> tuple[Any, dict[str, list[int]]]:
    """Run ``fn`` under the tracer: (its value, layer -> [opcodes, calls])."""
    counts: dict[str, list[int]] = {}
    local_tracers: dict[str, Callable] = {}
    layer_by_file: dict[str, str] = {}

    def local_tracer(tally: list[int]) -> Callable:
        def trace(frame, event, arg):
            if event == "opcode":
                tally[0] += 1
            return trace

        return trace

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        layer = layer_by_file.get(filename)
        if layer is None:
            layer = layer_by_file[filename] = layer_of(filename) or OTHER
            if layer not in counts:
                counts[layer] = [0, 0]
                local_tracers[layer] = local_tracer(counts[layer])
        counts[layer][1] += 1
        frame.f_trace_opcodes = True
        return local_tracers[layer]

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        value = fn()
    finally:
        sys.settrace(previous)
    return value, counts


def count_cell(workload: str, protocol: str, phase: str, seed: int):
    """One smoke-size ledger cell: (committed, layer -> [opcodes, calls])."""
    chosen = WORKLOADS[workload]
    inputs = chosen.generate(seed, "smoke")
    tallies = []

    def traced(fn):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            value, counts = count(fn)
            tallies.append(counts)
            return value, time.perf_counter() - started
        finally:
            gc.enable()

    chosen.run_cell(protocol, phase, inputs, traced)  # warm-up
    cell = chosen.run_cell(protocol, phase, inputs, traced)
    return cell.committed, tallies[-1]


def render(counts: dict[str, list[int]], per: int, unit: str) -> str:
    rows = [(layer, *counts[layer]) for layer in LAYERS + [OTHER] if layer in counts]
    total_ops = sum(row[1] for row in rows)
    total_calls = sum(row[2] for row in rows)
    lines = [f"{'layer':<16} {'opcodes' + unit:>18} {'calls' + unit:>16} {'share':>6}"]
    for layer, ops, calls in rows:
        lines.append(
            f"{layer:<16} {ops / per:>18.1f} {calls / per:>16.1f} {ops / total_ops:>6.1%}"
        )
    lines.append(f"{'total':<16} {total_ops / per:>18.1f} {total_calls / per:>16.1f}")
    lines.append(f"opcodes {total_ops} calls {total_calls}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), default="commit_matrix")
    parser.add_argument("--protocol", help="default: the workload's first protocol")
    parser.add_argument("--phase", help="default: the workload's first phase")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    protocol, phase = workload.cells()[0]
    protocol, phase = args.protocol or protocol, args.phase or phase
    if (protocol, phase) not in workload.cells():
        parser.error(f"{args.workload} has no cell {protocol}/{phase}")
    committed, counts = count_cell(args.workload, protocol, phase, args.seed)
    print(f"{args.workload} {protocol}/{phase} seed {args.seed} smoke: {committed} committed")
    print(render(counts, max(committed, 1), "/commit"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
