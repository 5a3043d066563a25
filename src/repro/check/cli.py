"""``python -m repro check`` -- the checker's command line.

Explore one protocol's schedule space (DFS with partial-order
reduction, or a seeded PCT sweep), optionally enumerate crash points
at durable-force boundaries, shrink the first violation found and
write it as a replayable ``.repro.json``.  ``--replay`` re-executes a
previously written trace and re-audits its invariants.

Exit status: 0 when every explored execution kept all invariants (or a
replay no longer violates), 1 when a violation was found (the shrunk
counterexample's path is printed).
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro.check.engine import (
    CheckReport,
    explore,
    explore_coordinator_crash_points,
    explore_crash_points,
    replay_execution,
    run_pct,
)
from repro.check.scenarios import CHECK_PROTOCOLS, MUTANTS, CheckSpec
from repro.check.shrink import shrink_counterexample
from repro.check.trace import ReproTrace, write_counterexample
from repro.core.protocols import protocol_info


def _build_spec(args: argparse.Namespace) -> CheckSpec:
    granularity = dict(CHECK_PROTOCOLS).get(args.protocol, "per_site")
    return CheckSpec(
        protocol=args.protocol,
        granularity=granularity,
        workload=args.workload,
        seed=args.seed,
        coordinators=args.coordinators,
        mutant=args.mutant,
        partitions=args.partitions,
        replication=args.replication,
        pipeline_window=args.pipeline_window,
    )


def _emit_counterexample(
    spec: CheckSpec, report: CheckReport, out: str
) -> None:
    result = report.counterexample
    assert result is not None
    shrunk = shrink_counterexample(
        spec, result.choices, crashes=tuple(result.crashes)
    )
    if shrunk is not None:
        result = replay_execution(spec, shrunk, crashes=tuple(result.crashes))
        result.choices = shrunk
    trace = write_counterexample(out, spec, result)
    print(f"violation found after {report.executions} execution(s):")
    for violation in trace.violations:
        print(f"  {violation}")
    print(f"shrunk schedule: {trace.schedule}")
    print(f"wrote {out} (replay with: python -m repro check --replay {out})")


def _replay(path: str) -> int:
    trace = ReproTrace.read(path)
    result = trace.replay()
    status = "clean" if result.ok else "VIOLATES"
    print(
        f"replayed {path}: protocol={trace.spec.protocol} "
        f"schedule={trace.schedule} -> {status}"
    )
    for violation in result.violations:
        print(f"  {violation}")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro check",
        description="systematic schedule & crash-point exploration checker",
    )
    parser.add_argument(
        "--protocol", default="before",
        choices=sorted({protocol for protocol, _g in CHECK_PROTOCOLS}),
        help="commit protocol to check (granularity follows the protocol)",
    )
    parser.add_argument(
        "--workload", default="transfers",
        choices=("transfers", "rw_cross", "replicated", "exposure"),
        help="scenario workload (replicated needs --partitions)",
    )
    parser.add_argument(
        "--partitions", type=int, default=0,
        help="> 0: place one partitioned global table across the sites",
    )
    parser.add_argument(
        "--replication", type=int, default=1,
        help="replica-set size per partition (with --partitions)",
    )
    parser.add_argument(
        "--strategy", default="dfs", choices=("dfs", "pct"),
        help="dfs = bounded exhaustive with POR; pct = seeded priority sweep",
    )
    parser.add_argument(
        "--depth", type=int, default=6,
        help="DFS: number of backtrackable choice points",
    )
    parser.add_argument(
        "--budget", type=int, default=200,
        help="max executions (DFS) / number of seeded schedules (PCT)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--coordinators", type=int, default=1,
        help="GTM pool width (1 = the paper's single central GTM)",
    )
    parser.add_argument(
        "--mutant", default="", choices=("",) + MUTANTS,
        help="inject a known protocol bug (regression: must be caught)",
    )
    parser.add_argument(
        "--pipeline-window", type=float, default=0.0,
        help="> 0: batch commit decisions per site (group-decision "
        "pipeline) while exploring",
    )
    parser.add_argument(
        "--crash-points", action="store_true",
        help="also run one execution per durable log-force boundary",
    )
    parser.add_argument(
        "--coordinator-crash-points", action="store_true",
        help="non-blocking exhibit: kill each coordinator shard in turn "
        "(no restart) at every durable-force boundary instead of "
        "exploring schedules",
    )
    parser.add_argument(
        "--acceptor-crashes", type=int, default=0,
        help="with --coordinator-crash-points and --protocol paxos: also "
        "kill this many acceptors at the same instant (F of 2F+1)",
    )
    parser.add_argument(
        "--out", default="counterexample.repro.json",
        help="where to write the shrunk counterexample trace",
    )
    parser.add_argument(
        "--replay", metavar="PATH", default=None,
        help="re-execute a .repro.json trace and re-audit it",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.replay is not None:
        return _replay(args.replay)

    spec = _build_spec(args)
    if (
        args.acceptor_crashes
        and not protocol_info(spec.protocol).load().replicated_decisions
    ):
        parser.error("--acceptor-crashes requires --protocol paxos")
    if args.coordinator_crash_points:
        report = explore_coordinator_crash_points(
            spec, acceptor_crashes=args.acceptor_crashes
        )
        label = f"{spec.protocol} coordinators={spec.coordinators}" + (
            f" acceptor-crashes={args.acceptor_crashes}"
            if args.acceptor_crashes else ""
        )
        print(
            f"{label}: a shard killed in each of {report.crash_points} "
            f"(shard, durable-force boundary) plans, {report.executions} "
            f"executions, {report.violation_count} with blocked transactions"
        )
        if report.counterexample is not None:
            _emit_counterexample(spec, report, args.out)
            return 1
        print("no execution blocked: every transaction resolved everywhere")
        return 0

    if args.strategy == "pct":
        report = CheckReport(spec=spec)
        for offset in range(args.budget):
            if report.record(run_pct(spec, args.seed + offset)):
                break
        report.exhausted = report.counterexample is None
    else:
        report = explore(spec, depth=args.depth, budget=args.budget)

    summary = report.summary()
    print(
        f"{spec.protocol}/{spec.workload}"
        + (f" [{spec.mutant}]" if spec.mutant else "")
        + f": {summary['executions']} executions, "
        f"{summary['choice_points']} choice points, "
        f"{summary['pruned']} pruned by POR, "
        f"exhausted={summary['exhausted']}"
    )
    if report.counterexample is not None:
        _emit_counterexample(spec, report, args.out)
        return 1

    if args.crash_points:
        crash_report = explore_crash_points(spec)
        print(
            f"crash points: {crash_report.crash_points} boundaries, "
            f"{crash_report.executions} executions, "
            f"{crash_report.violation_count} violations"
        )
        if crash_report.counterexample is not None:
            _emit_counterexample(spec, crash_report, args.out)
            return 1

    print("all explored executions kept every invariant")
    return 0
