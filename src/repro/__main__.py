"""``python -m repro`` -- a 30-second demonstration.

With no arguments: runs one transfer under each commit protocol
against a fresh two-bank federation, prints the outcome and the
per-protocol cost, then shows the paper's headline effect: an intended
abort is free under commit-after and needs inverse transactions under
commit-before.

With ``--protocol``: runs a transfer workload under that one protocol,
with ``--sites``/``--txns``/``--seed`` shaping the federation and
``--report``/``--trace-out`` exporting the observability views (the
paper's §4 cost table and a Chrome ``trace_event`` JSON for
``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import argparse
from typing import Optional

from repro import Federation, FederationConfig, GTMConfig, SiteSpec, ops
from repro.bench.report import format_table
from repro.core.invariants import atomicity_report
from repro.core.protocols import (
    default_granularity,
    preparable_protocols,
    protocol_names,
)

PROTOCOLS = protocol_names()


def build(
    protocol: str,
    sites: int = 2,
    seed: int = 1,
    metrics: bool = False,
    spans: bool = False,
    coordinators: int = 1,
    partitions: int = 0,
    replication: int = 1,
    batch_window: float = 0.0,
    batch_policy: str = "static",
    keys: int = 0,
) -> Federation:
    preparable = protocol in preparable_protocols()
    granularity = default_granularity(protocol)
    specs = [
        SiteSpec(
            f"bank_{index}",
            tables={
                f"acc_{index}": (
                    # The demo's single shared row maximises visible
                    # contention; open-loop traffic gets a keyspace so
                    # the admission controller, not the lock queue on
                    # one row, shapes the latency.
                    {f"k{j}": 100 for j in range(keys)}
                    if keys
                    else {"holder": 100}
                )
            },
            preparable=preparable,
            buckets=keys if keys else 8,
        )
        for index in range(sites)
    ]
    placement = None
    if partitions > 0:
        from repro.dataplane import PlacementSpec

        # One shared account namespace hash-placed across the banks;
        # four keys per partition keeps the demo's contention visible.
        placement = [
            PlacementSpec(
                table="acct",
                partitions=partitions,
                replication=replication,
                rows={f"k{index}": 100 for index in range(4 * partitions)},
            )
        ]
    return Federation(
        specs,
        FederationConfig(
            seed=seed,
            metrics=metrics,
            spans=spans,
            coordinators=coordinators,
            placement=placement,
            batch_window=batch_window,
            batch_policy=batch_policy,
            gtm=GTMConfig(
                protocol=protocol,
                granularity=granularity,
                pipeline_window=batch_window,
                pipeline_policy=batch_policy,
            ),
        ),
    )


def demo() -> None:
    """The original all-protocols comparison (default behaviour)."""
    print(__doc__)
    rows = []
    for protocol in PROTOCOLS:
        fed = build(protocol)
        commit = fed.submit(
            [ops.increment("acc_0", "holder", -10), ops.increment("acc_1", "holder", 10)]
        )
        fed.run()
        abort = fed.submit(
            [ops.increment("acc_0", "holder", -5), ops.increment("acc_1", "holder", 5)],
            intends_abort=True,
        )
        fed.run()
        rows.append([
            protocol,
            "yes" if commit.value.committed else "NO",
            round(commit.value.response_time, 1),
            fed.network.sent,
            abort.value.undo_executions,
            fed.peek("bank_0", "acc_0", "holder"),
            fed.peek("bank_1", "acc_1", "holder"),
            "OK" if atomicity_report(fed).ok else "VIOLATED",
        ])
    print(format_table(
        ["protocol", "commit ok", "resp time", "messages",
         "undo txns on abort", "bank_0", "bank_1", "atomicity"],
        rows,
        title="one committed transfer + one intended abort, per protocol",
    ))
    print("\nAll balances 90/110: the committed transfer applied exactly once,")
    print("the aborted one left no trace -- by plain abort (2PC/after) or by")
    print("inverse transactions (before/saga/altruistic), per the 1991 paper.")


def run_single(
    protocol: str,
    sites: int,
    txns: int,
    seed: int,
    report: bool,
    trace_out: Optional[str],
    coordinators: int = 1,
    partitions: int = 0,
    replication: int = 1,
    zipf: float = 0.0,
    batch_window: float = 0.0,
    batch_policy: str = "static",
) -> None:
    """One-protocol run with optional observability exports."""
    fed = build(
        protocol, sites=sites, seed=seed,
        metrics=report or trace_out is not None,
        spans=trace_out is not None,
        coordinators=coordinators,
        partitions=partitions,
        replication=replication,
        batch_window=batch_window,
        batch_policy=batch_policy,
    )
    batches = []
    if partitions > 0:
        # Transfers inside the placed namespace: the data plane routes
        # each key to its partition's replica set at decompose time.
        keys = [f"k{index}" for index in range(4 * partitions)]
        picker = None
        if zipf > 0.0:
            from bisect import bisect_left

            from repro.workloads.generator import zipf_cdf

            cdf = zipf_cdf(len(keys), zipf)
            rng = fed.kernel.rng.stream("cli-zipf")
            picker = lambda: keys[bisect_left(cdf, rng.random())]  # noqa: E731
        for index in range(txns):
            if picker is not None:
                src_key = picker()
                dst_key = picker()
                if dst_key == src_key:
                    dst_key = keys[(keys.index(src_key) + 1) % len(keys)]
            else:
                src_key = keys[index % len(keys)]
                dst_key = keys[(index + 1) % len(keys)]
            batches.append({
                "operations": [
                    ops.increment("acct", src_key, -1),
                    ops.increment("acct", dst_key, 1),
                ],
                "name": f"transfer-{index}",
                "delay": index * 25.0,
            })
    else:
        for index in range(txns):
            src = index % sites
            dst = (index + 1) % sites
            batches.append({
                "operations": [
                    ops.increment(f"acc_{src}", "holder", -1),
                    ops.increment(f"acc_{dst}", "holder", 1),
                ],
                "name": f"transfer-{index}",
                # Staggered submission: the default workload demonstrates
                # protocol cost, not contention (all transfers touch the
                # same accounts).
                "delay": index * 25.0,
            })
    outcomes = fed.run_transactions(batches)
    committed = sum(1 for outcome in outcomes if outcome.committed)
    shards = (
        f", {coordinators} coordinators" if coordinators > 1 else ""
    )
    placed = (
        f", {partitions} partitions x{replication}" if partitions > 0 else ""
    )
    print(
        f"{protocol}: {committed}/{txns} committed over {sites} sites"
        f"{shards}{placed} (seed {seed}), atomicity "
        f"{'OK' if atomicity_report(fed).ok else 'VIOLATED'}"
    )
    if partitions > 0:
        dp = fed.dataplane
        print(
            f"data plane: routed_reads={dp.routed_reads} "
            f"routed_writes={dp.routed_writes} promotions={dp.promotions} "
            f"stale_rejections={dp.stale_rejections}"
        )
    if report:
        print()
        print(fed.report().render())
    if trace_out is not None:
        from repro.obs import validate_chrome_trace, write_chrome_trace

        doc = write_chrome_trace(fed.obs.span_forest(), trace_out)
        problems = validate_chrome_trace(doc)
        if problems:
            raise SystemExit(f"invalid chrome trace: {problems}")
        print(f"\nwrote {len(doc['traceEvents'])} trace events to {trace_out}")


def run_open_loop(
    protocol: str,
    sites: int,
    txns: int,
    seed: int,
    arrival: str,
    arrival_rate: float,
    slo_p99: float,
    coordinators: int = 1,
    batch_window: float = 0.0,
    batch_policy: str = "static",
) -> None:
    """Open-loop traffic run: arrival pattern + optional SLO control."""
    from repro.workloads.open_loop import OpenLoopDriver, OpenLoopSpec

    keys = 64
    fed = build(
        protocol, sites=sites, seed=seed,
        coordinators=coordinators,
        batch_window=batch_window,
        batch_policy=batch_policy,
        keys=keys,
    )
    batches = [
        {
            "operations": [
                ops.increment(f"acc_{index % sites}", f"k{index % keys}", -1),
                ops.increment(f"acc_{(index + 1) % sites}", f"k{index % keys}", 1),
            ],
            "name": f"transfer-{index}",
        }
        for index in range(txns)
    ]
    driver = OpenLoopDriver(
        fed,
        OpenLoopSpec(
            arrival_rate=arrival_rate,
            n_txns=txns,
            arrival=arrival,
            slo_p99=slo_p99,
        ),
    )
    result = driver.run(batches).as_dict()
    corrected = result["p99_admitted_or_shed"]
    print(
        f"{protocol}: open-loop {arrival} arrivals at rate {arrival_rate} "
        f"(seed {seed}): {result['committed']}/{txns} committed, "
        f"{result['shed']} shed, throughput {result['throughput']:.4f}/u"
    )
    print(
        f"latency: p50 {result['p50_response']}, p99 {result['p99_response']} "
        f"(committed only), p99 admitted-or-shed "
        f"{'unbounded (shed tail)' if corrected is None else corrected}"
    )
    if slo_p99 > 0:
        print(
            f"slo: target p99 {slo_p99}, slo_sheds {result['slo_sheds']}, "
            f"throttles {result['slo_throttles']}, min admission scale "
            f"{result['min_admission_scale']}"
        )


def main(argv: Optional[list[str]] = None) -> None:
    import sys

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "check":
        # The checker has its own argument set and exit-code contract
        # (1 = counterexample found); see repro.check.cli.
        from repro.check.cli import main as check_main

        raise SystemExit(check_main(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Atomic commitment for integrated database systems (demo + reports).",
    )
    parser.add_argument(
        "--protocol", choices=PROTOCOLS, default=None,
        help="run one protocol instead of the all-protocols demo",
    )
    parser.add_argument("--sites", type=int, default=2, help="number of local sites")
    parser.add_argument(
        "--coordinators", type=int, default=1,
        help="number of commit coordinators (sharded GTM pool; default 1)",
    )
    parser.add_argument("--txns", type=int, default=4, help="number of transfers to run")
    parser.add_argument(
        "--partitions", type=int, default=0,
        help="> 0: place one shared table across the sites via the data "
        "plane (hash partitioning, one namespace)",
    )
    parser.add_argument(
        "--replication", type=int, default=1,
        help="replica-set size per partition (requires --partitions)",
    )
    parser.add_argument(
        "--zipf", type=float, default=0.0,
        help="Zipf skew exponent for key choice (requires --partitions)",
    )
    parser.add_argument("--seed", type=int, default=1, help="simulation seed")
    parser.add_argument(
        "--batch-window", type=float, default=0.0,
        help="> 0: per-link message batching + decision pipelining "
        "window (0 = unbatched seed path)",
    )
    parser.add_argument(
        "--batch-policy", choices=("static", "adaptive"), default="static",
        help="flush policy for the batch/pipeline windows: static "
        "fixed-delay or adaptive size-or-deadline (requires --batch-window)",
    )
    parser.add_argument(
        "--arrival", default=None,
        choices=("poisson", "diurnal", "bursty", "flash_crowd"),
        help="run open-loop traffic with this arrival pattern instead "
        "of the staggered batch workload (requires --protocol)",
    )
    parser.add_argument(
        "--arrival-rate", type=float, default=0.25,
        help="mean arrivals per time unit for --arrival (default 0.25)",
    )
    parser.add_argument(
        "--slo-p99", type=float, default=0.0,
        help="> 0: target p99 response time for the open-loop admission "
        "controller (requires --arrival)",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="print the paper's §4 cost table for the run",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON of the run's spans",
    )
    args = parser.parse_args(argv)
    if args.sites < 2:
        parser.error("--sites must be at least 2")
    if args.coordinators < 1:
        parser.error("--coordinators must be at least 1")
    if args.partitions < 0:
        parser.error("--partitions must be >= 0")
    if args.replication < 1:
        parser.error("--replication must be at least 1")
    if args.partitions == 0 and (args.replication != 1 or args.zipf):
        parser.error("--replication/--zipf require --partitions")
    if args.zipf < 0:
        parser.error("--zipf must be >= 0")
    if args.batch_window < 0:
        parser.error("--batch-window must be >= 0")
    if args.batch_policy == "adaptive" and args.batch_window == 0:
        parser.error("--batch-policy adaptive requires --batch-window > 0")
    if args.slo_p99 < 0:
        parser.error("--slo-p99 must be >= 0")
    if args.slo_p99 and args.arrival is None:
        parser.error("--slo-p99 requires --arrival")
    if args.arrival is not None and args.arrival_rate <= 0:
        parser.error("--arrival-rate must be positive")
    if args.protocol is None:
        if args.report or args.trace_out:
            parser.error("--report/--trace-out require --protocol")
        if args.coordinators != 1:
            parser.error("--coordinators requires --protocol")
        if args.partitions:
            parser.error("--partitions requires --protocol")
        if args.batch_window or args.arrival:
            parser.error("--batch-window/--arrival require --protocol")
        demo()
        return
    if args.arrival is not None:
        if args.partitions:
            parser.error("--arrival does not combine with --partitions")
        if args.report or args.trace_out:
            parser.error("--arrival does not combine with --report/--trace-out")
        run_open_loop(
            args.protocol, args.sites, args.txns, args.seed,
            arrival=args.arrival,
            arrival_rate=args.arrival_rate,
            slo_p99=args.slo_p99,
            coordinators=args.coordinators,
            batch_window=args.batch_window,
            batch_policy=args.batch_policy,
        )
        return
    run_single(
        args.protocol, args.sites, args.txns, args.seed,
        report=args.report, trace_out=args.trace_out,
        coordinators=args.coordinators,
        partitions=args.partitions,
        replication=args.replication,
        zipf=args.zipf,
        batch_window=args.batch_window,
        batch_policy=args.batch_policy,
    )


if __name__ == "__main__":
    main()
