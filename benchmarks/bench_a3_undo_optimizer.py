"""EXP-A3 -- extension: optimizing inverse transactions.

§4.1 ends with "Optimizing the execution of inverse actions is not
considered in this paper."  This extension implements the two safe
collapses (netting increments, dead-write elimination) and measures the
saving on aborting transactions that touch the same objects repeatedly.
"""

import random

from repro.bench import format_table
from repro.core.gtm import GTMConfig
from repro.core.invariants import atomicity_report
from repro.core.serializability import committed_history
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment, write

from benchmarks._common import run_once, save_result

N_TXNS = 6
OPS_PER_TXN = 8


def build(optimize: bool) -> Federation:
    return Federation(
        [SiteSpec("s0", tables={"t0": {"x": 1000, "y": 1000}})],
        FederationConfig(
            seed=6,
            gtm=GTMConfig(
                protocol="before", granularity="per_site", optimize_undo=optimize
            ),
        ),
    )


def measure(optimize: bool) -> dict:
    fed = build(optimize)
    rng = random.Random(2)
    ops_before = None
    for index in range(N_TXNS):
        # Many repeated touches of the same two objects, then abort.
        operations = [
            increment("t0", rng.choice(["x", "y"]), rng.randint(1, 5))
            for _ in range(OPS_PER_TXN)
        ]
        process = fed.submit(operations, intends_abort=True)
        fed.run()
        assert not process.value.committed
    assert fed.peek("s0", "t0", "x") == 1000
    assert fed.peek("s0", "t0", "y") == 1000
    assert atomicity_report(fed).ok
    engine = fed.engines["s0"]
    # Inverse work = operations executed by the committed !undo transactions.
    undo_ops = sum(
        1
        for record in committed_history(engine)
        if record.gtxn_id and record.gtxn_id.endswith("!undo")
        and record.table == "t0"
    )
    return {
        "undo_ops": undo_ops,
        "total_ops": engine.ops,
        "log_records": engine.log.appended,
    }


def run_experiment() -> str:
    plain = measure(optimize=False)
    optimized = measure(optimize=True)
    rows = [
        ["reverse-order inverses (paper)", plain["undo_ops"],
         plain["total_ops"], plain["log_records"]],
        ["optimized inverses (extension)", optimized["undo_ops"],
         optimized["total_ops"], optimized["log_records"]],
    ]
    table = format_table(
        ["undo strategy", "inverse data ops", "total engine ops", "log records"],
        rows,
        title=(
            f"EXP-A3: {N_TXNS} aborting transactions x {OPS_PER_TXN} increments "
            "over two hot objects"
        ),
    )
    saving = 1 - optimized["undo_ops"] / plain["undo_ops"]
    table += f"\ninverse-work saving: {saving:.0%} (same restored state, audited)"
    assert optimized["undo_ops"] < plain["undo_ops"]
    return table


def test_a3_undo_optimizer(benchmark):
    save_result("a3_undo_optimizer", run_once(benchmark, run_experiment))
