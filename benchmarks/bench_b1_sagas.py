"""EXP-B1 -- related-work baselines: sagas and altruistic locking (§5).

Sagas "use compensating local transactions ... but global
serializability is not ensured"; altruistic locking provides it "by a
more complicated algorithm maintaining dependencies between
transactions".  The benchmark runs the same mixed workload under the
saga coordinator, altruistic locking and commit-before+MLT and reports
throughput together with the global-serializability verdict of the
checker.
"""

from repro.bench import closed_loop, format_table, protocol_federation
from repro.core.invariants import atomicity_report, serializability_ok
from repro.core.serializability import committed_history, quasi_serializability
from repro.integration.federation import SiteSpec
from repro.workloads import WorkloadGenerator, WorkloadSpec

from benchmarks._common import run_once, save_result

HORIZON = 700


def measure(protocol: str):
    specs = [
        SiteSpec(f"s{i}", tables={f"t{i}": {f"k{j}": 100 for j in range(4)}})
        for i in range(2)
    ]
    fed = protocol_federation(protocol, specs, granularity="per_action", seed=21)
    workload = WorkloadSpec(
        ops_per_txn=4,
        read_fraction=0.4,          # reads make the anomalies observable
        increment_fraction=0.3,
        hotspot_fraction=0.8,
        hot_object_count=2,
    )
    generator = WorkloadGenerator(
        workload, [(f"t{i}", f"k{j}") for i in range(2) for j in range(4)]
    )
    stats = closed_loop(
        fed, generator.next_transaction, n_workers=6, horizon=HORIZON,
        label=protocol,
    )
    return stats, fed


def run_experiment() -> str:
    rows = []
    verdicts = {}
    for protocol, label in [
        ("saga", "saga [GS 87]"),
        ("altruistic", "altruistic [AGK 87]"),
        ("before", "commit-before+MLT"),
    ]:
        stats, fed = measure(protocol)
        serializable = serializability_ok(fed)
        committed_gtxns = {
            o.gtxn_id for o in fed.gtm.outcomes if o.committed
        }
        histories = {
            site: [op for op in committed_history(engine) if op.gtxn_id in committed_gtxns]
            for site, engine in fed.engines.items()
        }
        qsr = bool(quasi_serializability(histories, committed_gtxns))
        verdicts[label] = (serializable, qsr)
        rows.append([
            label, stats.committed,
            round(stats.throughput * 1000, 2),
            round(stats.mean_response_time, 1),
            "yes" if serializable else "NO",
            "yes" if qsr else "NO",
            "OK" if atomicity_report(fed).ok else "VIOLATED",
        ])
    table = format_table(
        ["scheme", "committed", "thr (txn/1k)", "mean resp",
         "globally SR", "quasi-SR [DE 89]", "atomicity"],
        rows,
        title="EXP-B1 (§5): related-work baselines on a mixed read/increment hotspot",
    )
    assert verdicts["saga [GS 87]"][0] is False       # the paper's critique
    assert verdicts["altruistic [AGK 87]"][0] is True
    assert verdicts["commit-before+MLT"][0] is True
    table += (
        "\npaper: sagas sacrifice global serializability; the others preserve it. "
        "The quasi-serializability column applies the weaker [DE 89] criterion."
    )
    return table


def test_b1_sagas(benchmark):
    save_result("b1_sagas", run_once(benchmark, run_experiment))
