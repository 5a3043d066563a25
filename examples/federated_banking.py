"""Federated banking: a multi-bank workload under every commit protocol.

Three banks, random cross-bank transfers and balance audits, with a
fraction of transactions aborting by intent.  The same workload runs
under each protocol; the script reports throughput, response time,
redo/undo work and verifies money conservation -- a compact version of
the paper's §4.3 comparison.

Run:  python examples/federated_banking.py
"""

from repro.bench import closed_loop, format_table, protocol_federation
from repro.core.invariants import (
    atomicity_report,
    conservation_violations,
    serializability_ok,
)
from repro.integration.federation import SiteSpec
from repro.workloads.banking import all_accounts, balance_audit, transfer

N_SITES = 3
ACCOUNTS = 4
INITIAL = 1000
HORIZON = 600


def make_txn_factory():
    def factory(rng):
        if rng.random() < 0.2:
            return balance_audit(N_SITES, ACCOUNTS, sample=3, rng=rng), False
        intends_abort = rng.random() < 0.1
        return transfer(rng, N_SITES, ACCOUNTS), intends_abort

    return factory


def site_specs():
    return [
        SiteSpec(
            f"bank_{i}",
            tables={f"accounts_{i}": {f"acct{i}_{j}": INITIAL for j in range(ACCOUNTS)}},
        )
        for i in range(N_SITES)
    ]


def main() -> None:
    rows = []
    for protocol, granularity, label in [
        ("before", "per_action", "commit-before+MLT"),
        ("before", "per_site", "commit-before/site"),
        ("after", "per_site", "commit-after"),
        ("2pc", "per_site", "2PC (modified TMs)"),
    ]:
        fed = protocol_federation(protocol, site_specs(), granularity=granularity, seed=99)
        stats = closed_loop(
            fed, make_txn_factory(), n_workers=5, horizon=HORIZON, label=label
        )
        conserved = not conservation_violations(
            fed, dict.fromkeys(all_accounts(N_SITES, ACCOUNTS), INITIAL)
        )
        rows.append([
            label, stats.committed, stats.aborted,
            round(stats.throughput * 1000, 1),
            round(stats.mean_response_time, 1),
            stats.redo_executions, stats.undo_executions,
            "OK" if conserved else "LOST MONEY",
            "OK" if atomicity_report(fed).ok else "VIOLATED",
            "OK" if serializability_ok(fed) else "VIOLATED",
        ])
    print(format_table(
        ["protocol", "committed", "aborted", "thr/1k", "mean resp",
         "redos", "undos", "conservation", "atomicity", "serializability"],
        rows,
        title=f"Federated banking: {N_SITES} banks, transfers + audits, 10% intended aborts",
    ))


if __name__ == "__main__":
    main()
