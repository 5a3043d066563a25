"""The kitchen-sink sweep: every protocol, faults on, invariants audited.

One compact scenario (transfers with intended aborts plus an injected
erroneous-abort source and a crash/recovery cycle) runs under every
protocol across several seeds.  Each run is audited by the full
invariant battery (:func:`check_invariants`), conservation of the
accounts included; serializability is waived only for the protocols
that trade it away by design.
"""

import pytest

from repro.bench.harness import protocol_federation
from repro.core.invariants import check_invariants
from repro.core.protocols import redo_window_protocols
from repro.faults import FaultInjector
from repro.integration.federation import SiteSpec
from repro.workloads.banking import all_accounts, transfer

#: Every account and its initial balance: the battery's conservation cells.
ACCOUNTS = dict.fromkeys(all_accounts(2, 3), 100)

PROTOCOLS = [
    ("before", "per_action", True),
    ("before", "per_site", True),
    ("after", "per_site", True),
    ("2pc", "per_site", True),
    ("2pc-pa", "per_site", True),
    ("3pc", "per_site", True),
    ("saga", "per_action", False),       # not serializable by design
    ("altruistic", "per_action", True),
    ("one_phase", "per_site", True),
    ("short_commit", "per_site", True),
]


def run_one(protocol: str, granularity: str, seed: int):
    specs = [
        SiteSpec(
            f"bank_{i}",
            tables={f"accounts_{i}": {f"acct{i}_{j}": 100 for j in range(3)}},
        )
        for i in range(2)
    ]
    fed = protocol_federation(
        protocol, specs, granularity=granularity, seed=seed, msg_timeout=25
    )
    fed.gtm.config.status_poll_interval = 8
    injector = FaultInjector(fed)
    if protocol in redo_window_protocols():
        injector.erroneous_aborts_after_ready(probability=0.4, delay=0.3)
    injector.crash_site("bank_1", at=60.0, recover_after=50.0)
    rng = fed.kernel.rng.stream("sweep")
    batches = [
        {
            "operations": transfer(rng, 2, 3),
            "intends_abort": rng.random() < 0.2,
            "delay": rng.uniform(0, 120),
        }
        for _ in range(6)
    ]
    fed.run_transactions(batches)
    return fed


@pytest.mark.parametrize("protocol,granularity,must_serialize", PROTOCOLS)
@pytest.mark.parametrize("seed", [201, 202])
def test_sweep(protocol, granularity, must_serialize, seed):
    fed = run_one(protocol, granularity, seed)
    violations = check_invariants(fed, conserved=ACCOUNTS)
    if not must_serialize:
        violations = [v for v in violations if v.invariant != "serializability"]
    assert violations == []
