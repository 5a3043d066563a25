"""Golden byte-identity: the protocol family must not perturb the seed.

Adding one-phase and Short-Commit touched shared machinery -- the
protocol registry, the comm layer's reply path, the recovery manager's
redo sweep, the lock manager's hold accounting.  Every **seed**
protocol must still produce bit-for-bit the execution it produced
before that code existed: same outcomes, same trace-record stream,
same event/message counts, same RNG stream states.

Each digest below was pinned by running :func:`fingerprint` against
the pre-one-phase/Short-Commit tree (the tip this change is stacked
on).  Any drift means a seed protocol's execution is no longer
byte-identical and is a regression by definition.

Re-pinned once, on purpose, when federation set-up stopped being
counted: the initial load now runs untraced and its dispatches are
zeroed, so each trace lost its 4-6 set-up records and ``events`` its
set-up dispatches.  Every other field kept its value.

The scenario deliberately includes a site crash/recovery cycle and
intended aborts so the commit, abort and recovery paths are all inside
the fingerprint -- but no stochastic erroneous-abort injection, whose
latent orphan-adoption redo bug this change intentionally fixes.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.harness import protocol_federation
from repro.core.gtm import GTMConfig
from repro.faults import FaultInjector
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.net.message import reset_message_ids
from repro.workloads.banking import transfer

SEED_PROTOCOLS = [
    ("before", "per_action"),
    ("before", "per_site"),
    ("after", "per_site"),
    ("2pc", "per_site"),
    ("2pc-pa", "per_site"),
    ("3pc", "per_site"),
    ("paxos", "per_site"),
    ("saga", "per_action"),
    ("altruistic", "per_action"),
]

#: Hardcoded on purpose (not ``preparable_protocols()``): the pinning
#: run against the seed tree predates the registry helper, and a golden
#: harness must stay runnable against the tree it pins.
PREPARABLE = frozenset({"2pc", "2pc-pa", "3pc", "paxos"})

#: Pinned against the seed tree; see the module docstring.
GOLDEN_DIGESTS: dict[str, str] = {
    "before/per_action": "82cfa85f8157061114b4137d3add0f0bb0f036f557789b7f1b4ab2173dad0284",
    "before/per_site": "ba9b84f269798ee89871412b8db0929bd917924f1a549108f7595958abd670bf",
    "after/per_site": "9ace05ec691d99735af5f07cc9c8b597af756690e80902a6361be98562c5e5d6",
    "2pc/per_site": "2a948c07e146ba449cccb92694963989c265c29901ff52f7f16c0d5fae23c37a",
    "2pc-pa/per_site": "5b69bbc745b8171347108bc1b67ae183a20a8c4be004f02e0e018cedba4bc354",
    "3pc/per_site": "e5ad3f57a97999108b92fe984a91de331c4b46523bb9942f414ba9fd2ffa7136",
    "paxos/per_site": "78dbcc818233f698492782192648518d22a83baf4738d5cfec2ecb5a79872688",
    "saga/per_action": "82cfa85f8157061114b4137d3add0f0bb0f036f557789b7f1b4ab2173dad0284",
    "altruistic/per_action": "0ab21c717408ef998e9e4f94193fe3d062f3686af02f9497865b96253b1c6ed3",
}


def fingerprint(protocol: str, granularity: str) -> str:
    reset_message_ids()
    specs = [
        SiteSpec(
            f"bank_{i}",
            tables={f"accounts_{i}": {f"acct{i}_{j}": 100 for j in range(3)}},
            preparable=protocol in PREPARABLE,
        )
        for i in range(2)
    ]
    if protocol == "paxos":
        # The seed-era bench harness predates paxos enrolment; build it
        # directly so the fingerprint harness runs against the seed tree.
        fed = Federation(
            specs,
            FederationConfig(
                seed=97, gtm=GTMConfig(protocol=protocol, granularity=granularity)
            ),
        )
    else:
        fed = protocol_federation(
            protocol, specs, granularity=granularity, seed=97, msg_timeout=25
        )
    fed.gtm.config.status_poll_interval = 8
    injector = FaultInjector(fed)
    injector.crash_site("bank_1", at=60.0, recover_after=50.0)
    rng = fed.kernel.rng.stream("golden")
    batches = [
        {
            "operations": transfer(rng, 2, 3),
            "intends_abort": index % 4 == 3,
            "delay": index * 17.0,
        }
        for index in range(8)
    ]
    outcomes = fed.run_transactions(batches)
    blob = json.dumps(
        {
            "outcomes": [outcome.committed for outcome in outcomes],
            "trace": [str(record) for record in fed.kernel.trace.records],
            "events": fed.kernel.events_dispatched,
            "end": fed.kernel.now,
            "sent": fed.network.sent,
            "rng_probe": fed.kernel.rng.stream("golden-probe").random(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("protocol,granularity", SEED_PROTOCOLS)
def test_seed_protocol_byte_identical(protocol, granularity):
    digest = fingerprint(protocol, granularity)
    assert digest == GOLDEN_DIGESTS[f"{protocol}/{granularity}"], (
        f"{protocol}/{granularity}: execution drifted from the fingerprint "
        "pinned before the one-phase/Short-Commit family landed"
    )
