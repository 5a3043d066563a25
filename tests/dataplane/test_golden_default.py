"""Golden byte-identity: the data plane must not perturb the default path.

A federation built *without* ``placement`` must produce bit-for-bit the
same execution it produced before the data-plane subsystem existed:
same outcomes, same trace records, same event and message counts, same
RNG stream states.  Each fingerprint below was pinned against the seed
tree (pre-dataplane); any drift in these digests means the default,
unpartitioned configuration is no longer byte-identical and is a
regression by definition.

Re-pinned once, on purpose, when federation set-up stopped being
counted: the initial load now runs untraced and its dispatches are
zeroed, so each trace lost its 4-6 set-up records and ``events`` its
set-up dispatches.  Every other field kept its value.

The fingerprint covers, per (protocol, coordinator count):

* every global outcome's committed flag,
* the full rendered trace-record stream,
* kernel events dispatched and final simulated time,
* network envelopes sent,
* one draw from a fresh named RNG stream (stream-state probe).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.gtm import GTMConfig
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment
from repro.net.message import reset_message_ids

PROTOCOLS = [
    ("2pc", "per_site"),
    ("2pc-pa", "per_site"),
    ("3pc", "per_site"),
    ("after", "per_site"),
    ("before", "per_action"),
    ("paxos", "per_site"),
]

N_SITES, N_KEYS, N_TXNS = 3, 8, 18

#: Pinned against the pre-dataplane tree; see the module docstring.
GOLDEN_DIGESTS = {
    "2pc/1": "de25d26f15177c3cf46916dd64ef3802dec3348628d52eb96c9844a00510191e",
    "2pc/2": "81939e089ac7cb6b14cc1d093dcea998674c44c4d0db72411aa19d6295d265ce",
    "2pc-pa/1": "23df74370b94a58665ba58ec80fd6aff9674b47fe1a3d18c443a41d1da47ffb2",
    "2pc-pa/2": "8615b88080d942b53f589debd11b8ddcf7c7addfaf9b3fa3975b7b021796bd93",
    "3pc/1": "8c67c5bac965c5c2fe6c08e1b7020aee81215e92bcb77b45d83f192e635a7fe7",
    "3pc/2": "97b3d7f99b86b0f1e60f62d26d8fd0170af0c9ea99358a98351c87982ee0ac1b",
    "after/1": "864c4c9412674a97e772acfa7d55c1b3cb5d0315f63a70f09c8e88e7200f3a2c",
    "after/2": "fcdb34b7d63b66123fdea9fa46c4282e8625d4e10a9f0e6443a2b344297de697",
    "before/1": "30f5ae7cac565b7c1f390179f2eaf01eccd59dd0092d0c3db94a5ce3e685ce48",
    "before/2": "dc68bd48ee3c5f3681a61ee65bca37a697b0a872bdbfea217cc0b37bbe6edc27",
    "paxos/1": "9e72f5a114abd6d916bb099907e65484b867b967cb0371ef59441f495be21cd3",
    "paxos/2": "3ff39bf012b50a5f219ddf6df2360294e9fa346fc62e0c5b5cc014f2efd8190e",
}


def build(protocol: str, granularity: str, coordinators: int) -> Federation:
    preparable = protocol in ("2pc", "2pc-pa", "3pc", "paxos")
    specs = [
        SiteSpec(
            f"s{i}",
            tables={f"t{i}": {f"k{j}": 100 for j in range(N_KEYS)}},
            preparable=preparable,
        )
        for i in range(N_SITES)
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=11,
            coordinators=coordinators,
            gtm=GTMConfig(protocol=protocol, granularity=granularity),
        ),
    )


def workload() -> list[dict]:
    batches = []
    for index in range(N_TXNS):
        src, dst = index % N_SITES, (index + 1) % N_SITES
        batches.append({
            "operations": [
                increment(f"t{src}", f"k{index % N_KEYS}", -1),
                increment(f"t{dst}", f"k{index % N_KEYS}", 1),
            ],
            "name": f"G{index}",
            "delay": (index % 6) * 3.0,
        })
    return batches


def fingerprint(protocol: str, granularity: str, coordinators: int) -> str:
    reset_message_ids()
    fed = build(protocol, granularity, coordinators)
    outcomes = fed.run_transactions(workload())
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


@pytest.mark.parametrize("protocol,granularity", PROTOCOLS)
@pytest.mark.parametrize("coordinators", [1, 2])
def test_default_config_byte_identical_to_seed(protocol, granularity, coordinators):
    digest = fingerprint(protocol, granularity, coordinators)
    assert digest == GOLDEN_DIGESTS[f"{protocol}/{coordinators}"], (
        f"{protocol}/{coordinators}: default (unpartitioned) execution "
        "drifted from the pinned pre-dataplane fingerprint"
    )
