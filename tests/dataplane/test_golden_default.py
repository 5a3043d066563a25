"""Golden byte-identity: the data plane must not perturb the default path.

A federation built *without* ``placement`` must produce bit-for-bit the
same execution it produced before the data-plane subsystem existed:
same outcomes, same trace records, same event and message counts, same
RNG stream states.  Each fingerprint below was pinned against the seed
tree (pre-dataplane); any drift in these fingerprints means the
default, unpartitioned configuration is no longer byte-identical and
is a regression by definition.

Re-pinned once, on purpose, when federation set-up stopped being
counted: the initial load now runs untraced and its dispatches are
zeroed, so each trace lost its 4-6 set-up records and ``events`` its
set-up dispatches.  Every other field kept its value.

The fingerprint pins, per (protocol, coordinator count), each field
of :func:`tests.golden.pin` on its own: the trace digest, the outcomes,
events and end time, messages and envelopes sent, and an RNG probe.
"""

from __future__ import annotations

import pytest

from repro.core.gtm import GTMConfig
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment
from repro.net.message import reset_message_ids
from tests.golden import pin

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
GOLDEN: dict[str, dict] = {
    "2pc/1": {
        "trace": "576f6511dac8c3f53737d316394b08891112c8413f3be9208de315811a3fcdc4",
        "outcomes": "CCCCCCCCCCCCCCCCCC", "events": 1370, "end": 106.99999999999997,
        "sent": 332, "envelopes": 332, "rng_probe": 0.7606387743187785,
    },
    "2pc/2": {
        "trace": "c504bcd2b01d6ce9546f42501b6562f6c067fe8ba627518593f366ff004013e4",
        "outcomes": "CCCCCCCCCCCCCCCCCC", "events": 1393, "end": 107.09999999999997,
        "sent": 332, "envelopes": 332, "rng_probe": 0.7606387743187785,
    },
    "2pc-pa/1": {
        "trace": "9c9c72ac51b15ad6a19503fb2c2bc76448938270954e1ddd816406a1ef4c319d",
        "outcomes": "CCCCCCCCCACCCCCCAA", "events": 1684, "end": 416.80000000000007,
        "sent": 426, "envelopes": 426, "rng_probe": 0.7606387743187785,
    },
    "2pc-pa/2": {
        "trace": "abb3f2a3becfd6b6ac8336febd18ad8591209ac33bb2ef1f04f7a2b8b34f5ac1",
        "outcomes": "CCCCCCCCCACCCCCCAA", "events": 1732, "end": 416.90000000000003,
        "sent": 426, "envelopes": 426, "rng_probe": 0.7606387743187785,
    },
    "3pc/1": {
        "trace": "4a59de1ed1a4ce0d0efa994cfee0f4b49195f0538502d2da291b9000be8d0313",
        "outcomes": "CCCCCCCCCACCCCCCAA", "events": 2027, "end": 430.90000000000003,
        "sent": 524, "envelopes": 524, "rng_probe": 0.7606387743187785,
    },
    "3pc/2": {
        "trace": "8e36a963efacae5eadb3fa5aed4de6fb6e79687ae78cb2470ed693649347d774",
        "outcomes": "CCCCCCCCCACCCCCCAA", "events": 2035, "end": 430.90000000000003,
        "sent": 524, "envelopes": 524, "rng_probe": 0.7606387743187785,
    },
    "after/1": {
        "trace": "9ca8908a6a05b7c6d43868f1bf333a0111e4b9ad41d234bb6899ad7cff08021e",
        "outcomes": "CCCCCCCCCCCCCCCCCC", "events": 1750, "end": 215.1999999999999,
        "sent": 434, "envelopes": 434, "rng_probe": 0.7606387743187785,
    },
    "after/2": {
        "trace": "b7d3e1d73e741a9ddc832ee1c33e4d05fa31aff581ab9f88bad66459952cc7d8",
        "outcomes": "CCCCCCCCCCCCCCCCCC", "events": 1772, "end": 215.1999999999999,
        "sent": 434, "envelopes": 434, "rng_probe": 0.7606387743187785,
    },
    "before/1": {
        "trace": "953bcd4b2d88496c2f97bfdf421564b4241bd3881bcb085ec8db535e0e00872f",
        "outcomes": "CCCCCCCCCCCCCCCCCC", "events": 634, "end": 34.70000000000002,
        "sent": 72, "envelopes": 72, "rng_probe": 0.7606387743187785,
    },
    "before/2": {
        "trace": "74438c8c2da172d660aa3df0e8834601e530276f081b573bca2b290b247404bd",
        "outcomes": "CCCCCCCCCCCCCCCCCC", "events": 634, "end": 34.70000000000002,
        "sent": 72, "envelopes": 72, "rng_probe": 0.7606387743187785,
    },
    "paxos/1": {
        "trace": "95244f1310331e54c4e2fa22c36e07c4e6d58e66fb7e789b95537ad6ccb0c74a",
        "outcomes": "CCCAACCCCACACCCCAA", "events": 2634, "end": 431.90000000000003,
        "sent": 704, "envelopes": 704, "rng_probe": 0.7606387743187785,
    },
    "paxos/2": {
        "trace": "f07d7ded6aa3782a52cc3295c183150a6a29bb83c8f95ddce309679a9649d1ac",
        "outcomes": "CCCCCCCCCACCCCCCAA", "events": 2127, "end": 431.90000000000003,
        "sent": 554, "envelopes": 554, "rng_probe": 0.7606387743187785,
    },
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


def fingerprint(protocol: str, granularity: str, coordinators: int) -> dict:
    reset_message_ids()
    fed = build(protocol, granularity, coordinators)
    outcomes = fed.run_transactions(workload())
    return pin(fed, outcomes)


@pytest.mark.parametrize("protocol,granularity", PROTOCOLS)
@pytest.mark.parametrize("coordinators", [1, 2])
def test_default_config_byte_identical_to_seed(protocol, granularity, coordinators):
    observed = fingerprint(protocol, granularity, coordinators)
    assert observed == GOLDEN[f"{protocol}/{coordinators}"], (
        f"{protocol}/{coordinators}: default (unpartitioned) execution "
        "drifted from the pinned pre-dataplane fingerprint"
    )
