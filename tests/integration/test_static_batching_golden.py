"""Golden byte-identity for the pre-adaptive batching paths.

The adaptive controller must be pure opt-in.  Two guarantees:

* spelling out the defaults (``batch_policy="static"``,
  ``batch_max_msgs=0``, same for the decision pipeline) produces a
  bit-for-bit identical execution to leaving them unset, at any batch
  window;
* the static batched execution itself is pinned, so a later change to
  the adaptive machinery cannot silently perturb the static path.

Re-pinned once, on purpose, when federation set-up stopped being
counted: the initial load now runs untraced and its dispatches are
zeroed, so each trace lost its 4-6 set-up records and ``events`` its
set-up dispatches.  Every other field kept its value.
"""

from __future__ import annotations

import pytest

from repro.core.gtm import GTMConfig
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment
from repro.net.message import reset_message_ids
from tests.golden import pin

N_SITES, N_KEYS, N_TXNS = 2, 8, 12

#: Pinned when the adaptive policy landed: the static batched path.
#: Window 0 (batching off) is pinned by the dataplane golden suite.
GOLDEN_STATIC: dict[float, dict] = {
    1.0: {
        "trace": "89385565be3abe4f19b4f8e9e29e98499814ee3afb7a2f3a12571848b6614e22",
        "outcomes": "CCCCCCCCCCCC", "events": 947, "end": 86.29999999999998,
        "sent": 202, "envelopes": 130, "rng_probe": 0.7606387743187785,
    },
    2.0: {
        "trace": "d6bb66f173d210565d12d3cd37fe54c782a24c9b96231cae93664cdc7421ab3b",
        "outcomes": "CCCCCCCCCCCC", "events": 942, "end": 173.29999999999998,
        "sent": 236, "envelopes": 96, "rng_probe": 0.7606387743187785,
    },
}


def fingerprint(window: float, **extra) -> dict:
    reset_message_ids()
    specs = [
        SiteSpec(
            f"s{i}",
            tables={f"t{i}": {f"k{j}": 100 for j in range(N_KEYS)}},
            preparable=True,
        )
        for i in range(N_SITES)
    ]
    fed = Federation(
        specs,
        FederationConfig(
            seed=11,
            batch_window=window,
            gtm=GTMConfig(
                protocol="2pc", granularity="per_site", pipeline_window=window
            ),
            **extra,
        ),
    )
    batches = [
        {
            "operations": [
                increment("t0", f"k{i % N_KEYS}", -1),
                increment("t1", f"k{i % N_KEYS}", 1),
            ],
            "name": f"G{i}",
            "delay": (i % 4) * 0.5,
        }
        for i in range(N_TXNS)
    ]
    outcomes = fed.run_transactions(batches)
    return pin(fed, outcomes)


@pytest.mark.parametrize("window", [0.0, 1.0, 2.0])
def test_explicit_static_knobs_change_nothing(window):
    implicit = fingerprint(window)
    explicit = fingerprint(window, batch_policy="static", batch_max_msgs=0)
    assert implicit == explicit, (
        f"window={window}: spelling out the static batching defaults "
        "perturbed the execution"
    )


@pytest.mark.parametrize("window", [1.0, 2.0])
def test_static_batched_path_is_pinned(window):
    assert fingerprint(window) == GOLDEN_STATIC[window], (
        f"window={window}: the static batched execution drifted from "
        "the fingerprint pinned when the adaptive policy landed"
    )
