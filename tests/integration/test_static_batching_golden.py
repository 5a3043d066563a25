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

import hashlib
import json

import pytest

from repro.core.gtm import GTMConfig
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment
from repro.net.message import reset_message_ids

N_SITES, N_KEYS, N_TXNS = 2, 8, 12

#: Pinned when the adaptive policy landed: the static batched path.
GOLDEN_STATIC = {
    # Window 0 (batching off) is pinned by the dataplane golden suite.
    1.0: "cf29b4ebeec53d14ae82c322f612c99d07d689830e5d8ef95797f073710dc224",
    2.0: "ec728c58ae184debb076fe31413b8574232ab2a6955f5eb28a2cf84a79ffef77",
}


def fingerprint(window: float, **extra) -> str:
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
    blob = json.dumps(
        {
            "outcomes": [outcome.committed for outcome in outcomes],
            "trace": [str(record) for record in fed.kernel.trace.records],
            "events": fed.kernel.events_dispatched,
            "end": fed.kernel.now,
            "sent": fed.network.sent,
            "envelopes": fed.network.envelopes,
            "rng_probe": fed.kernel.rng.stream("golden-probe").random(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


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
