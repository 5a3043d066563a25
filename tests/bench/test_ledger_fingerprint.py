"""Tier-1 guard: wall-only changes must not move the simulation.

The commit ledger (``benchmarks/ledger``) gates a performance claim on
the simulated metrics staying bit-identical, but a full run takes 24 s
per workload and sits outside ``testpaths``.  This test runs all four
of its workloads at the ledger's *smoke* size through the unmodified
``benchmarks.ledger.workloads`` (imported, never edited here) and
compares a digest of each cell's ``Cell.simulated()`` -- arrivals,
commits, every latency, goodput, commit gap and all raw counters --
with pinned digests: ``commit_matrix`` and ``contended_mix`` from the
commit the kernel dispatch rewrite started from, ``crash_recovery``
(coordinator-crash recovery) from the commit before the two batchers
were merged into one flush-group primitive.  A change that perturbs
event order, an RNG draw or a counter fails here in seconds, naming
the cell.

``replicated_sharded`` is the only workload that batches (adaptive
outbox and decision pipeline with a size cap).  Its digests were
re-pinned once, on purpose, when adaptive batching began to linger
only on busy keys: an idle link or site now flushes at the end of the
current instant instead of waiting one window, which moves every
latency in the workload (full-size ``sim_p50_response`` 30.9 ->
17.9).  The other three workloads never batch and kept their digests.

All 36 digests were re-pinned once, on purpose, when federation
set-up stopped being counted: the sites' force, page, buffer, lock-hold
and local-commit counters now start at zero after the initial load.
No other field moved.

The ``events`` counter is left out of the digest on purpose: a change
may legitimately remove *no-op* dispatches (and must say so); it may
not change what the simulation computes.

Only a change that means to alter simulated behaviour may update
``PINNED`` (with the output of :func:`digests`), and it has to say why
in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from benchmarks.ledger.measure import run_round
from benchmarks.ledger.workloads import WORKLOADS

SEED = 1

PINNED = {
    "commit_matrix": {
        "before/nominal": "ab2be9669d9620ae8240",
        "before/saturated": "5a6b4c1a89a00f496bcd",
        "after/nominal": "f7257585ea901207dc18",
        "after/saturated": "c4b7f2b5d8d0ba95d02f",
        "2pc/nominal": "2042572d8e5352408482",
        "2pc/saturated": "aa71ea127ea4e6687e65",
        "2pc-pa/nominal": "2042572d8e5352408482",
        "2pc-pa/saturated": "aa71ea127ea4e6687e65",
        "3pc/nominal": "8a2384b564942e336105",
        "3pc/saturated": "b656a643a13be32be9e4",
        "paxos/nominal": "a572e4262f317f91e34e",
        "paxos/saturated": "f573cda8483d8d0de197",
        "saga/nominal": "dadd4961d74900134f2f",
        "saga/saturated": "b1dce1d86039adcc1dca",
        "altruistic/nominal": "ab2be9669d9620ae8240",
        "altruistic/saturated": "5a6b4c1a89a00f496bcd",
        "one_phase/nominal": "1805fc0c176102912737",
        "one_phase/saturated": "689c09ec78f093071d88",
        "short_commit/nominal": "42cc09c66a8b8df26911",
        "short_commit/saturated": "8476a5d6e535cf2b02fd",
    },
    "contended_mix": {
        "before/nominal": "6b23570bbf1b6cd57dcb",
        "before/saturated": "aea345dcde7d296b2044",
        "after/nominal": "3755c5b6d3bb276430ab",
        "after/saturated": "a2a0c92a260c15e843e6",
        "2pc/nominal": "06a445a1b21b20eaacd7",
        "2pc/saturated": "473ae6812fec4303d193",
    },
    "replicated_sharded": {
        "2pc/nominal": "0da67a3dc370581450c0",
        "2pc/saturated": "b84b976ed7a3ca451bbb",
        "paxos/nominal": "d4e02f9700163b1711f1",
        "paxos/saturated": "032dbdda9d750c6979c6",
        "one_phase/nominal": "ddf2ec4d4e8f6eb6ffdc",
        "one_phase/saturated": "671afc16417933a81ed4",
    },
    "crash_recovery": {
        "before/chaos": "9959be98de230d9d2080",
        "after/chaos": "f0d83d4904b2657ad76d",
        "2pc/chaos": "6d1bca2c475d5307866b",
        "paxos/chaos": "57ae976d222aee30ae93",
    },
}


def digests(workload_name: str) -> dict[str, str]:
    """``{cell key: sha256 of the cell's simulated results}``, one round."""
    cells, _inputs, _generation_s = run_round(WORKLOADS[workload_name], SEED, "smoke")
    result = {}
    for cell in cells:
        simulated = cell.simulated()
        simulated["counters"] = {
            name: value for name, value in simulated["counters"].items() if name != "events"
        }
        blob = json.dumps(simulated, sort_keys=True).encode()
        result[cell.key] = hashlib.sha256(blob).hexdigest()[:20]
    return result


@pytest.mark.parametrize("workload_name", sorted(PINNED))
def test_simulated_results_match_the_pinned_digests(workload_name):
    actual = digests(workload_name)
    pinned = PINNED[workload_name]
    assert sorted(actual) == sorted(pinned), "the workload's cell list changed"
    moved = [key for key in pinned if actual[key] != pinned[key]]
    assert not moved, f"simulated results moved in {workload_name}: {moved}"
