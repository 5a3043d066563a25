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
        "before/nominal": "938b27ebc93e3e986324",
        "before/saturated": "916d52e34e491367b1aa",
        "after/nominal": "d794dd98d4fdf5aeea8c",
        "after/saturated": "8c856c1bfa8503ac9ca6",
        "2pc/nominal": "7d348378c0de61f74571",
        "2pc/saturated": "5abc10164c98444a5faf",
        "2pc-pa/nominal": "7d348378c0de61f74571",
        "2pc-pa/saturated": "5abc10164c98444a5faf",
        "3pc/nominal": "99e4298f977d72d17447",
        "3pc/saturated": "abe1c8d59c0c1a2cd72d",
        "paxos/nominal": "01f882c674d0a9c1b963",
        "paxos/saturated": "b7815d4a8be9ddafd587",
        "saga/nominal": "ce9c4646d8c6c137d649",
        "saga/saturated": "a53b97deb078d5e8b952",
        "altruistic/nominal": "938b27ebc93e3e986324",
        "altruistic/saturated": "916d52e34e491367b1aa",
        "one_phase/nominal": "add30ce1e3d263b60773",
        "one_phase/saturated": "2c46a07ee3b7d911c455",
        "short_commit/nominal": "2fd63f869d19888f61af",
        "short_commit/saturated": "72195c8a9cba41f9b2cb",
    },
    "contended_mix": {
        "before/nominal": "4219a91e01fc50f0c86e",
        "before/saturated": "85ee73ac4d3517653049",
        "after/nominal": "d6256f415dc4e9af7c2f",
        "after/saturated": "3b80aa688c025d4076c0",
        "2pc/nominal": "1ad76f8f5812cb2710f7",
        "2pc/saturated": "ecd835d459f57881b400",
    },
    "replicated_sharded": {
        "2pc/nominal": "50676c0c0f2d0054106d",
        "2pc/saturated": "7c88160eb08b79746728",
        "paxos/nominal": "a72149218103abf8dc2c",
        "paxos/saturated": "eca415c5819cd773d1f8",
        "one_phase/nominal": "2ae6526abbaf7c75658c",
        "one_phase/saturated": "f3d1e360a371cf9d465d",
    },
    "crash_recovery": {
        "before/chaos": "c6bf4ce6c09bdf16cef6",
        "after/chaos": "e49f457ba6f022e11e21",
        "2pc/chaos": "5b9c875e667565964790",
        "paxos/chaos": "765c08aad8f0c0ebc832",
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
