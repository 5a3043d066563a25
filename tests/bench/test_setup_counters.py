"""Set-up work is counted as run work (ROADMAP item 11, pinned).

A federation's initial load simulates one bulk-insert transaction per
table, and the kernel and site counters it moves are never reset.  The
ledger divides them by the commits of the timed run, so on
``commit_matrix`` about 9 of the 14 forces per 2pc commit, and most of
its lock-hold time, are the loader's.  Zeroing them re-pins every
ledger fingerprint; until a change does that on purpose, this test
pins the leak as a strict xfail.
"""

from __future__ import annotations

import pytest

from benchmarks.ledger.workloads import WORKLOADS
from repro.core.protocols import PROTOCOL_REGISTRY
from repro.integration.federation import Federation

SETUP_COUNTERS = ("log_forces", "page_writes", "page_reads", "lock_hold_time")


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 11: a fresh commit_matrix federation reads 9750 events "
    "and, per site, 449 log forces, 962 page writes and 512 page reads",
)
def test_a_fresh_federation_has_counted_nothing():
    workload = WORKLOADS["commit_matrix"]
    info = PROTOCOL_REGISTRY["2pc"]
    fed = Federation(workload.site_specs(info), workload.config(info, False))
    counted = {"events_dispatched": fed.kernel.events_dispatched}
    for name, engine in fed.engines.items():
        metrics = engine.metrics()
        counted.update({f"{name}.{key}": metrics[key] for key in SETUP_COUNTERS})
    assert counted == dict.fromkeys(counted, 0)
