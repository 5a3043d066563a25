"""Set-up work is not counted as run work (ROADMAP item 11).

A federation's initial load writes every site's starting rows, which
costs log forces, page I/O and dispatched events.  The ledger divides
the counters by the commits of the timed run, so the federation zeroes
them once the load is done and traces nothing during it: a fresh
federation has counted and traced nothing.
"""

from __future__ import annotations

from benchmarks.ledger.workloads import WORKLOADS
from repro.core.protocols import PROTOCOL_REGISTRY
from repro.integration.federation import Federation

SETUP_COUNTERS = (
    "commits", "ops", "log_forces", "log_records", "page_writes", "page_reads",
    "buffer_hits", "buffer_misses", "lock_hold_time", "lock_exclusive_hold_time",
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
    assert fed.kernel.trace.records == []
