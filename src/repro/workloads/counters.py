"""Counter (increment) workloads -- the paper's Figure 8 scenario.

Objects ``x`` and ``y`` live on the same page ``p`` of one local
database; transactions increment them.  Under single-level locking the
page lock serializes everything; under two-level (multi-level)
execution the page locks are short and the L1 increment locks commute,
so the transactions overlap.
"""

from __future__ import annotations

import random
from typing import Any, Generator, Optional

from repro.localdb.config import LocalDBConfig
from repro.localdb.engine import LocalDatabase
from repro.mlt.actions import Operation
from repro.sim.kernel import Kernel


def build_counter_site(
    kernel: Kernel,
    n_counters: int = 2,
    site: str = "store",
    same_page: bool = True,
    config: Optional[LocalDBConfig] = None,
    initial: int = 0,
) -> tuple[LocalDatabase, list[str]]:
    """A single local database with counters, optionally co-paged.

    Returns the engine and the counter key names, loaded: ``kernel``
    must be fresh, since the load runs alone on its calendar.
    """
    engine = LocalDatabase(kernel, site, config)
    keys = [f"c{i}" for i in range(n_counters)]
    # Classic Figure 8 names for the two-counter case.
    if n_counters == 2:
        keys = ["x", "y"]

    def setup() -> Generator[Any, Any, None]:
        yield from engine.create_table("obj", 2 if same_page else max(2, n_counters))
        if same_page:
            for key in keys:
                engine.pin_key("obj", key, 0)  # all on page p
        txn = engine.begin()
        for key in keys:
            yield from engine.insert(txn, "obj", key, initial)
        yield from engine.commit(txn)

    kernel.run_alone(setup())
    return engine, keys


def counter_transactions(
    rng: random.Random,
    keys: list[str],
    n_txns: int,
    increments_per_txn: int = 2,
    table: str = "obj",
) -> list[list[Operation]]:
    """Random increment transactions over the counters."""
    txns = []
    for _ in range(n_txns):
        ops = [
            Operation("increment", table, rng.choice(keys), rng.choice([1, 2, 5]))
            for _ in range(increments_per_txn)
        ]
        txns.append(ops)
    return txns
