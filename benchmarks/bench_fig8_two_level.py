"""EXP-F8 -- Figure 8: two-level transactions on one site.

The paper's example: T1 and T2 increment objects x and y that share
page p.  Under the two-level scheme (L1 increment locks + short L0 page
transactions) the transactions overlap; under flat single-level
execution the page lock serializes them.  The benchmark runs N
concurrent increment transactions both ways and reports makespan, lock
waits and wait time.
"""

import random

from repro.bench import format_table
from repro.localdb.config import LocalDBConfig
from repro.mlt.nested import NestedTransactionManager, SingleLevelManager, bottom_level
from repro.sim.kernel import Kernel
from repro.workloads.counters import build_counter_site, counter_transactions

from benchmarks._common import run_once, save_result

N_TXNS = 12
#: time between a transaction's actions (transaction logic, user
#: think time) -- held with page locks in the flat case, without any L0
#: locks in the two-level case.  This is where Figure 8's gain lives.
THINK_TIME = 4.0


def run_mode(two_level: bool) -> dict:
    kernel = Kernel(seed=8)
    engine, keys = build_counter_site(
        kernel, n_counters=2, same_page=True,
        config=LocalDBConfig(lock_timeout=None),
    )
    start = kernel.now
    txns = counter_transactions(random.Random(4), keys, N_TXNS, increments_per_txn=2)
    manager = (
        NestedTransactionManager(kernel, engine, [bottom_level()])
        if two_level
        else SingleLevelManager(kernel, engine)
    )
    for index, operations in enumerate(txns):
        kernel.spawn(
            manager.run(f"T{index}", operations, think_time=THINK_TIME),
            name=f"T{index}",
        )
    kernel.run()
    makespan = kernel.now - start
    expected = {key: 0 for key in keys}
    for operations in txns:
        for op in operations:
            expected[op.key] += op.value

    def read_all():
        txn = engine.begin()
        values = {}
        for key in keys:
            values[key] = yield from engine.read(txn, "obj", key)
        yield from engine.commit(txn)
        return values

    proc = kernel.spawn(read_all())
    kernel.run()
    assert proc.value == expected, "increments lost!"
    return {
        "makespan": makespan,
        "lock_waits": engine.locks.waits,
        "wait_time": engine.locks.total_wait_time,
        "hold_time": engine.locks.total_hold_time,
    }


def run_experiment() -> str:
    flat = run_mode(two_level=False)
    multi = run_mode(two_level=True)
    rows = [
        ["single-level (flat)", flat["makespan"], flat["lock_waits"],
         flat["wait_time"], flat["hold_time"]],
        ["two-level (Figure 8)", multi["makespan"], multi["lock_waits"],
         multi["wait_time"], multi["hold_time"]],
    ]
    table = format_table(
        ["execution", "makespan", "L0 lock waits", "L0 wait time", "L0 hold time"],
        rows,
        title=f"EXP-F8 (Figure 8): {N_TXNS} concurrent increment txns, x and y on one page",
    )
    speedup = flat["makespan"] / multi["makespan"]
    table += f"\ntwo-level speedup: {speedup:.2f}x (paper: increased degree of concurrency)"
    assert multi["makespan"] < flat["makespan"]
    assert multi["wait_time"] < flat["wait_time"]
    return table


def test_fig8_two_level(benchmark):
    save_result("fig8_two_level", run_once(benchmark, run_experiment))
