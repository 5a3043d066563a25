"""General multi-level transactions: a three-level banking stack.

The paper's §4 uses two levels for the federation, but the multi-level
model is general (§4.1).  This example builds a three-level stack on a
single database:

* L2 -- business actions: ``transfer`` (commutes with transfers, like
  increments one level down) and ``audit`` (shared);
* L1 -- record operations (increments commute);
* L0 -- the engine's page transactions.

Two concurrent transfers over the same accounts overlap at every level;
an aborting transfer is undone by an *inverse transfer*; an audit is
serialized against transfers and always sees conserved money.

Run:  python examples/nested_levels.py
"""

from repro import Kernel, LocalDatabase
from repro.mlt import ActionDef, LevelSpec, NestedTransactionManager, bottom_level
from repro.mlt.actions import Operation
from repro.localdb.locks import ConflictTable, LockMode

BUSINESS = ConflictTable(
    "business",
    {
        "transfer": LockMode.INCREMENT, "audit": LockMode.SHARED,
        "read": LockMode.SHARED, "write": LockMode.EXCLUSIVE,
        "increment": LockMode.INCREMENT, "insert": LockMode.EXCLUSIVE,
        "delete": LockMode.EXCLUSIVE,
    },
    [frozenset({LockMode.SHARED}), frozenset({LockMode.INCREMENT})],
)


def business_level() -> LevelSpec:
    level = LevelSpec("L2", BUSINESS)
    level.define(ActionDef(
        kind="transfer",
        mode_kind="transfer",
        expand=lambda a, ctx: [
            Operation("increment", a.table, a.key[0], -a.value),
            Operation("increment", a.table, a.key[1], a.value),
        ],
        invert=lambda a, ctx: Operation("transfer", a.table, (a.key[1], a.key[0]), a.value),
        resources=lambda a: [(a.table, k) for k in a.key],
    ))
    level.define(ActionDef(
        kind="audit",
        mode_kind="audit",
        expand=lambda a, ctx: [Operation("read", a.table, k) for k in a.key],
        invert=lambda a, ctx: None,
        resources=lambda a: [(a.table, k) for k in a.key],
    ))
    return level


def main() -> None:
    kernel = Kernel(seed=7)
    engine = LocalDatabase(kernel, "bank")

    def init():
        yield from engine.create_table("acc", 4)
        txn = engine.begin()
        for key in ("checking", "savings", "broker"):
            yield from engine.insert(txn, "acc", key, 1000)
        yield from engine.commit(txn)

    kernel.spawn(init())
    kernel.run()

    manager = NestedTransactionManager(kernel, engine, [business_level(), bottom_level()])
    results = {}

    def txn(name, actions, **kwargs):
        outcome = yield from manager.run(name, actions, **kwargs)
        results[name] = outcome

    transfer = lambda s, d, amt: Operation("transfer", "acc", (s, d), amt)  # noqa: E731
    audit = Operation("audit", "acc", ("checking", "savings", "broker"))

    # Two commuting transfers plus a concurrent audit and an aborter.
    kernel.spawn(txn("T1", [transfer("checking", "savings", 100)], think_time=4))
    kernel.spawn(txn("T2", [transfer("savings", "broker", 50)], think_time=4))
    kernel.spawn(txn("AUDIT", [audit]))
    kernel.spawn(txn("OOPS", [transfer("checking", "broker", 999)], abort_after=1))
    kernel.run()

    for name, outcome in sorted(results.items()):
        status = "committed" if outcome.committed else f"aborted ({outcome.abort_reason})"
        extra = f", inverse actions: {outcome.inverse_actions}" if outcome.inverse_actions else ""
        print(f"  {name:6s} {status}{extra}")
        if outcome.reads:
            total = sum(outcome.reads.values())
            print(f"         audit saw {dict(outcome.reads)} (total {total})")

    def final_balances():
        txn = engine.begin()
        values = {}
        for key in ("checking", "savings", "broker"):
            values[key] = yield from engine.read(txn, "acc", key)
        yield from engine.commit(txn)
        return values

    proc = kernel.spawn(final_balances())
    kernel.run()
    print(f"  final: {proc.value} (total {sum(proc.value.values())})")
    print(f"  every level serializable: {manager.serializable()}")


if __name__ == "__main__":
    main()
