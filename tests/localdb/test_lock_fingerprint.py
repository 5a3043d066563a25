"""Tier-1 guard: the lock managers grant, refuse and count exactly as pinned.

Seeded random scripts drive four lock tables: the page table with
Short-Commit's early release, the semantic and read/write L1 tables,
and the altruistic L1 manager with donations.  Each script takes locks
in every mode, converts held locks, releases everything mid-script,
cancels waits from outside and times out.  Every grant and every
exception is recorded with its simulated time, the final counters are
appended, and a digest of the record per table is compared with the
pinned one.  A change that moves one grant, one deadlock victim or one
counter fails here, naming the table.

A script never re-requests, on an L1 table, a mode its transaction's
held modes already cover without holding it exactly (X, then S): such
a request is a no-op, but whether it counts a grant is not what this
guard pins.

Only a change that means to alter lock behaviour may update ``PINNED``
(with the output of :func:`digests`), and it has to say why in
``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import random

from repro.baselines.altruistic import AltruisticLockManager
from repro.errors import DeadlockDetected, LockTimeout
from repro.localdb.locks import LockManager, LockMode
from repro.mlt.conflicts import READ_WRITE_TABLE, SEMANTIC_TABLE
from repro.sim.kernel import Kernel

SEEDS = range(200)
TXNS = ("t0", "t1", "t2", "t3")
RESOURCES = ("r0", "r1", "r2")
TIMEOUT = 12.0

COUNTERS = (
    "grants", "waits", "total_wait_time", "total_hold_time", "deadlocks", "timeouts",
)
PAGE_COUNTERS = COUNTERS + (
    "releases", "downgrades", "max_hold_time", "total_exclusive_hold_time",
)
ALTRUISTIC_COUNTERS = COUNTERS + ("donations", "wake_entries")


def _page(kernel):
    return LockManager(kernel, "s0", default_timeout=TIMEOUT)


def _semantic(kernel):
    return LockManager(kernel, "L1", SEMANTIC_TABLE, default_timeout=TIMEOUT)


def _read_write(kernel):
    return LockManager(kernel, "L1", READ_WRITE_TABLE, default_timeout=TIMEOUT)


def _altruistic(kernel):
    return AltruisticLockManager(kernel, "L1", READ_WRITE_TABLE, default_timeout=TIMEOUT)


SX_MODES = {"S": LockMode.SHARED, "X": LockMode.EXCLUSIVE}
SIX_MODES = {"S": LockMode.SHARED, "I": LockMode.INCREMENT, "X": LockMode.EXCLUSIVE}

#: table -> (factory, requestable modes, counters, extra script step)
TABLES = {
    "page": (_page, SX_MODES, PAGE_COUNTERS, "short"),
    "semantic": (_semantic, SIX_MODES, COUNTERS, None),
    "read_write": (_read_write, SIX_MODES, COUNTERS, None),
    "altruistic": (_altruistic, SX_MODES, ALTRUISTIC_COUNTERS, "donate"),
}


class Cancelled(Exception):
    """The failure a script's external cancel injects into a wait."""


def make_script(rng: random.Random, modes: list[str], extra: str | None):
    """Per transaction: (start delay, steps); plus the cancel instants."""
    scripts = {}
    for txn in TXNS:
        steps = []
        for _ in range(rng.randint(3, 9)):
            roll = rng.random()
            if roll < 0.6:
                timeout = rng.choice((None, None, 3.0))
                steps.append(("acquire", rng.choice(RESOURCES), rng.choice(modes), timeout))
            elif roll < 0.75:
                steps.append(("sleep", rng.choice((0.0, 1.0, 2.5, 4.0))))
            elif roll < 0.85:
                steps.append(("release",))
            elif extra is not None:
                steps.append((extra, rng.choice(RESOURCES)))
        scripts[txn] = (rng.choice((0.0, 0.0, 0.5, 1.0)), steps)
    cancels = [
        (rng.choice((1.0, 2.0, 3.5, 6.0)), rng.choice(TXNS))
        for _ in range(rng.randint(0, 2))
    ]
    return scripts, cancels


def run_script(table: str, seed: int) -> list[tuple]:
    factory, modes, counters, extra = TABLES[table]
    rng = random.Random(f"{table}:{seed}")
    scripts, cancels = make_script(rng, sorted(modes), extra)
    kernel = Kernel(seed=seed)
    manager = factory(kernel)
    record: list[tuple] = []
    release = manager.finish if table == "altruistic" else manager.release_all

    def worker(txn, start, steps):
        held: dict[str, set[str]] = {}
        yield start
        for step in steps:
            kind = step[0]
            if kind == "sleep":
                yield step[1]
            elif kind == "acquire":
                _, resource, mode, timeout = step
                mine = held.get(resource)
                if table != "page" and mine and mode not in mine and (
                    "X" in mine or len(mine) > 1
                ):
                    continue  # covered but not held exactly: see module doc
                try:
                    yield from manager.acquire(txn, resource, modes[mode], timeout=timeout)
                except (DeadlockDetected, LockTimeout, Cancelled) as exc:
                    record.append((kernel.now, txn, "raise", resource, mode,
                                   type(exc).__name__, str(exc)))
                    release(txn)
                    held.clear()
                    continue
                record.append((kernel.now, txn, "grant", resource, mode))
                held.setdefault(resource, set()).add(mode)
            elif kind == "release":
                release(txn)
                held.clear()
                record.append((kernel.now, txn, "release"))
            elif kind == "short":
                exposed = manager.short_release(txn)
                record.append((kernel.now, txn, "short", tuple(exposed)))
            elif kind == "donate":
                manager.donate(txn, step[1])
                record.append((kernel.now, txn, "donate", step[1]))
        if table == "altruistic":
            try:
                yield from manager.wait_for_wake(txn, timeout=6.0)
            except LockTimeout as exc:
                record.append((kernel.now, txn, "wake-timeout", str(exc)))
        release(txn)
        record.append((kernel.now, txn, "done"))

    for txn, (start, steps) in scripts.items():
        kernel.spawn(worker(txn, start, steps), name=txn)
    for at, txn in cancels:
        kernel.call_at(at, manager.cancel_wait, txn, Cancelled(f"cancel {txn}"))
    kernel.run()
    record.append(tuple((name, getattr(manager, name)) for name in counters))
    if table == "altruistic":
        record.append(tuple(sorted((t, tuple(sorted(d))) for t, d in manager.wake.items())))
    return record


def digests() -> dict[str, str]:
    out = {}
    for table in TABLES:
        digest = hashlib.sha256()
        for seed in SEEDS:
            digest.update(repr(run_script(table, seed)).encode())
        out[table] = digest.hexdigest()[:20]
    return out


PINNED = {
    "page": "71118bc946d8ed9f2a50",
    "semantic": "463a81e3dc7f078635b0",
    "read_write": "74e8f48b057cbbaaa837",
    "altruistic": "a750d986dc8f2a15ef3d",
}


def test_lock_fingerprint():
    assert digests() == PINNED


def test_scripts_exercise_every_failure():
    """The pinned scripts hit deadlocks, timeouts and cancels."""
    seen = {
        entry[5]
        for table in TABLES
        for seed in SEEDS[:10]
        for entry in run_script(table, seed)
        if len(entry) > 5 and entry[2] == "raise"
    }
    assert seen == {"DeadlockDetected", "LockTimeout", "Cancelled"}
