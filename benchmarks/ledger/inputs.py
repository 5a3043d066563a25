"""Seeded input generation for the four ledger workloads.

Everything here is drawn *before* any federation exists; the system
under test receives only the generated batches (or, for
``crash_recovery``, ``ChaosSpec`` arguments).  Inputs are plain
JSON-able data so they can be hashed; :func:`to_batches` turns them
into the ``Operation`` batches the drivers accept.

Two generators feed every transaction.  The **pattern** -- which
sites, keys and operation kinds, which transactions intend to abort,
and (through the kernel seed) when they arrive and which locals the
fault injector hits -- is drawn from the fixed ``PATTERN_SEED``: it is
part of the workload's definition.  The **payload** -- amounts moved,
values written -- is drawn from ``--seed``.  Locking, messaging and
recovery never look at payload values, so every simulated metric is
the same for every ``--seed`` while the stored data, and with it what
the conservation audits check, differs.  The pattern is pinned because
it has to be: with the pattern drawn from ``--seed`` the cross-seed
quartile spread of ``sim_p99_response`` was 9% on ``commit_matrix``,
45% on ``replicated_sharded`` and 83% on ``contended_mix`` (ten seeds,
and still 30% with four times the transactions) -- wider than the
widest bound a metric may carry.  To measure on another pattern,
change ``PATTERN_SEED``: that re-defines the benchmark (its own change,
fresh baseline).
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from bisect import bisect_left
from typing import Any

from repro.mlt.actions import Operation
from repro.storage.heap import HeapFile

INITIAL_BALANCE = 1000

#: Seed of every workload's access pattern and kernel streams (the
#: paper's year); see the module docstring.
PATTERN_SEED = 1991

#: ``crash_recovery``'s fault seeds -- fixed, *not* derived from
#: ``--seed``.  ``run_chaos`` draws its transfers and its fault times
#: from the one spec seed, and schedules differ from one another far
#: more than any regression bound could resolve (over ten ``--seed``
#: samples of three schedules each: median latency +-30%, longest
#: outage 134..945 u), so sampling them would turn every bound into
#: noise.  These are the first seeds whose schedule passes every audit
#: for every chaos protocol at both sizes at the commit that defined
#: the benchmark (``calibrate.py chaos``; 13 of the seeds 1..60 did
#: not -- README, "Findings").  The benchmark times recovery; it is not
#: the fuzzer.
CHAOS_SEEDS = (1, 2, 4)


def digest(inputs: Any) -> str:
    """SHA-256 of the canonical JSON form of generated inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def to_batches(transactions: list[dict]) -> list[dict]:
    """Generated transactions -> the drivers' batch shape."""
    return [
        {
            "name": txn["name"],
            "intends_abort": txn["intends_abort"],
            "operations": [Operation(*op) for op in txn["ops"]],
        }
        for txn in transactions
    ]


@functools.cache
def one_key_per_page(pages: int) -> tuple[str, ...]:
    """``pages`` key names that land on ``pages`` distinct heap buckets.

    The local engines lock pages, not records, so "a fresh key per
    transaction" only means "no lock wait" when the keys of concurrent
    transactions sit on different pages.  Placement is asked of the
    storage layer's own ``HeapFile`` (no disk or buffer needed for
    ``page_of``) rather than copied, so the property survives a change
    of the placement hash -- the input digest then changes with it.
    """
    heap = HeapFile("probe", None, None, first_page_id=0, bucket_count=pages)
    by_page: dict[int, str] = {}
    candidate = 0
    while len(by_page) < pages:
        key = f"k{candidate}"
        by_page.setdefault(heap.page_of(key), key)
        candidate += 1
    return tuple(by_page[page] for page in range(pages))


def unique_key_transfers(
    pattern: random.Random, payload: random.Random,
    n_txns: int, n_sites: int, keys: tuple[str, ...], prefix: str,
) -> list[dict]:
    """Two-site transfers, transaction ``i`` on key slot ``i mod len(keys)``.

    With one key per page and far more slots than the in-flight window
    no two concurrent transactions ever touch the same page.
    """
    transactions = []
    for index in range(n_txns):
        src = pattern.randrange(n_sites)
        dst = (src + 1 + pattern.randrange(n_sites - 1)) % n_sites
        key = keys[index % len(keys)]
        amount = payload.randint(1, 9)
        transactions.append(
            {
                "name": f"{prefix}{index}",
                "intends_abort": False,
                "ops": [
                    ["increment", f"t{src}", key, -amount],
                    ["increment", f"t{dst}", key, amount],
                ],
            }
        )
    return transactions


def _zipf_cdf(n: int, s: float) -> list[float]:
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    cdf, running = [], 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    cdf[-1] = 1.0  # guard against float drift
    return cdf


def zipf_mix(
    pattern: random.Random,
    payload: random.Random,
    n_txns: int,
    objects: list[tuple[str, str]],
    zipf_s: float,
    ops_per_txn: int,
    read_fraction: float,
    increment_fraction: float,
    intended_abort_rate: float,
    prefix: str,
) -> list[dict]:
    """Zipf-skewed read / increment / overwrite transactions.

    Whatever remains after reads and increments becomes overwrites.
    ``objects`` is rank-ordered: index 0 is the hottest.
    """
    cdf = _zipf_cdf(len(objects), zipf_s)
    transactions = []
    for index in range(n_txns):
        ops = []
        for _ in range(ops_per_txn):
            table, key = objects[bisect_left(cdf, pattern.random())]
            draw = pattern.random()
            if draw < read_fraction:
                ops.append(["read", table, key, None])
            elif draw < read_fraction + increment_fraction:
                ops.append(["increment", table, key, payload.choice([-2, -1, 1, 2])])
            else:
                ops.append(["write", table, key, payload.randint(0, 1000)])
        transactions.append(
            {
                "name": f"{prefix}{index}",
                "intends_abort": pattern.random() < intended_abort_rate,
                "ops": ops,
            }
        )
    return transactions
