"""Parameterized random workload generator.

Generates global transactions over a set of (table, key) objects with a
configurable operation mix and a hotspot: a fraction of operations
target a small set of hot objects, which is what makes the concurrency
differences between the commit protocols visible (EXP-T2).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any

from repro.mlt.actions import Operation


@dataclass
class WorkloadSpec:
    """Shape of the generated transactions.

    Fractions are operation-kind probabilities; whatever remains after
    reads and increments becomes writes.  ``hotspot_fraction`` is the
    probability that an operation targets one of the first
    ``hot_object_count`` objects.
    """

    ops_per_txn: int = 4
    read_fraction: float = 0.3
    increment_fraction: float = 0.5
    hotspot_fraction: float = 0.6
    hot_object_count: int = 4
    intended_abort_rate: float = 0.0
    write_value_range: tuple[int, int] = (0, 1000)
    #: Zipf skew exponent over the object list (rank 0 = hottest).
    #: 0.0 keeps the legacy hot/cold split; > 0 replaces it with a
    #: Zipf(s) draw, rank r weighted 1/(r+1)^s.
    zipf_s: float = 0.0

    def __post_init__(self) -> None:
        if self.read_fraction + self.increment_fraction > 1.0:
            raise ValueError("operation fractions exceed 1.0")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction out of range")
        if self.zipf_s < 0.0:
            raise ValueError("zipf_s must be non-negative")


def zipf_cdf(n: int, s: float) -> list[float]:
    """Cumulative Zipf(s) weights over ranks ``0..n-1``.

    Rank r is weighted 1/(r+1)^s.  One uniform draw and a
    ``bisect_left`` into the result give a deterministic, seeded skewed
    pick (EXP-S2 key skew).
    """
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    cdf: list[float] = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    cdf[-1] = 1.0  # guard against float drift
    return cdf


class WorkloadGenerator:
    """Draws transactions from a :class:`WorkloadSpec` over given objects."""

    def __init__(self, spec: WorkloadSpec, objects: list[tuple[str, Any]]):
        if not objects:
            raise ValueError("workload needs at least one object")
        self.spec = spec
        self.objects = list(objects)
        self.hot = self.objects[: max(1, min(spec.hot_object_count, len(objects)))]
        self.cold = self.objects[len(self.hot):] or self.hot
        self._zipf_cdf = zipf_cdf(len(self.objects), spec.zipf_s) if spec.zipf_s > 0.0 else []

    def next_transaction(self, rng: random.Random) -> tuple[list[Operation], bool]:
        """One transaction: (operations, intends_abort)."""
        operations = []
        for _ in range(self.spec.ops_per_txn):
            table, key = self._pick_object(rng)
            operations.append(self._pick_operation(rng, table, key))
        intends_abort = rng.random() < self.spec.intended_abort_rate
        return operations, intends_abort

    def _pick_object(self, rng: random.Random) -> tuple[str, Any]:
        if self._zipf_cdf:
            return self.objects[bisect_left(self._zipf_cdf, rng.random())]
        pool = self.hot if rng.random() < self.spec.hotspot_fraction else self.cold
        return pool[rng.randrange(len(pool))]

    def _pick_operation(self, rng: random.Random, table: str, key: Any) -> Operation:
        draw = rng.random()
        if draw < self.spec.read_fraction:
            return Operation("read", table, key)
        if draw < self.spec.read_fraction + self.spec.increment_fraction:
            return Operation("increment", table, key, rng.choice([-2, -1, 1, 2]))
        low, high = self.spec.write_value_range
        return Operation("write", table, key, rng.randint(low, high))
