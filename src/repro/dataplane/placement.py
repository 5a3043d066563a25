"""Placement model: namespaces, partitions and their site assignments.

A :class:`PlacementSpec` declares how one global table (a namespace) is
split into partitions and how wide each partition is replicated.  The
:class:`PlacementMap` materialises those declarations into
:class:`Partition` records -- the mutable unit of membership: a
partition knows its member sites (the first member is the primary), the
ex-members awaiting re-integration, and its *epoch*, which increments
on every membership change so stale routed requests can be fenced.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.errors import ReproError
from repro.storage.heap import _stable_hash


class PlacementError(ReproError):
    """A placement declaration is inconsistent or cannot be routed."""


class PlacementUnavailable(PlacementError):
    """Routing is temporarily impossible (frozen or memberless partition).

    Retriable by design: the GTM backs off and re-decomposes, picking
    up the post-rejoin (or post-promotion) membership and epoch.
    """

    def __init__(self, table: str, index: int, reason: str):
        super().__init__(f"partition {table}/p{index} unavailable: {reason}")
        self.table = table
        self.index = index
        self.reason = reason


class HashPartitioner:
    """Stable-hash partitioner (same digest as the heap's bucketing)."""

    kind = "hash"

    def __init__(self, partitions: int):
        self.partitions = partitions

    def partition_of(self, key: Any) -> int:
        return _stable_hash(key) % self.partitions


class RangePartitioner:
    """Key-range partitioner over sorted split points.

    ``boundaries`` are the upper-exclusive split keys: ``n`` boundaries
    yield ``n + 1`` partitions, keys below ``boundaries[0]`` landing in
    partition 0.
    """

    kind = "range"

    def __init__(self, boundaries: Sequence[Any]):
        self.boundaries = list(boundaries)
        if self.boundaries != sorted(self.boundaries):
            raise PlacementError(f"range boundaries not sorted: {boundaries!r}")
        self.partitions = len(self.boundaries) + 1

    def partition_of(self, key: Any) -> int:
        return bisect_right(self.boundaries, key)


@dataclass(frozen=True)
class PlacementSpec:
    """Declaration of one partitioned, partially replicated namespace.

    ``rows`` holds the table's initial global rows; the federation
    distributes them to the partition local tables at load time.
    ``sites`` restricts the candidate sites (default: every data site);
    members are assigned round-robin with chained declustering, so
    replication factor ``r`` places partition ``i`` on candidates
    ``i, i+1, ..., i+r-1`` (mod the candidate count).
    """

    table: str
    partitions: int = 4
    replication: int = 1
    partitioner: str = "hash"  # "hash" | "range"
    boundaries: tuple = ()
    sites: tuple = ()
    rows: dict = field(default_factory=dict)
    buckets: int = 8

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise PlacementError(f"partitions must be >= 1, got {self.partitions}")
        if self.replication < 1:
            raise PlacementError(f"replication must be >= 1, got {self.replication}")
        if self.partitioner not in ("hash", "range"):
            raise PlacementError(f"unknown partitioner {self.partitioner!r}")
        if self.partitioner == "range" and len(self.boundaries) != self.partitions - 1:
            raise PlacementError(
                f"range partitioner over {self.partitions} partitions needs "
                f"{self.partitions - 1} boundaries, got {len(self.boundaries)}"
            )

    def make_partitioner(self):
        if self.partitioner == "range":
            return RangePartitioner(self.boundaries)
        return HashPartitioner(self.partitions)


@dataclass
class Partition:
    """One partition's membership record.

    ``members[0]`` is the primary; replicas follow.  ``offline`` holds
    evicted ex-members awaiting rejoin (they resync before serving
    again).  ``epoch`` increments on every membership change, and
    ``frozen`` pauses routing during a rejoin handshake.
    """

    pid: int
    table: str
    index: int
    local_table: str
    members: list[str]
    epoch: int = 1
    offline: set[str] = field(default_factory=set)
    frozen: bool = False
    #: Set when the membership empties: the last-standing member, the
    #: only ex-member guaranteed to hold every committed write.  Only
    #: it may resume the partition alone; earlier-evicted returners
    #: wait for it and resync from it.
    resume_set: set[str] = field(default_factory=set)

    @property
    def primary(self) -> Optional[str]:
        return self.members[0] if self.members else None

    def __repr__(self) -> str:
        return (
            f"<Partition {self.table}/p{self.index} epoch={self.epoch} "
            f"members={self.members} offline={sorted(self.offline)}>"
        )


class PlacementMap:
    """All partitions of all placed namespaces, resolvable by key."""

    def __init__(self, specs: Sequence[PlacementSpec], site_names: Sequence[str]):
        self.specs = list(specs)
        self.partitions: list[Partition] = []
        self._by_table: dict[str, list[Partition]] = {}
        self._partitioners: dict[str, Any] = {}
        self._spec_by_table: dict[str, PlacementSpec] = {}
        self._initial_rows: list[dict] = []  # by pid
        for spec in self.specs:
            if spec.table in self._by_table:
                raise PlacementError(f"table {spec.table!r} placed twice")
            candidates = list(spec.sites) or list(site_names)
            if not candidates:
                raise PlacementError(f"no candidate sites for {spec.table!r}")
            if spec.replication > len(candidates):
                raise PlacementError(
                    f"replication {spec.replication} of {spec.table!r} exceeds "
                    f"{len(candidates)} candidate sites"
                )
            partitioner = spec.make_partitioner()
            self._partitioners[spec.table] = partitioner
            self._spec_by_table[spec.table] = spec
            table_partitions = []
            for index in range(spec.partitions):
                members = [
                    candidates[(index + offset) % len(candidates)]
                    for offset in range(spec.replication)
                ]
                partition = Partition(
                    pid=len(self.partitions),
                    table=spec.table,
                    index=index,
                    local_table=f"{spec.table}_p{index}",
                    members=members,
                )
                self.partitions.append(partition)
                table_partitions.append(partition)
            self._by_table[spec.table] = table_partitions
            slices: list[dict] = [{} for _ in table_partitions]
            for key, value in spec.rows.items():
                slices[partitioner.partition_of(key)][key] = value
            self._initial_rows.extend(slices)

    # -- resolution --------------------------------------------------------

    def manages(self, table: str) -> bool:
        return table in self._by_table

    def partition_of(self, table: str, key: Any) -> Partition:
        partitions = self._by_table.get(table)
        if partitions is None:
            raise PlacementError(f"table {table!r} has no placement")
        return partitions[self._partitioners[table].partition_of(key)]

    def partition(self, pid: int) -> Partition:
        return self.partitions[pid]

    def table_partitions(self, table: str) -> list[Partition]:
        return list(self._by_table.get(table, ()))

    def partitions_for_site(self, site: str) -> list[Partition]:
        """Partitions whose membership involves ``site`` (incl. offline)."""
        return [
            p for p in self.partitions if site in p.members or site in p.offline
        ]

    def initial_rows(self, partition: Partition) -> dict:
        """The slice of the spec's initial rows landing in ``partition``."""
        return dict(self._initial_rows[partition.pid])

    def spec_for(self, table: str) -> PlacementSpec:
        return self._spec_by_table[table]

    def __repr__(self) -> str:
        return f"<PlacementMap tables={sorted(self._by_table)} partitions={len(self.partitions)}>"
