"""Placement model unit tests: partitioners, specs, the map."""

import pytest

from repro.dataplane import (
    HashPartitioner,
    PlacementError,
    PlacementMap,
    PlacementSpec,
    RangePartitioner,
)
from repro.storage.heap import _stable_hash


def test_hash_partitioner_matches_stable_hash():
    partitioner = HashPartitioner(4)
    for key in ("a", "k17", "holder", 42):
        assert partitioner.partition_of(key) == _stable_hash(key) % 4


def test_range_partitioner_buckets_by_boundary():
    partitioner = RangePartitioner(["g", "p"])
    assert partitioner.partitions == 3
    assert partitioner.partition_of("a") == 0
    assert partitioner.partition_of("g") == 1  # boundaries are upper-exclusive
    assert partitioner.partition_of("m") == 1
    assert partitioner.partition_of("z") == 2


def test_range_partitioner_rejects_unsorted_boundaries():
    with pytest.raises(PlacementError):
        RangePartitioner(["p", "g"])


@pytest.mark.parametrize("kwargs", [
    {"partitions": 0},
    {"replication": 0},
    {"partitioner": "modulo"},
    {"partitioner": "range", "partitions": 3, "boundaries": ("m",)},
])
def test_spec_validation(kwargs):
    with pytest.raises(PlacementError):
        PlacementSpec(table="acct", **kwargs)


def test_chained_declustering_member_assignment():
    placement = PlacementMap(
        [PlacementSpec(table="acct", partitions=3, replication=2)],
        ["s0", "s1", "s2"],
    )
    assert [p.members for p in placement.partitions] == [
        ["s0", "s1"], ["s1", "s2"], ["s2", "s0"],
    ]
    assert [p.local_table for p in placement.partitions] == [
        "acct_p0", "acct_p1", "acct_p2",
    ]
    assert all(p.epoch == 1 for p in placement.partitions)
    assert placement.partitions[1].primary == "s1"


def test_map_rejects_overwide_replication_and_duplicate_tables():
    with pytest.raises(PlacementError):
        PlacementMap(
            [PlacementSpec(table="acct", partitions=2, replication=3)],
            ["s0", "s1"],
        )
    with pytest.raises(PlacementError):
        PlacementMap(
            [
                PlacementSpec(table="acct", partitions=2),
                PlacementSpec(table="acct", partitions=4),
            ],
            ["s0", "s1"],
        )


def test_partition_of_routes_to_declared_sites_subset():
    placement = PlacementMap(
        [PlacementSpec(table="acct", partitions=2, sites=("s2", "s3"))],
        ["s0", "s1", "s2", "s3"],
    )
    assert {p.primary for p in placement.partitions} == {"s2", "s3"}
    partition = placement.partition_of("acct", "k0")
    assert partition in placement.partitions
    assert not placement.manages("other")
    with pytest.raises(PlacementError):
        placement.partition_of("other", "k0")


def test_initial_rows_sliced_by_partitioner():
    rows = {f"k{i}": 100 + i for i in range(16)}
    placement = PlacementMap(
        [PlacementSpec(table="acct", partitions=4, rows=rows)],
        ["s0", "s1"],
    )
    seen = {}
    for partition in placement.partitions:
        slice_ = placement.initial_rows(partition)
        for key in slice_:
            assert _stable_hash(key) % 4 == partition.index
        seen.update(slice_)
    assert seen == rows  # every row lands in exactly one partition


def test_initial_rows_keep_row_order_and_come_as_a_copy():
    rows = {f"k{i}": i for i in range(32)}
    placement = PlacementMap([PlacementSpec(table="acct", partitions=4, rows=rows)], ["s0"])
    for partition in placement.partitions:
        slice_ = placement.initial_rows(partition)
        assert list(slice_) == [k for k in rows if _stable_hash(k) % 4 == partition.index]
        slice_["extra"] = -1
        assert "extra" not in placement.initial_rows(partition)


def test_partitions_for_site_includes_offline_memberships():
    placement = PlacementMap(
        [PlacementSpec(table="acct", partitions=2, replication=2)],
        ["s0", "s1"],
    )
    partition = placement.partitions[0]
    partition.members.remove("s0")
    partition.offline.add("s0")
    assert partition in placement.partitions_for_site("s0")
