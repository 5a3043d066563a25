"""Workload generators."""

import random

import pytest

from repro.workloads import (
    WorkloadGenerator,
    WorkloadSpec,
    balance_audit,
    build_banking_federation,
    transfer,
)
from repro.core.invariants import check_invariants
from repro.workloads.banking import all_accounts
from repro.workloads.counters import build_counter_site, counter_transactions


def test_spec_validates_fractions():
    with pytest.raises(ValueError):
        WorkloadSpec(read_fraction=0.7, increment_fraction=0.5)
    with pytest.raises(ValueError):
        WorkloadSpec(hotspot_fraction=1.5)


def test_generator_requires_objects():
    with pytest.raises(ValueError):
        WorkloadGenerator(WorkloadSpec(), [])


def test_generator_respects_ops_per_txn():
    gen = WorkloadGenerator(WorkloadSpec(ops_per_txn=7), [("t", "k")])
    ops, _ = gen.next_transaction(random.Random(1))
    assert len(ops) == 7


def test_generator_mix_matches_fractions():
    spec = WorkloadSpec(ops_per_txn=1, read_fraction=1.0, increment_fraction=0.0)
    gen = WorkloadGenerator(spec, [("t", "k")])
    rng = random.Random(2)
    kinds = {gen.next_transaction(rng)[0][0].kind for _ in range(20)}
    assert kinds == {"read"}


def test_generator_hotspot_concentration():
    spec = WorkloadSpec(
        ops_per_txn=1, read_fraction=0.0, increment_fraction=1.0,
        hotspot_fraction=1.0, hot_object_count=1,
    )
    objects = [("t", f"k{i}") for i in range(10)]
    gen = WorkloadGenerator(spec, objects)
    rng = random.Random(3)
    keys = {gen.next_transaction(rng)[0][0].key for _ in range(30)}
    assert keys == {"k0"}


def test_generator_abort_rate():
    spec = WorkloadSpec(intended_abort_rate=1.0)
    gen = WorkloadGenerator(spec, [("t", "k")])
    assert gen.next_transaction(random.Random(4))[1] is True


def test_generator_deterministic_per_rng_seed():
    spec = WorkloadSpec()
    objects = [("t", f"k{i}") for i in range(5)]
    a = WorkloadGenerator(spec, objects).next_transaction(random.Random(9))
    b = WorkloadGenerator(spec, objects).next_transaction(random.Random(9))
    assert a == b


def test_transfer_moves_between_sites():
    rng = random.Random(5)
    for _ in range(10):
        ops = transfer(rng, n_sites=3, accounts_per_site=4)
        assert len(ops) == 2
        assert ops[0].value == -ops[1].value
        assert ops[0].table != ops[1].table  # cross-site by default


def test_transfer_same_site_never_same_account():
    rng = random.Random(6)
    for _ in range(20):
        ops = transfer(rng, n_sites=1, accounts_per_site=3, cross_site=False)
        assert (ops[0].table, ops[0].key) != (ops[1].table, ops[1].key)


def test_balance_audit_reads_only():
    ops = balance_audit(2, 4, sample=3, rng=random.Random(7))
    assert len(ops) == 3
    assert all(op.kind == "read" for op in ops)


def test_banking_federation_conserves_money():
    fed = build_banking_federation(n_sites=2, accounts_per_site=3, initial_balance=100)
    accounts = dict.fromkeys(all_accounts(2, 3), 100)
    assert check_invariants(fed, conserved=accounts) == []  # funded as declared
    rng = random.Random(8)
    batches = [{"operations": transfer(rng, 2, 3)} for _ in range(5)]
    outcomes = fed.run_transactions(batches)
    assert all(o.committed for o in outcomes)
    assert check_invariants(fed, conserved=accounts) == []


def test_counter_site_figure8_layout(kernel):
    engine, keys = build_counter_site(kernel, n_counters=2, same_page=True)
    assert keys == ["x", "y"]
    heap = engine.catalog.heap("obj")
    assert heap.page_of("x") == heap.page_of("y")


def test_counter_site_spread_layout(kernel):
    engine, keys = build_counter_site(kernel, n_counters=4, same_page=False)
    heap = engine.catalog.heap("obj")
    assert len({heap.page_of(k) for k in keys}) > 1


def test_counter_transactions_shape():
    txns = counter_transactions(random.Random(1), ["x", "y"], n_txns=5, increments_per_txn=3)
    assert len(txns) == 5
    assert all(len(ops) == 3 for ops in txns)
    assert all(op.kind == "increment" for ops in txns for op in ops)


def test_spec_rejects_negative_zipf():
    with pytest.raises(ValueError):
        WorkloadSpec(zipf_s=-0.1)


def test_zipf_zero_keeps_legacy_hot_cold_path():
    spec_legacy = WorkloadSpec(ops_per_txn=3)
    spec_zipf0 = WorkloadSpec(ops_per_txn=3, zipf_s=0.0)
    objects = [("t", f"k{i}") for i in range(12)]
    a = WorkloadGenerator(spec_legacy, objects)
    b = WorkloadGenerator(spec_zipf0, objects)
    for seed in range(5):
        assert a.next_transaction(random.Random(seed)) == \
            b.next_transaction(random.Random(seed))


def test_zipf_skews_toward_low_ranks():
    spec = WorkloadSpec(
        ops_per_txn=1, read_fraction=0.0, increment_fraction=1.0, zipf_s=1.2
    )
    objects = [("t", f"k{i}") for i in range(64)]
    gen = WorkloadGenerator(spec, objects)
    rng = random.Random(11)
    counts = {}
    for _ in range(2000):
        key = gen.next_transaction(rng)[0][0].key
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    assert ranked[0][0] == "k0"  # rank 0 is the hottest object
    assert counts["k0"] > 2000 / 64 * 4  # far above the uniform share
    assert counts["k0"] > counts.get("k10", 0) > counts.get("k60", 0)


def test_zipf_deterministic_per_rng_seed():
    spec = WorkloadSpec(zipf_s=0.9)
    objects = [("t", f"k{i}") for i in range(8)]
    a = WorkloadGenerator(spec, objects).next_transaction(random.Random(13))
    b = WorkloadGenerator(spec, objects).next_transaction(random.Random(13))
    assert a == b
