"""Unit tests of the shared invariant predicates.

The positive direction (clean runs have no violations) is covered by
the exploration suite and the property tests; here each predicate is
shown to actually *fire* on a broken state, using minimal fakes where
breaking a real federation is impractical.
"""

from types import SimpleNamespace

import pytest

from repro.core.invariants import (
    InvariantViolation,
    atomicity_report,
    conservation_violations,
    convergence_violations,
    inverse_order_violations,
    lock_release_violations,
    redo_drain_violations,
    undo_drain_violations,
)
from repro.core.protocols import make_protocol
from repro.core.redo import RedoLog
from repro.core.undo import UndoLog
from repro.faults.chaos import ChaosResult, ChaosSpec
from repro.core.serializability import OpRecord
from repro.mlt.actions import increment
from tests.protocols.conftest import build_fed, submit_and_run


def _op(seq, txn_id, gtxn_id, table, key, kind="increment"):
    return OpRecord(seq=seq, txn_id=txn_id, gtxn_id=gtxn_id, kind=kind,
                    table=table, key=key)


def _fake_federation(**overrides):
    gtm = SimpleNamespace(
        name="central",
        active={},
        l1=None,
        redo_log=RedoLog(),
        undo_log=UndoLog(),
        config=SimpleNamespace(optimize_undo=False),
        is_active=lambda gtxn_id: False,
    )
    federation = SimpleNamespace(gtm=gtm, engines={}, pool=None)
    for key, value in overrides.items():
        setattr(federation, key, value)
    return federation


def test_redo_drain_flags_unconfirmed_entries():
    federation = _fake_federation()
    federation.gtm.redo_log.record("G1", "s0", [increment("t0", "a", 1)])
    violations = redo_drain_violations(federation)
    assert len(violations) == 1
    assert violations[0].invariant == "redo_drain"
    assert "G1" in violations[0].detail


def test_redo_drain_ignores_still_active_transactions():
    federation = _fake_federation()
    federation.gtm.is_active = lambda gtxn_id: True
    federation.gtm.redo_log.record("G1", "s0", [increment("t0", "a", 1)])
    assert redo_drain_violations(federation) == []


def test_undo_drain_flags_unexecuted_inverses():
    federation = _fake_federation()
    operation = increment("t0", "a", 1)
    federation.gtm.undo_log.record("G2", "s1", operation, increment("t0", "a", -1))
    violations = undo_drain_violations(federation)
    assert len(violations) == 1
    assert violations[0].invariant == "undo_drain"
    assert "G2" in violations[0].detail


def test_lock_release_flags_held_locks():
    engine = SimpleNamespace(
        locks=SimpleNamespace(
            _resources={("t0", 3): SimpleNamespace(holders={"s0:t9": object()})}
        )
    )
    federation = _fake_federation(engines={"s0": engine})
    violations = lock_release_violations(federation)
    assert len(violations) == 1
    assert "s0:t9" in violations[0].detail


def test_convergence_flags_active_gtxns_and_unfinished_processes():
    federation = _fake_federation()
    federation.gtm.active = {"G3": object()}
    process = SimpleNamespace(done=False, name="submit:G3")
    violations = convergence_violations(federation, processes=[process])
    kinds = [violation.detail for violation in violations]
    assert any("G3" in detail for detail in kinds)
    assert any("submit:G3" in detail for detail in kinds)


def _engine_with_history(records, committed):
    return SimpleNamespace(op_history=records, committed_txn_ids=set(committed))


def test_inverse_order_accepts_reverse_undo():
    records = [
        _op(1, "s0:t1", "G1", "t0", "a"),
        _op(2, "s0:t2", "G1", "t0", "b"),
        _op(3, "s0:t3", "G1!undo", "t0", "b"),
        _op(4, "s0:t4", "G1!undo", "t0", "a"),
    ]
    federation = _fake_federation(
        engines={"s0": _engine_with_history(records, ["s0:t1", "s0:t2", "s0:t3", "s0:t4"])}
    )
    assert inverse_order_violations(federation) == []


def test_inverse_order_flags_forward_order_undo():
    records = [
        _op(1, "s0:t1", "G1", "t0", "a"),
        _op(2, "s0:t2", "G1", "t0", "b"),
        # Undo in FORWARD order: only sound for commuting actions,
        # which the audit does not assume.
        _op(3, "s0:t3", "G1!undo", "t0", "a"),
        _op(4, "s0:t4", "G1!undo", "t0", "b"),
    ]
    federation = _fake_federation(
        engines={"s0": _engine_with_history(records, ["s0:t1", "s0:t2", "s0:t3", "s0:t4"])}
    )
    violations = inverse_order_violations(federation)
    assert len(violations) == 1
    assert violations[0].invariant == "inverse_order"


def test_inverse_order_skips_multi_attempt_transactions():
    records = [
        _op(1, "s0:t1", "G1", "t0", "a"),
        _op(2, "s0:t2", "G1~r1", "t0", "b"),
        _op(3, "s0:t3", "G1!undo", "t0", "a"),
    ]
    federation = _fake_federation(
        engines={"s0": _engine_with_history(records, ["s0:t1", "s0:t2", "s0:t3"])}
    )
    assert inverse_order_violations(federation) == []


def test_inverse_order_skips_when_optimizer_collapses_inverses():
    records = [
        _op(1, "s0:t1", "G1", "t0", "a"),
        _op(2, "s0:t2", "G1!undo", "t0", "a"),
    ]
    federation = _fake_federation(
        engines={"s0": _engine_with_history(records, ["s0:t1", "s0:t2"])}
    )
    federation.gtm.config.optimize_undo = True
    assert inverse_order_violations(federation) == []


def test_atomicity_counts_come_from_the_committed_history():
    """Forward and inverse counts per (global txn, site) come from the
    committed op records: a committed read-only local is not a forward
    execution, an uncommitted local counts for nothing, and a committed
    ``!undo`` local is an inverse."""
    records = [
        _op(1, "s0:t1", "G1", "t0", "a", kind="write"),
        _op(2, "s0:t2", "G1", "t0", "a", kind="read"),  # read-only local
        _op(3, "s0:t3", "G1", "t0", "a", kind="write"),  # never committed
        _op(4, "s0:t4", "G2", "t0", "b", kind="write"),
        _op(5, "s0:t5", "G2", "t0", "b", kind="write"),  # a second execution
        _op(6, "s0:t6", "G3", "t0", "c", kind="read"),
        _op(7, "s0:t6", "G3", "t0", "c", kind="write"),
        _op(8, "s0:t7", "G3!undo", "t0", "c", kind="write"),
        _op(9, "s0:t8", "G4", "t0", "d", kind="write"),  # never undone
    ]
    committed = ["s0:t1", "s0:t2", "s0:t4", "s0:t5", "s0:t6", "s0:t7", "s0:t8"]
    federation = _fake_federation(
        engines={"s0": _engine_with_history(records, committed)}
    )
    federation.gtm.protocol = make_protocol("2pc")
    federation.gtm.outcomes = [
        SimpleNamespace(
            gtxn_id=gtxn_id, committed=committed, sites=["s0"],
            routed_ops=[("s0", "write")],
        )
        for gtxn_id, committed in [("G1", True), ("G2", True), ("G3", False), ("G4", False)]
    ]
    report = atomicity_report(federation)
    assert report.checked == 4
    assert [(v.gtxn_id, v.kind, v.detail) for v in report.violations] == [
        ("G2", "double_execution", "net 2/1 forward txns committed"),
        ("G4", "unbalanced_undo", "1 forward vs 0 inverse committed"),
    ]

@pytest.mark.parametrize("protocol", ["saga", "altruistic"])
def test_atomicity_asks_the_protocol_whether_it_runs_per_action(protocol):
    """Saga and altruistic run one local per action whatever the
    configured granularity, so two increments at one site are two
    forward locals, not a double execution."""
    fed = build_fed(protocol, granularity="per_site")
    outcome = submit_and_run(
        fed, [increment("t0", "x", 1), increment("t0", "y", 1), increment("t1", "x", 1)]
    )
    assert outcome.committed
    assert atomicity_report(fed).violations == []


def _fake_accounts(values):
    """A fake whose cell ``t<n>[key]`` lives at site ``s<n>``."""
    return SimpleNamespace(
        locate=lambda table, key: (f"s{table[1:]}", table),
        peek=lambda site, table, key: values.get((table, key)),
    )


def test_conservation_flags_drift_with_per_site_deltas():
    federation = _fake_accounts({("t0", "a"): 95, ("t1", "a"): 106, ("t1", "b"): 50})
    declared = {("t0", "a"): 100, ("t1", "a"): 100, ("t1", "b"): 50}
    violations = conservation_violations(federation, declared)
    assert [str(v) for v in violations] == [
        "conservation: total 251 != 250 (deltas: s0 -5, s1 +6)"
    ]


def test_conservation_reads_a_missing_cell_as_zero():
    federation = _fake_accounts({("t0", "a"): 100})
    violations = conservation_violations(federation, {("t0", "a"): 100, ("t1", "a"): 10})
    assert [v.detail for v in violations] == ["total 100 != 110 (deltas: s0 +0, s1 -10)"]


def test_conservation_is_silent_when_balanced_or_undeclared():
    federation = _fake_accounts({("t0", "a"): 90, ("t1", "a"): 110})
    assert conservation_violations(federation, {("t0", "a"): 100, ("t1", "a"): 100}) == []
    # Nothing declared: no cell is even located.
    assert conservation_violations(SimpleNamespace(), None) == []
    assert conservation_violations(SimpleNamespace(), {}) == []


def test_chaos_verdicts_follow_the_violation_list():
    drift = InvariantViolation("conservation", "total 4801 != 4800 (deltas: s1 +1)")
    result = ChaosResult(spec=ChaosSpec("2pc"), findings=[drift])
    assert result.violations == ["conservation: total 4801 != 4800 (deltas: s1 +1)"]
    assert not result.ok
    assert not result.conserved
    assert result.atomicity_ok and result.converged
    clean = ChaosResult(spec=ChaosSpec("2pc"))
    assert clean.ok and clean.conserved
