"""The replicated workload: clean under crash points, mutant caught.

The ``replicated`` scenario routes staggered transfers through a
partitioned, replicated placement; crash-point enumeration kills a
site at every durable log-force boundary, driving eviction, promotion
and rejoin.  With the data plane intact every execution must keep all
invariants (including replica convergence).  The ``stale_epoch``
mutant -- fencing and rejoin-time drain/resync disabled -- must be
caught with a replica-divergence violation and replay deterministically.
"""

import json

import pytest

from repro.check import CheckSpec, explore, explore_crash_points
from repro.check.engine import replay_execution
from repro.check.scenarios import build_scenario

CLEAN_SPEC = CheckSpec(workload="replicated", partitions=2, replication=2)
MUTANT_SPEC = CheckSpec(
    workload="replicated", partitions=2, replication=2, mutant="stale_epoch"
)


def test_spec_validation():
    with pytest.raises(ValueError):
        CheckSpec(workload="replicated")  # needs partitions
    with pytest.raises(ValueError):
        CheckSpec(mutant="stale_epoch")  # likewise


def test_scenario_builds_placement_and_mutant_knobs():
    scenario = build_scenario(CLEAN_SPEC)
    dataplane = scenario.federation.dataplane
    assert dataplane is not None
    assert len(dataplane.map.partitions) == 2
    assert all(len(p.members) == 2 for p in dataplane.map.partitions)
    assert dataplane.fencing and dataplane.drain_on_rejoin

    mutant = build_scenario(MUTANT_SPEC)
    dataplane = mutant.federation.dataplane
    assert not dataplane.fencing
    assert not dataplane.drain_on_rejoin
    assert not dataplane.resync_on_rejoin


def test_clean_replicated_schedules_keep_invariants():
    report = explore(CLEAN_SPEC, depth=4, budget=50)
    assert report.violation_count == 0
    assert report.counterexample is None


def test_clean_replicated_crash_points_keep_invariants():
    report = explore_crash_points(CLEAN_SPEC)
    assert report.crash_points > 0
    assert report.violation_count == 0, (
        report.counterexample and report.counterexample.violations
    )


def test_stale_epoch_mutant_caught_at_crash_points(tmp_path):
    report = explore_crash_points(MUTANT_SPEC)
    assert report.violation_count >= 1
    result = report.counterexample
    assert result is not None
    assert any("replica_convergence" in v for v in result.violations)

    # The counterexample replays deterministically: same crash point,
    # same divergence.
    replayed = replay_execution(
        MUTANT_SPEC, result.choices, crashes=tuple(result.crashes)
    )
    assert replayed.violations == result.violations

    # The CLI's shrunk artifact keeps the divergence.
    from repro.check.cli import main

    out = tmp_path / "stale-epoch.repro.json"
    assert main([
        "--workload", "replicated", "--partitions", "2", "--replication", "2",
        "--crash-points", "--mutant", "stale_epoch", "--out", str(out),
    ]) == 1
    violations = json.loads(out.read_text())["violations"]
    assert any("replica_convergence" in v for v in violations)
