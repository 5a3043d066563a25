"""Coordinator-crash-point exploration: Paxos is non-blocking, 2PC is not.

The acceptance exhibit of the Paxos Commit work, as checker runs: kill
the coordinator at *every* durable log-force boundary of the traced
baseline (plus F acceptors, for paxos) and audit the aftermath.  Paxos
Commit must leave zero blocked transactions in every execution; classic
2PC with a single central GTM must exhibit the blocking window the
paper motivates -- an orphaned in-doubt local holding its locks.
"""

import pytest

from repro.check import (
    CheckSpec,
    ReproTrace,
    enumerate_decision_boundaries,
    explore_coordinator_crash_points,
    shrink_counterexample,
)
from repro.check.cli import main as check_main
from repro.core.protocols import check_matrix
from repro.core.recovery import GlobalRecoveryManager


def paxos_spec(coordinators: int = 2) -> CheckSpec:
    return CheckSpec(
        protocol="paxos", granularity="per_site", coordinators=coordinators
    )


def test_decision_boundaries_cover_acceptor_forces():
    boundaries = enumerate_decision_boundaries(paxos_spec())
    assert boundaries, "a committing paxos run must force acceptor logs"
    assert boundaries == sorted(boundaries)
    # More boundaries than 2PC's: every acceptor of the 2F+1 group
    # forces one acceptance per commit, versus one decision force.
    reference = enumerate_decision_boundaries(
        CheckSpec(protocol="2pc", granularity="per_site")
    )
    assert len(boundaries) > len(reference) > 0


def test_paxos_coordinator_kill_at_every_boundary_never_blocks():
    report = explore_coordinator_crash_points(paxos_spec(), acceptor_crashes=1)
    assert report.crash_points > 0
    assert report.executions == report.crash_points
    assert report.violation_count == 0, report.counterexample.violations
    assert report.counterexample is None


def test_paxos_survives_kill_of_either_shard():
    # The sweep kills each shard in turn at every boundary: the crashed
    # shard's in-flight work lands on its peer regardless of which
    # shard the workload hashed to.
    report = explore_coordinator_crash_points(paxos_spec())
    boundaries = enumerate_decision_boundaries(paxos_spec())
    assert report.crash_points == report.executions == 2 * len(boundaries)
    assert report.violation_count == 0


@pytest.mark.parametrize("protocol,granularity", check_matrix())
def test_default_two_shard_sweep_adopts_orphans(protocol, granularity, monkeypatch):
    # Killing only the shard no transaction hashed to would hand the
    # peer nothing and prove nothing: the sweep must reach orphans.
    adopted = []
    adopt = GlobalRecoveryManager.adopt_orphans

    def counting(self, batch):
        adopted.extend(batch)
        return adopt(self, batch)

    monkeypatch.setattr(GlobalRecoveryManager, "adopt_orphans", counting)
    spec = CheckSpec(protocol=protocol, granularity=granularity, coordinators=2)
    report = explore_coordinator_crash_points(
        spec, acceptor_crashes=1 if protocol == "paxos" else 0
    )
    assert report.violation_count == 0
    assert adopted, f"{protocol}: no kill left an orphan to adopt"


def test_2pc_single_coordinator_kill_exhibits_blocking_window():
    spec = CheckSpec(protocol="2pc", granularity="per_site", coordinators=1)
    report = explore_coordinator_crash_points(spec)
    assert report.violation_count > 0
    counterexample = report.counterexample
    assert counterexample is not None
    assert counterexample.crashes, "the counterexample must name the kill"
    text = " ".join(counterexample.violations)
    assert "in-doubt" in text or "non-terminal" in text


def _replayed(spec: CheckSpec, counterexample) -> ReproTrace:
    """The counterexample after a round trip through its .repro.json bytes."""
    trace = ReproTrace.from_result(spec, counterexample)
    return ReproTrace.from_json_bytes(trace.to_json_bytes())


def test_acceptor_kills_are_recorded_and_replay():
    # Killing 2 > F acceptors with the coordinator blocks paxos; the
    # counterexample must carry every kill, not only the coordinator's.
    spec = CheckSpec(
        protocol="paxos", granularity="per_site", coordinators=2, n_txns=2
    )
    report = explore_coordinator_crash_points(
        spec, acceptor_crashes=2, restart_after=0.0
    )
    counterexample = report.counterexample
    assert counterexample is not None
    trace = _replayed(spec, counterexample)
    assert [crash.site for crash in trace.crashes] == [
        "central", "acceptor0", "acceptor1",
    ]
    assert trace.replay().violations == counterexample.violations


def test_single_coordinator_kill_replays_as_a_gtm_crash():
    # With one coordinator the kill crashes the GTM (pool failover
    # bookkeeping included), in the sweep and in its replay alike.
    spec = CheckSpec(protocol="2pc", granularity="per_site", coordinators=1)
    counterexample = explore_coordinator_crash_points(spec).counterexample
    assert counterexample is not None
    assert "convergence: gtxn T0 orphaned in-doubt" in counterexample.violations
    trace = _replayed(spec, counterexample)
    assert trace.replay().violations == counterexample.violations
    assert shrink_counterexample(
        spec, trace.schedule, crashes=tuple(trace.crashes)
    ) == []


def test_cli_paxos_crash_points_exits_zero(capsys):
    status = check_main([
        "--protocol", "paxos", "--coordinators", "2",
        "--coordinator-crash-points", "--acceptor-crashes", "1",
    ])
    assert status == 0
    out = capsys.readouterr().out
    assert "0 with blocked transactions" in out
    assert "no execution blocked" in out


def test_cli_2pc_crash_points_exits_one(tmp_path, capsys):
    out_path = tmp_path / "2pc-blocking.repro.json"
    status = check_main([
        "--protocol", "2pc", "--coordinators", "1",
        "--coordinator-crash-points", "--out", str(out_path),
    ])
    assert status == 1
    out = capsys.readouterr().out
    assert "1 with blocked transactions" in out
    assert f"wrote {out_path}" in out
    # The written counterexample names the kill and replays to a block.
    trace = ReproTrace.read(str(out_path))
    assert [crash.site for crash in trace.crashes] == ["central"]
    assert check_main(["--replay", str(out_path)]) == 1
    assert trace.replay().violations == trace.violations


def test_cli_rejects_acceptor_crashes_off_paxos():
    with pytest.raises(SystemExit):
        check_main([
            "--protocol", "2pc", "--coordinator-crash-points",
            "--acceptor-crashes", "1",
        ])
