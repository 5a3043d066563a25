"""The seeded one-phase / Short-Commit mutants must be caught.

Each new protocol ships with a protocol-specific bug behind a flag
(see the registry's ``mutants``), wired into ``repro.check --mutant``
and run as a CI canary.  These tests prove the checker actually
catches them -- and that the identical scenario with the guard intact
is clean, so the canaries fail for the right reason.

``presume_commit``
    One-phase treats a participant that died before its piggybacked
    vote as a yes and skips the redo obligation.  The crash-point
    sweep over the ``exposure`` workload kills a site mid-execution of
    a staggered transaction: the mutant commits the global anyway and
    the dead site's effect is lost (atomicity violation).

``short_release_all``
    Short-Commit releases write locks outright instead of downgrading
    them.  The same sweep's vote-swallowing crash turns the exposer's
    decision into an abort after a concurrent writer overwrote the
    released value: the rollback clobbers the writer's committed
    effect (``dirty_undo`` violation).
"""

import json

from repro.check import CheckSpec, ReproTrace, explore_crash_points, write_counterexample

PRESUME_SPEC = CheckSpec(
    protocol="one_phase",
    granularity="per_site",
    workload="exposure",
    mutant="presume_commit",
)
SHORT_SPEC = CheckSpec(
    protocol="short_commit",
    granularity="per_site",
    workload="exposure",
    mutant="short_release_all",
)


def test_presume_commit_loses_an_effect():
    report = explore_crash_points(PRESUME_SPEC)
    assert report.crash_points > 0
    assert report.violation_count >= 1
    assert any(
        "lost_execution" in violation
        for violation in report.counterexample.violations
    )


def test_presume_commit_control_is_clean():
    clean = CheckSpec(
        protocol="one_phase", granularity="per_site", workload="exposure"
    )
    report = explore_crash_points(clean)
    assert report.crash_points > 0
    assert report.violation_count == 0


def test_short_release_all_clobbers_a_committed_write():
    report = explore_crash_points(SHORT_SPEC)
    assert report.crash_points > 0
    assert report.violation_count >= 1
    assert any(
        "dirty_undo" in violation
        for violation in report.counterexample.violations
    )


def test_short_release_all_control_is_clean():
    clean = CheckSpec(
        protocol="short_commit", granularity="per_site", workload="exposure"
    )
    report = explore_crash_points(clean)
    assert report.crash_points > 0
    assert report.violation_count == 0


def test_counterexamples_replay_deterministically(tmp_path):
    for name, spec in (("presume", PRESUME_SPEC), ("short", SHORT_SPEC)):
        report = explore_crash_points(spec)
        result = report.counterexample
        path = tmp_path / f"{name}.repro.json"
        write_counterexample(str(path), spec, result)
        replayed = ReproTrace.read(str(path)).replay()
        assert replayed.violations == result.violations


def test_cli_canaries_catch_and_write_artifacts(tmp_path):
    from repro.check.cli import main

    for spec, kind in ((PRESUME_SPEC, "lost_execution"), (SHORT_SPEC, "dirty_undo")):
        out = tmp_path / f"{spec.mutant}.repro.json"
        code = main([
            "--protocol", spec.protocol,
            "--workload", spec.workload,
            "--mutant", spec.mutant,
            "--depth", "2", "--budget", "2",
            "--crash-points",
            "--out", str(out),
        ])
        assert code == 1, f"canary {spec.mutant} did not trip"
        # The shrunk artifact still shows the canary's own violation.
        assert any(kind in v for v in json.loads(out.read_text())["violations"])
