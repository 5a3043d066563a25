"""Perf-smoke regression gate: fresh hot-path rates vs BENCH_perf.json.

Reruns the kernel hot-path benchmark (``bench_k1_hotpath``) and
compares every events/s figure against the committed baseline in
``BENCH_perf.json``.  A rate more than
``--threshold`` (default 20%) below its baseline fails the run; on
failure the federation scenario is re-profiled and the ``cProfile``
stats land in ``--artifacts-dir`` for the post-mortem.

Additionally re-measures the EXP-A6 open-loop latency-throughput
points and holds them to a **Pareto non-domination gate** against the
baseline's ``adaptive.pareto`` section: a configuration may trade
along the front (lose some throughput *for* better latency, or vice
versa), but a point whose throughput drops or whose p99 rises by more
than the threshold *without the other axis improving* is strictly
dominated by its baseline and fails the gate.  These figures are
simulated time -- deterministic, so this part is immune to runner
noise.  Baselines predating the ``adaptive`` section skip the gate.

A third check needs no baseline: within the fresh run, each protocol's
``adaptive`` point must not be strictly dominated by its ``static``
point (static at least as good on both axes, better on one).  Beating
fixed-window batching somewhere is the adaptive policy's reason to
exist.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/check_perf_regression.py \
        [--threshold 0.2] [--artifacts-dir perf-artifacts]

The threshold is deliberately loose: CI runners and dev machines
differ, and wall-clock noise is one-sided.  It catches the class of
regression that matters -- an accidental return to per-event heap
churn or a new allocation on the dispatch path -- not single-digit
drift.  ``PERF_SMOKE_THRESHOLD`` overrides the default when the
runner fleet changes speed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))


def fresh_rates() -> dict[str, float]:
    from benchmarks.bench_k1_hotpath import hotpath_headline

    return {
        f"kernel_hotpath.{name}": float(rate)
        for name, rate in hotpath_headline().items()
    }


def baseline_rates(summary: dict) -> dict[str, float]:
    return {
        f"kernel_hotpath.{name}": float(rate)
        for name, rate in summary.get("kernel_hotpath", {}).items()
    }


def fresh_pareto_front() -> dict:
    from benchmarks.bench_a6_adaptive import pareto_points

    return pareto_points()


def pareto_regressions(
    summary: dict, threshold: float, fresh_front: dict | None = None
) -> list[str]:
    """Check fresh EXP-A6 points against the baseline Pareto front.

    Returns the names of (protocol, config) points strictly dominated
    by their baseline: one axis worse by more than ``threshold`` while
    the other failed to improve.  ``fresh_front`` is measured here when
    not given.
    """
    baseline_front = summary.get("adaptive", {}).get("pareto")
    if not baseline_front:
        print("\npareto gate: baseline has no adaptive section, skipping")
        return []
    if fresh_front is None:
        fresh_front = fresh_pareto_front()
    regressions = []
    print(
        f"\n{'pareto point':<32} {'thr base':>9} {'thr now':>9} "
        f"{'p99 base':>9} {'p99 now':>9}"
    )
    for protocol in sorted(baseline_front):
        for config, base in sorted(baseline_front[protocol].items()):
            fresh = fresh_front.get(protocol, {}).get(config)
            name = f"{protocol}:{config}"
            if fresh is None:
                print(f"{name:<32} {'(missing from fresh run)':>20}")
                regressions.append(name)
                continue
            thr_ratio = fresh["throughput"] / base["throughput"]
            p99_ratio = (
                fresh["p99"] / base["p99"] if base["p99"] > 0 else 1.0
            )
            thr_worse = thr_ratio < 1.0 - threshold
            p99_worse = p99_ratio > 1.0 + threshold
            dominated = (thr_worse and p99_ratio >= 1.0) or (
                p99_worse and thr_ratio <= 1.0
            )
            flag = "  << DOMINATED" if dominated else ""
            print(
                f"{name:<32} {base['throughput']:>9.4f} "
                f"{fresh['throughput']:>9.4f} {base['p99']:>9.2f} "
                f"{fresh['p99']:>9.2f}{flag}"
            )
            if dominated:
                regressions.append(name)
    if not regressions:
        print("pareto gate: no point strictly dominated by its baseline")
    return regressions


def dominates(a: dict, b: dict) -> bool:
    """Is point ``a`` at least as good as ``b`` on both axes, better on one?"""
    return (
        a["throughput"] >= b["throughput"]
        and a["p99"] <= b["p99"]
        and (a["throughput"] > b["throughput"] or a["p99"] < b["p99"])
    )


def adaptive_dominated(fresh_front: dict) -> list[str]:
    """Protocols whose fresh ``adaptive`` point the ``static`` one dominates.

    Compares two points of the same run, so it needs no baseline and no
    threshold.  Returns ``"<protocol>:adaptive"`` names.
    """
    dominated = []
    print(
        f"\n{'adaptive vs static':<32} {'thr stat':>9} {'thr adap':>9} "
        f"{'p99 stat':>9} {'p99 adap':>9}"
    )
    for protocol in sorted(fresh_front):
        configs = fresh_front[protocol]
        static, adaptive = configs.get("static"), configs.get("adaptive")
        if static is None or adaptive is None:
            continue
        flag = ""
        if dominates(static, adaptive):
            flag = "  << DOMINATED"
            dominated.append(f"{protocol}:adaptive")
        print(
            f"{protocol:<32} {static['throughput']:>9.4f} "
            f"{adaptive['throughput']:>9.4f} {static['p99']:>9.2f} "
            f"{adaptive['p99']:>9.2f}{flag}"
        )
    if not dominated:
        print("adaptive gate: no adaptive point dominated by static")
    return dominated


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("PERF_SMOKE_THRESHOLD", "0.2")),
        help="maximum tolerated fractional drop vs baseline (default 0.2)",
    )
    parser.add_argument(
        "--artifacts-dir",
        default="perf-artifacts",
        help="where profile stats land when a regression is found",
    )
    args = parser.parse_args(argv)

    baseline_path = REPO_ROOT / "BENCH_perf.json"
    if not baseline_path.exists():
        print(f"error: no baseline at {baseline_path}", file=sys.stderr)
        return 2
    summary = json.loads(baseline_path.read_text())
    baseline = baseline_rates(summary)
    if not baseline:
        print("error: BENCH_perf.json has no hot-path rates", file=sys.stderr)
        return 2

    fresh = fresh_rates()
    floor = 1.0 - args.threshold
    regressions = []
    print(f"{'metric':<42} {'baseline':>12} {'fresh':>12} {'ratio':>7}")
    for name in sorted(baseline):
        if name not in fresh:
            print(f"{name:<42} {baseline[name]:>12.0f} {'missing':>12}")
            regressions.append(name)
            continue
        ratio = fresh[name] / baseline[name]
        flag = "" if ratio >= floor else "  << REGRESSION"
        print(
            f"{name:<42} {baseline[name]:>12.0f} {fresh[name]:>12.0f} "
            f"{ratio:>6.2f}x{flag}"
        )
        if ratio < floor:
            regressions.append(name)

    fresh_front = fresh_pareto_front()
    dominated = pareto_regressions(summary, args.threshold, fresh_front)
    dominated += adaptive_dominated(fresh_front)

    if not regressions and not dominated:
        print(
            f"\nok: all rates within {args.threshold:.0%} of baseline and "
            "no Pareto point dominated"
        )
        return 0

    if dominated:
        print(
            f"\nFAILED: {len(dominated)} Pareto point(s) strictly dominated "
            f"(by the baseline, or adaptive by static): {', '.join(dominated)}"
        )
        if not regressions:
            # Simulated-time regressions carry no profile to capture.
            return 1

    print(
        f"\nFAILED: {len(regressions)} rate(s) more than "
        f"{args.threshold:.0%} below baseline: {', '.join(regressions)}"
    )
    # Capture a profile of the representative scenario for the triage.
    from benchmarks.bench_k1_hotpath import profile_federation

    artifacts = pathlib.Path(args.artifacts_dir)
    artifacts.mkdir(parents=True, exist_ok=True)
    report = profile_federation()
    (artifacts / "profile_report.txt").write_text(report + "\n")
    stats = REPO_ROOT / "benchmarks" / "results" / "k1_hotpath.prof"
    if stats.exists():
        shutil.copy(stats, artifacts / "k1_hotpath.prof")
    print(f"profile artifacts written to {artifacts}/")
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
