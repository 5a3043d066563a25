"""Unit tests for the Pareto non-domination gate (perf-smoke CI)."""

import importlib.util
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_perf_regression", REPO_ROOT / "scripts" / "check_perf_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary_with(points):
    return {"adaptive": {"pareto": points}}


def patch_fresh(monkeypatch, module, points):
    bench = sys.modules.get("benchmarks.bench_a6_adaptive")
    if bench is None:
        sys.path.insert(0, str(REPO_ROOT))
        sys.path.insert(0, str(REPO_ROOT / "src"))
        import benchmarks.bench_a6_adaptive as bench
    monkeypatch.setattr(bench, "pareto_points", lambda: points)


BASE = {"p/ps": {"static": {"throughput": 0.20, "p99": 40.0}}}


def test_missing_baseline_section_skips(capsys):
    module = load_gate()
    assert module.pareto_regressions({}, 0.2) == []
    assert "skipping" in capsys.readouterr().out


def test_unchanged_point_passes(monkeypatch):
    module = load_gate()
    patch_fresh(monkeypatch, module, BASE)
    assert module.pareto_regressions(summary_with(BASE), 0.2) == []


def test_trade_along_the_front_passes(monkeypatch):
    # Throughput down 30% but p99 improved: a trade, not a regression.
    module = load_gate()
    patch_fresh(
        monkeypatch, module,
        {"p/ps": {"static": {"throughput": 0.14, "p99": 20.0}}},
    )
    assert module.pareto_regressions(summary_with(BASE), 0.2) == []


def test_dominated_point_fails(monkeypatch):
    # p99 up 50% with throughput no better: strictly dominated.
    module = load_gate()
    patch_fresh(
        monkeypatch, module,
        {"p/ps": {"static": {"throughput": 0.20, "p99": 60.0}}},
    )
    assert module.pareto_regressions(summary_with(BASE), 0.2) == ["p/ps:static"]


def test_throughput_collapse_fails(monkeypatch):
    module = load_gate()
    patch_fresh(
        monkeypatch, module,
        {"p/ps": {"static": {"throughput": 0.10, "p99": 40.0}}},
    )
    assert module.pareto_regressions(summary_with(BASE), 0.2) == ["p/ps:static"]


def test_missing_fresh_point_fails(monkeypatch):
    module = load_gate()
    patch_fresh(monkeypatch, module, {})
    assert module.pareto_regressions(summary_with(BASE), 0.2) == ["p/ps:static"]


# -- within-run: adaptive must not be dominated by static ---------------


def front(static, adaptive):
    return {
        "p/ps": {
            "static": {"throughput": static[0], "p99": static[1]},
            "adaptive": {"throughput": adaptive[0], "p99": adaptive[1]},
        }
    }


def test_adaptive_beating_static_passes():
    module = load_gate()
    assert module.adaptive_dominated(front((0.23, 49.0), (0.24, 25.0))) == []


def test_adaptive_trading_along_the_front_passes():
    # Worse p99 but more throughput: a different point of the front.
    module = load_gate()
    assert module.adaptive_dominated(front((0.23, 20.0), (0.24, 25.0))) == []


def test_adaptive_equal_to_static_is_not_strictly_dominated():
    module = load_gate()
    assert module.adaptive_dominated(front((0.23, 30.0), (0.23, 30.0))) == []


def test_adaptive_dominated_by_static_fails():
    module = load_gate()
    assert module.adaptive_dominated(front((0.23, 30.0), (0.23, 31.0))) == [
        "p/ps:adaptive"
    ]
    assert module.adaptive_dominated(front((0.24, 30.0), (0.23, 30.0))) == [
        "p/ps:adaptive"
    ]


def test_protocol_without_both_configs_is_skipped():
    module = load_gate()
    assert module.adaptive_dominated(BASE) == []


def test_within_run_gate_needs_no_baseline(capsys):
    # A baseline without an adaptive section skips the baseline gate,
    # not the within-run one.
    module = load_gate()
    dominated = front((0.24, 30.0), (0.23, 40.0))
    assert module.pareto_regressions({}, 0.2, dominated) == []
    assert module.adaptive_dominated(dominated) == ["p/ps:adaptive"]
    assert "DOMINATED" in capsys.readouterr().out
