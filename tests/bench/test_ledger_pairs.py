"""The verdict of ``scripts/ledger_pairs.py`` on canned pairs."""

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_pairs():
    spec = importlib.util.spec_from_file_location(
        "ledger_pairs", REPO_ROOT / "scripts" / "ledger_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.05, 0.95, 1.10, 0.90, 1.02, 0.98, 1.04, 0.96, 1.01]


def test_a_clear_drop_is_met():
    pairs = load_pairs()
    change = [value * 0.6 for value in PARENT]
    rule = pairs.verdict(PARENT, change, "lower", [(1.0, 0.6)])
    assert rule["wins"] == 10 and rule["held_out_wins"] == 1
    assert rule["gap"] > rule["parent_spread"]
    assert rule["outcome"] == "met"


def test_two_losses_in_ten_are_not_met():
    pairs = load_pairs()
    change = [value * 0.6 for value in PARENT[:8]] + [2.0, 2.0]
    assert pairs.verdict(PARENT, change, "lower")["outcome"] == "not met"
    one_loss = [value * 0.6 for value in PARENT[:9]] + [2.0]
    assert pairs.verdict(PARENT, one_loss, "lower")["outcome"] == "met"


def test_ties_count_for_neither_side():
    pairs = load_pairs()
    change = [value * 0.6 for value in PARENT[:8]] + PARENT[8:]
    rule = pairs.verdict(PARENT, change, "lower")
    assert rule["wins"] == 8 and rule["outcome"] == "not met"


def test_a_gap_inside_the_parent_spread_is_not_met():
    pairs = load_pairs()
    change = [value - 0.01 for value in PARENT]
    rule = pairs.verdict(PARENT, change, "lower")
    assert rule["wins"] == 10 and rule["gap"] < rule["parent_spread"]
    assert rule["outcome"] == "not met"


def test_a_lost_held_out_seed_is_not_met():
    pairs = load_pairs()
    change = [value * 0.6 for value in PARENT]
    assert pairs.verdict(PARENT, change, "lower", [(1.0, 1.2)])["outcome"] == "not met"


def test_higher_is_better_and_fewer_than_ten_pairs():
    pairs = load_pairs()
    change = [value * 1.5 for value in PARENT]
    assert pairs.verdict(PARENT, change, "higher")["outcome"] == "met"
    assert pairs.verdict(PARENT, change, "lower")["wins"] == 0
    assert pairs.verdict(PARENT[:9], change[:9], "higher")["outcome"] == "too few pairs"


def test_simulated_figures_must_match_and_wall_figures_may_move():
    pairs = load_pairs()
    run = {
        "correct": True, "attempted": 80, "failed": 0,
        "metrics": {"setup_s": 1.0, "sim_p99_response": 12.0, "served_share": 1.0},
    }
    faster = {**run, "metrics": {**run["metrics"], "setup_s": 0.6}}
    assert pairs.mismatches(run, faster) == []
    moved = {**faster, "failed": 1, "metrics": {**faster["metrics"], "sim_p99_response": 13.0}}
    assert pairs.mismatches(run, moved) == ["failed", "sim_p99_response"]


def test_the_report_prints_each_pair_ratio_and_their_quartiles():
    pairs = load_pairs()
    parent = [1.0, 2.0, 4.0, 5.0]
    change = [0.5, 1.5, 2.0, 4.0]
    assert pairs.ratios(parent, change) == [0.5, 0.75, 0.5, 0.8]
    assert pairs.ratios([0.0, 2.0], [1.0, 1.0]) == [0.5]  # a zero parent has no ratio
    metric = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    report = pairs.metric_report(metric, parent, change, [(1.0, 0.6)])
    assert "change/parent per pair: 0.500 0.750 0.500 0.800" in report
    assert "median 0.625 [0.500, 0.762]" in report
    assert "change better in 4/4 pairs and 1/1 held out" in report
    assert report.endswith("claim too few pairs")
