"""The verdict of ``scripts/ledger_pairs.py`` on canned pairs."""

import importlib.util
import json
import pathlib

import pytest

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


def _fake_ledger(calls, moved_workload=None):
    """A stand-in for ``run_ledger``: notes each call, answers canned runs.

    The change reads 10% lower ``peak_rss_mb``; on ``moved_workload`` its
    ``sim_p50_response`` moves too.
    """

    def run_ledger(tree, workload, seed, seconds):
        side = tree.name
        calls.append((workload, seed, side))
        metrics = {
            "setup_s": 1.0, "wall_us_per_commit": 500.0 + seed,
            "peak_rss_mb": 30.0 + seed / 100 if side == "parent" else 27.0,
            "sim_p50_response": 3.0, "served_share": 1.0,
        }
        if side == "change" and workload == moved_workload:
            metrics["sim_p50_response"] = 3.5
        return {"correct": True, "attempted": 80, "failed": 0, "metrics": metrics}

    return run_ledger


def _main(pairs, tmp_path, monkeypatch, calls, moved_workload=None):
    monkeypatch.setattr(pairs, "run_ledger", _fake_ledger(calls, moved_workload))
    return pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--workload", "commit_matrix", "contended_mix",
        "--seeds", *map(str, range(2, 12)), "--held-out", "97",
        "--json", str(tmp_path / "pairs.json"),
    ])


def test_several_workloads_give_one_verdict_block_each(tmp_path, monkeypatch, capsys):
    pairs = load_pairs()
    calls = []
    assert _main(pairs, tmp_path, monkeypatch, calls) == 0
    seeds = list(range(2, 12)) + [97]
    for workload in ("commit_matrix", "contended_mix"):
        runs = [(seed, side) for name, seed, side in calls if name == workload]
        # Alternation restarts with each workload: pair 0 runs the parent first.
        expected = []
        for index, seed in enumerate(seeds):
            order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
            expected += [(seed, side) for side in order]
        assert runs == expected, workload
    out = capsys.readouterr().out
    for workload in ("commit_matrix", "contended_mix"):
        assert out.count(f"\n{workload}, --seconds 24: parent -> change\n") == 1
    assert out.count("peak_rss_mb (MiB, lower is better)") == 2
    assert out.count("change better in 10/10 pairs and 1/1 held out") == 2
    assert out.count("identical in every pair") == 2
    written = json.loads((tmp_path / "pairs.json").read_text())
    assert sorted(written) == ["commit_matrix", "contended_mix"]
    assert [pair["seed"] for pair in written["contended_mix"]] == seeds


def test_a_moved_simulation_in_any_workload_exits_1(tmp_path, monkeypatch, capsys):
    pairs = load_pairs()
    assert _main(pairs, tmp_path, monkeypatch, [], moved_workload="contended_mix") == 1
    out = capsys.readouterr().out
    commit_block, contended_block = out.split("\ncontended_mix, --seconds")
    assert "identical in every pair" in commit_block
    assert "SIMULATION MOVED" in contended_block and "sim_p50_response" in contended_block


def test_work_count_prints_both_trees_under_each_verdict(tmp_path, monkeypatch, capsys):
    pairs = load_pairs()
    counted = []

    def count_work(tree, workload, protocol):
        counted.append((tree.name, workload, protocol))
        opcodes = 1000.0 if tree.name == "parent" else 900.0
        return {"cell": f"{protocol}/nominal", "opcodes": opcodes, "calls": 40.0}

    monkeypatch.setattr(pairs, "count_work", count_work)
    monkeypatch.setattr(pairs, "run_ledger", _fake_ledger([]))
    assert pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--workload", "commit_matrix", "contended_mix", "--seeds", "2",
        "--work-count", "2pc",
    ]) == 0
    assert counted == [
        (side, workload, "2pc")
        for workload in ("commit_matrix", "contended_mix")
        for side in ("parent", "change")
    ]
    out = capsys.readouterr().out
    line = (
        "work per commit, 2pc/nominal smoke seed 1: opcodes 1000.0 -> 900.0 (-10.00%)"
        "  calls 40.0 -> 40.0 (+0.00%)"
    )
    commit_block, contended_block = out.split("\ncontended_mix, --seconds")
    assert commit_block.rstrip().endswith(line) and contended_block.rstrip().endswith(line)


def test_a_tree_that_cannot_count_fails_before_any_ledger_run(tmp_path, monkeypatch):
    pairs = load_pairs()
    calls = []
    monkeypatch.setattr(pairs, "run_ledger", _fake_ledger(calls))
    (tmp_path / "parent").mkdir()
    with pytest.raises(RuntimeError, match="work count of commit_matrix failed"):
        pairs.main([
            "--parent", str(tmp_path / "parent"), "--change", str(REPO_ROOT),
            "--workload", "commit_matrix", "--seeds", "2", "--work-count",
        ])
    assert calls == []


def test_work_count_is_count_cell_run_in_the_tree():
    pairs = load_pairs()
    spec = importlib.util.spec_from_file_location(
        "work_count", REPO_ROOT / "scripts" / "work_count.py"
    )
    work_count = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(work_count)
    committed, counts = work_count.count_cell("commit_matrix", "2pc", "nominal", 1)
    found = pairs.count_work(REPO_ROOT, "commit_matrix", "2pc")
    assert found == {
        "cell": "2pc/nominal",
        "opcodes": sum(ops for ops, _ in counts.values()) / committed,
        "calls": sum(calls for _, calls in counts.values()) / committed,
    }
