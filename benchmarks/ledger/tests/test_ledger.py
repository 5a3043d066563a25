"""Self-tests of the commit ledger.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger/tests``;
they sit outside tier-1's ``testpaths`` by design (a smoke run of all
four workloads with the traced passes takes about a minute).
"""

from __future__ import annotations

import copy
import json
import math
import re
import subprocess
import sys

import pytest

from benchmarks.ledger import compare, spec
from benchmarks.ledger.run import ROOT, result_line, run_workload
from benchmarks.ledger.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke() -> dict[str, dict]:
    """One traced smoke run of every workload (in this process)."""
    return {
        name: run_workload(name, seed=7, seconds=0.0, size="smoke", trace=True)
        for name in WORKLOADS
    }


def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_contract_limits():
    contract = spec.benchmark_json()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += [w["name"] for w in contract["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in contract["end_to_end"]
    )
    assert len(json.dumps(contract)) < 64 * 1024


def test_smoke_emits_exactly_the_declared_metrics(smoke):
    contract = spec.benchmark_json()
    assert list(smoke) == [w["name"] for w in contract["workloads"]]
    for record in smoke.values():
        assert set(record["end_to_end"]) == {m["name"] for m in contract["end_to_end"]}
        assert set(record["per_layer"]) == {m["name"] for m in contract["per_layer"]}
        values = list(record["end_to_end"].values()) + list(record["per_layer"].values())
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
        assert all(v != 0 for v in record["end_to_end"].values())
        for trace in (False, True):
            line = json.loads(result_line(record, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["attempted"] >= 1


def test_layer_self_times_account_for_the_profiled_wall(smoke):
    for record in smoke.values():
        profile = record["profile"]
        # The fold loses nothing: layers + remainder = the profiler's total ...
        assert sum(profile["self_s"].values()) == pytest.approx(profile["profiled_s"])
        # ... which is the wall around the profiled calls less the
        # profiler's own bookkeeping (5-6% on this machine).
        assert 0.9 * profile["wall_s"] <= profile["profiled_s"] <= profile["wall_s"]
        attributed = sum(
            record["per_layer"][f"{layer}.self_us_per_commit"] for layer in spec.LAYERS
        ) * profile["committed"] / 1e6
        share = record["per_layer"]["bench.unattributed_share"]
        assert attributed + share * profile["profiled_s"] == pytest.approx(
            profile["profiled_s"]
        )


def test_simulated_metrics_do_not_depend_on_the_payload_seed(smoke):
    again = run_workload("contended_mix", seed=8, seconds=0.0, size="smoke", trace=False)
    first = smoke["contended_mix"]
    assert again["input_sha256"] != first["input_sha256"]
    for name, value in again["end_to_end"].items():
        if name.startswith("sim_") or name == "served_share":
            assert value == first["end_to_end"][name]


def test_compare_passes_a_file_against_itself(smoke):
    rows = compare.compare(smoke["commit_matrix"], smoke["commit_matrix"])
    assert rows and all(row["verdict"] in ("same", "unresolved") for row in rows)


def test_compare_flags_a_wall_regression_and_a_count_change(smoke):
    base = copy.deepcopy(smoke["commit_matrix"])
    # Tight rounds, so the verdict is about the medians, not the spread.
    for s in base["wall_spread"].values():
        s["q1"] = s["q3"] = s["median"]
    slower = copy.deepcopy(base)
    bound = next(m.bound for m in spec.END_TO_END if m.name == "wall_us_per_commit")
    slower["end_to_end"]["wall_us_per_commit"] *= 1 + bound + 0.05
    slower["per_layer"]["net.msgs_per_commit"] += 1
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(base, slower)}
    assert verdicts["wall_us_per_commit"] == "worse"
    assert verdicts["net.msgs_per_commit"] == "changed"
    assert verdicts["sim_p50_response"] == "same"
    noisy = copy.deepcopy(slower)
    noisy["wall_spread"]["wall_us_per_commit"]["q3"] *= 1 + 2 * bound
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(base, noisy)}
    assert verdicts["wall_us_per_commit"] == "unresolved"


def test_command_prints_one_result_line_and_fails_without_the_system(tmp_path):
    command = [sys.executable, str(ROOT / "benchmarks/ledger/run.py"),
               "--workload", "crash_recovery", "--seed", "3", "--smoke"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert {m.name for m in spec.END_TO_END} == set(line["metrics"])

    # A directory holding only BENCHMARK.json and the benchmark's files
    # has no system to measure: non-zero exit, no result line.
    bare = tmp_path / "bare"
    target = bare / "benchmarks" / "ledger"
    target.mkdir(parents=True)
    for path in (ROOT / "benchmarks" / "ledger").glob("*.py"):
        (target / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "commit_matrix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
