"""``scripts/work_count.py``: opcode and call counts per ledger cell."""

import importlib.util
import pathlib

import pytest

from repro.localdb.engine import LocalDatabase

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
CELL = ("commit_matrix", "2pc", "nominal", 1)


@pytest.fixture(scope="module")
def work_count():
    spec = importlib.util.spec_from_file_location(
        "work_count", REPO_ROOT / "scripts" / "work_count.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_count_the_same(work_count):
    committed, counts = work_count.count_cell(*CELL)
    assert committed > 0
    assert {"sim", "net", "storage", "localdb", "integration"} <= set(counts)
    assert work_count.count_cell(*CELL) == (committed, counts)


def test_an_inserted_no_op_loop_moves_the_count(work_count, monkeypatch):
    committed, counts = work_count.count_cell(*CELL)
    record_op = LocalDatabase._record_op

    def padded(self, *args):
        for _ in range(3):
            pass
        return record_op(self, *args)

    monkeypatch.setattr(LocalDatabase, "_record_op", padded)
    padded_committed, padded_counts = work_count.count_cell(*CELL)
    assert padded_committed == committed
    # The loop runs outside repro; the engine's own work is unchanged.
    assert padded_counts["localdb"] == counts["localdb"]
    extra_ops = padded_counts["other"][0] - counts["other"][0]
    extra_calls = padded_counts["other"][1] - counts["other"][1]
    assert extra_calls > 0 and extra_ops > 10 * extra_calls


def test_render_totals_per_commit(work_count):
    text = work_count.render({"sim": [300, 30], "other": [100, 10]}, 10, "/commit")
    lines = text.splitlines()
    assert lines[1].split() == ["sim", "30.0", "3.0", "75.0%"]
    assert lines[-2].split() == ["total", "40.0", "4.0"]
    assert lines[-1] == "opcodes 400 calls 40"
