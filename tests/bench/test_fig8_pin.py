"""Tier-1 guard: EXP-F8 (Figure 8) reproduces its stored result exactly.

``benchmarks/bench_fig8_two_level.run_experiment()`` runs twelve
concurrent increment transactions on two objects that share one page,
once flat and once multi-level, and formats makespan, L0 lock waits,
wait time and hold time.  Every column is simulated time or a count,
so the table is deterministic; this test compares it with
``benchmarks/results/fig8_two_level.txt`` byte for byte.  A change to
either executor that moves one lock wait or one time unit fails here.
"""

from __future__ import annotations

import pathlib

from benchmarks.bench_fig8_two_level import run_experiment

RESULT = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "fig8_two_level.txt"
)


def test_figure8_matches_the_stored_result():
    assert run_experiment() + "\n" == RESULT.read_text()
