"""Tier-1 guard: EXP-T7 (heterogeneous sites) reproduces its stored result.

``benchmarks/bench_t7_heterogeneous.run_experiment()`` runs a
federation whose second site validates optimistically, under
commit-after, commit-before per site and commit-before with
multi-level transactions, and tabulates commits, aborts, validation
aborts, redo transactions and L0 retries.  Every column is a count of a
deterministic simulation, so this test compares the table with
``benchmarks/results/t7_heterogeneous.txt`` byte for byte.  A change to
the optimistic scheduler that moves one validation abort fails here.
"""

from __future__ import annotations

import pathlib

from benchmarks.bench_t7_heterogeneous import run_experiment

RESULT = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "t7_heterogeneous.txt"
)


def test_heterogeneous_table_matches_the_stored_result():
    assert run_experiment() + "\n" == RESULT.read_text()
