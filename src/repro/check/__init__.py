"""Systematic schedule & crash-point exploration checker.

The ``repro.check`` layer takes control of the simulation kernel's
event scheduling (see :meth:`repro.sim.kernel.Kernel._run_controlled`)
and explores the interleaving space of small federated scenarios:
bounded-exhaustive DFS with commutativity-based partial-order
reduction, PCT-style randomized priority schedules, and crash
enumeration at durable log-force boundaries.  Every explored execution
is audited by the shared invariant battery
(:func:`repro.core.invariants.check_invariants`); violations are
greedily shrunk and written as replayable ``.repro.json`` traces.

See ``docs/checking.md`` for a walkthrough, and
``python -m repro check --help`` for the CLI.
"""

from repro.check.engine import (
    CheckReport,
    ExecutionResult,
    enumerate_crash_points,
    enumerate_decision_boundaries,
    explore,
    explore_coordinator_crash_points,
    explore_crash_points,
    replay_execution,
    run_execution,
    run_pct,
)
from repro.check.scenarios import CHECK_PROTOCOLS, MUTANTS, CheckSpec, build_scenario
from repro.check.scheduler import (
    DfsStrategy,
    PctStrategy,
    ReplayStrategy,
    Strategy,
)
from repro.check.shrink import shrink_counterexample, shrink_schedule
from repro.check.trace import ReproTrace, write_counterexample
from repro.faults.injector import CrashPoint

__all__ = [
    "CHECK_PROTOCOLS",
    "MUTANTS",
    "CheckReport",
    "CheckSpec",
    "CrashPoint",
    "DfsStrategy",
    "ExecutionResult",
    "PctStrategy",
    "ReplayStrategy",
    "ReproTrace",
    "Strategy",
    "build_scenario",
    "enumerate_crash_points",
    "enumerate_decision_boundaries",
    "explore",
    "explore_coordinator_crash_points",
    "explore_crash_points",
    "replay_execution",
    "run_execution",
    "run_pct",
    "shrink_counterexample",
    "shrink_schedule",
    "write_counterexample",
]
