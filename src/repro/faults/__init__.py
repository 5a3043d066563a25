"""Fault injection: the sources of *erroneous* local aborts and crashes."""

from repro.faults.chaos import (
    CHAOS_PROTOCOLS,
    ChaosResult,
    ChaosSpec,
    chaos_matrix,
    run_chaos,
)
from repro.faults.injector import CrashPoint, FaultInjector

__all__ = [
    "CHAOS_PROTOCOLS",
    "ChaosResult",
    "ChaosSpec",
    "CrashPoint",
    "FaultInjector",
    "chaos_matrix",
    "run_chaos",
]
