"""Workload generators for the experiments."""

from repro.workloads.arrivals import (
    ARRIVAL_PATTERNS,
    ArrivalPattern,
    BurstyPattern,
    DiurnalPattern,
    FlashCrowdPattern,
    make_pattern,
)
from repro.workloads.banking import (
    balance_audit,
    build_banking_federation,
    transfer,
)
from repro.workloads.counters import build_counter_site, counter_transactions
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec
from repro.workloads.open_loop import OpenLoopDriver, OpenLoopResult, OpenLoopSpec

__all__ = [
    "ARRIVAL_PATTERNS",
    "ArrivalPattern",
    "BurstyPattern",
    "DiurnalPattern",
    "FlashCrowdPattern",
    "OpenLoopDriver",
    "OpenLoopResult",
    "OpenLoopSpec",
    "WorkloadGenerator",
    "WorkloadSpec",
    "balance_audit",
    "build_banking_federation",
    "build_counter_site",
    "counter_transactions",
    "make_pattern",
    "transfer",
]
