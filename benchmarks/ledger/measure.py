"""Rounds, the determinism gate and the end-to-end metrics.

A *round* runs every cell of a workload once, in the workload's fixed
order, on freshly generated inputs and freshly built federations.  The
timed section of a cell is the driver call only, with the collector
off; construction is timed separately as set-up; the last round's
cells are audited as they finish, untimed.  Simulated metrics and
counts must be identical in every round.

Wall metrics are sums over cells of each cell's *lower quartile* over
the rounds.  On the shared 2-vCPU machine this was built on,
interference only ever adds time, in bursts that hit different cells
in different rounds and in episodes that lift whole rounds by 20-90%;
over 60 recorded rounds the run-to-run quartile spread of the median
of round totals was 3.5-5.6%, of the per-cell lower quartile 1.6-2.7%
(README, "Noise").  It is not a best-of: the minimum keeps falling as
rounds are added, so a faster change, which fits more rounds into the
same seconds, would look faster still.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Any, Callable, Optional

from benchmarks.ledger import inputs as gen
from benchmarks.ledger.workloads import MAX_COUNTERS, Cell

#: Never fewer: the gate needs something to compare and the quartiles
#: something to rank.
MIN_ROUNDS = 3


class LedgerError(RuntimeError):
    """A determinism, validity or audit failure: the run is void."""


def plain_timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Time ``fn`` with the cyclic collector off."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        value = fn()
        return value, time.perf_counter() - started
    finally:
        gc.enable()


def run_round(
    workload, seed: int, size: str, timed=plain_timed, spans=False, only=None,
    inspect: Optional[Callable[[Cell, dict], None]] = None,
):
    """One round: (cells, generated inputs, input-generation seconds).

    ``inspect(cell, inputs)`` sees each cell while its federation is
    still attached; the federation is dropped right after, so only one
    is alive at a time and ``peak_rss_mb`` is the system's footprint,
    not the harness's.
    """
    started = time.perf_counter()
    inputs = workload.generate(seed, size)
    generation_s = time.perf_counter() - started
    cells = []
    for protocol, phase in workload.cells():
        if only is None or phase == only:
            cell = workload.run_cell(protocol, phase, inputs, timed, spans)
            if inspect is not None:
                inspect(cell, inputs)
            cell.federation = None
            cells.append(cell)
    return cells, inputs, generation_s


def quantile(ordered: list[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles, min and count of one wall metric's round totals."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "rounds": len(values),
    }


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[0]


def total(cells: list[Cell], counter: str) -> float:
    merge = max if counter in MAX_COUNTERS else sum
    return merge(cell.counters[counter] for cell in cells)


def measure(workload, seed: int, size: str, seconds: float) -> dict[str, Any]:
    """Run rounds for ``seconds``, gate them, audit, and summarise."""
    began = time.perf_counter()
    rounds: list[dict[str, Any]] = []
    reference = None
    problems: list[str] = []

    def audit(cell: Cell, inputs: dict) -> None:
        problems.extend(
            f"{cell.key}: {problem}" for problem in workload.audit(cell, inputs)
        )

    last = False
    while not last:
        # The round predicted to cross the time budget is the last one;
        # its cells are audited (untimed) as they finish.
        done = len(rounds)
        elapsed = time.perf_counter() - began
        last = done + 1 >= MIN_ROUNDS and elapsed * (done + 1) >= seconds * max(done, 1)
        cells, inputs, generation_s = run_round(
            workload, seed, size, inspect=audit if last else None
        )
        simulated = {cell.key: cell.simulated() for cell in cells}
        signature = (gen.digest(inputs), simulated)
        if reference is None:
            reference = signature
        elif signature != reference:
            raise LedgerError(
                f"{workload.name}: round {len(rounds) + 1} is not bit-identical "
                f"to round 1 in {_first_difference(reference, signature)}"
            )
        rounds.append(
            {
                "generation_s": generation_s,
                "cell_setup_s": {cell.key: cell.setup_s for cell in cells},
                "cell_wall_s": {cell.key: cell.wall_s for cell in cells},
            }
        )
    measured_s = time.perf_counter() - began

    if problems:
        raise LedgerError(f"{workload.name}: audit failed\n  " + "\n  ".join(problems))

    committed = sum(cell.committed for cell in cells)
    arrivals = sum(cell.arrivals for cell in cells)
    failed = sum(cell.failed for cell in cells)
    latency_cells = [c for c in cells if c.phase == workload.latency_phase]
    goodput_cells = [c for c in cells if c.phase == workload.goodput_phase]
    latencies = sorted(lat for cell in latency_cells for lat in cell.latencies)
    # An intended abort is served as asked; every other arrival that did
    # not commit within the limit -- failed, shed, late -- is a miss.
    latency_arrivals = sum(c.arrivals - c.intended_aborts for c in latency_cells)
    within = sum(1 for lat in latencies if lat <= workload.slo_limit)

    def per_cell(field: str) -> dict[str, float]:
        return {
            key: lower_quartile([r[field][key] for r in rounds])
            for key in rounds[0][field]
        }

    cell_wall_s, cell_setup_s = per_cell("cell_wall_s"), per_cell("cell_setup_s")
    end_to_end = {
        "setup_s": lower_quartile([r["generation_s"] for r in rounds])
        + sum(cell_setup_s.values()),
        "wall_us_per_commit": sum(cell_wall_s.values()) / committed * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_p50_response": quantile(latencies, 0.50),
        "sim_p99_response": quantile(latencies, 0.99),
        "sim_slo_met_share": within / latency_arrivals,
        "sim_goodput": statistics.fmean(c.goodput for c in goodput_cells),
        "sim_max_commit_gap": max(c.max_commit_gap for c in latency_cells),
        "served_share": 1.0 - failed / arrivals,
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "input_sha256": reference[0],
        "rounds": len(rounds),
        "measured_s": measured_s,
        "attempted": arrivals,
        "committed": committed,
        "failed": failed,
        "latency_samples": len(latencies),
        "slo_limit": workload.slo_limit,
        "end_to_end": end_to_end,
        # Round totals, for reading the noise of this run (``compare``
        # calls a wall verdict unresolved when they scatter too widely).
        "wall_spread": {
            "setup_s": spread(
                [r["generation_s"] + sum(r["cell_setup_s"].values()) for r in rounds]
            ),
            "wall_us_per_commit": spread(
                [sum(r["cell_wall_s"].values()) / committed * 1e6 for r in rounds]
            ),
        },
        "cell_wall_s": cell_wall_s,
        "cells": cells,
    }


def _first_difference(a: Any, b: Any, path: str = "") -> str:
    """Where two nested signatures first disagree (for the error text)."""
    if type(a) is not type(b):
        return path or "type"
    if isinstance(a, dict):
        for key in a:
            if key not in b or a[key] != b[key]:
                return _first_difference(a[key], b.get(key), f"{path}/{key}")
    if isinstance(a, (list, tuple)) and len(a) == len(b):
        for index, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_difference(x, y, f"{path}[{index}]")
    return f"{path}: {a!r} != {b!r}"[:300]
