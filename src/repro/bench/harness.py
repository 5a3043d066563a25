"""Closed-loop experiment driver.

``closed_loop`` runs N worker processes, each submitting global
transactions back to back until the simulated horizon, then lets
in-flight work drain and collects throughput, response times, abort
counts, redo/undo executions, lock hold/wait times, message and
log-force counts -- the quantities the paper's §4.3 comparison argues
about qualitatively.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.core.gtm import GTMConfig
from repro.integration.federation import Federation, FederationConfig
from repro.mlt.actions import Operation
from repro.core.protocols import preparable_protocols

#: A workload function: rng -> (operations, intends_abort)
TxnFactory = Callable[[random.Random], tuple[list[Operation], bool]]


@dataclass
class RunStats:
    """Aggregate results of one closed-loop run."""

    label: str
    horizon: float
    committed: int = 0
    aborted: int = 0
    response_times: list[float] = field(default_factory=list)
    redo_executions: int = 0
    undo_executions: int = 0
    l0_retries: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Committed global transactions per simulated time unit."""
        return self.committed / self.horizon if self.horizon else 0.0

    @property
    def mean_response_time(self) -> float:
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)

    @property
    def p95_response_time(self) -> float:
        if not self.response_times:
            return 0.0
        ordered = sorted(self.response_times)
        return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]

    @property
    def abort_ratio(self) -> float:
        total = self.committed + self.aborted
        return self.aborted / total if total else 0.0


def closed_loop(
    federation: Federation,
    make_txn: TxnFactory,
    n_workers: int,
    horizon: float,
    think_time: float = 0.0,
    label: str = "run",
) -> RunStats:
    """Run a closed multiprogramming loop and collect statistics."""
    stats = RunStats(label=label, horizon=horizon)
    kernel = federation.kernel

    def worker(index: int) -> Generator[Any, Any, None]:
        rng = kernel.rng.stream(f"worker-{index}")
        while kernel.now < horizon:
            operations, intends_abort = make_txn(rng)
            outcome = yield federation.gtm.submit(
                operations, intends_abort=intends_abort
            )
            if outcome.committed:
                stats.committed += 1
                stats.response_times.append(outcome.response_time)
            else:
                stats.aborted += 1
            stats.redo_executions += outcome.redo_executions
            stats.undo_executions += outcome.undo_executions
            stats.l0_retries += outcome.l0_retries
            if think_time:
                yield think_time

    for i in range(n_workers):
        kernel.spawn(worker(i), name=f"worker-{i}")
    kernel.run()
    stats.metrics = federation.metrics()
    return stats


def protocol_federation(
    protocol: str,
    site_specs,
    granularity: str = "per_action",
    seed: int = 0,
    latency: float = 1.0,
    l1_table=None,
    log_placement: str = "indb",
    msg_timeout: float = 50.0,
    batch_window: float = 0.0,
    batch_policy: str = "static",
    batch_max_msgs: int = 0,
    pipeline_window: float = 0.0,
    pipeline_policy: str = "static",
    pipeline_max_group: int = 0,
    piggyback_decisions: bool = False,
) -> Federation:
    """Build a federation configured for one protocol under test.

    2PC/3PC automatically get preparable (modified) local interfaces --
    they cannot run otherwise, which is the paper's point.
    """
    needs_prepare = protocol in preparable_protocols()
    specs = []
    for spec in site_specs:
        spec.preparable = needs_prepare
        specs.append(spec)
    config = FederationConfig(
        seed=seed,
        latency=latency,
        batch_window=batch_window,
        batch_policy=batch_policy,
        batch_max_msgs=batch_max_msgs,
        log_placement=log_placement,
        gtm=GTMConfig(
            protocol=protocol,
            granularity=granularity,
            l1_table=l1_table,
            msg_timeout=msg_timeout,
            pipeline_window=pipeline_window,
            pipeline_policy=pipeline_policy,
            pipeline_max_group=pipeline_max_group,
            piggyback_decisions=piggyback_decisions,
        ),
    )
    return Federation(specs, config)
