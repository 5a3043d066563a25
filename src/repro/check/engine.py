"""Execution engine of the systematic checker.

Stateless model checking: the simulation is a deterministic function of
``(CheckSpec, schedule choices, crash points)``, so the explorer simply
re-executes the whole scenario once per schedule instead of snapshotting
generator state.  One :func:`run_execution` builds a fresh federation
and hands it to :func:`execute_and_audit`, which installs a scheduling
strategy on the kernel, schedules
:class:`~repro.faults.injector.CrashPoint` crashes (data sites,
coordinator shards and acceptors alike, by node name), runs to the
horizon and evaluates the full invariant battery of
:func:`repro.core.invariants.check_invariants`.  The chaos harness
(:func:`repro.faults.chaos.run_chaos`) runs and audits through the same
step.

:func:`explore` drives bounded-exhaustive DFS over schedule choices
(with the commutativity pruning the strategies implement),
:func:`explore_crash_points` enumerates one execution per durable
log-force boundary discovered from a traced baseline run,
:func:`explore_coordinator_crash_points` kills each coordinator shard
in turn (and acceptors) at every such boundary through the same path, and
:func:`run_pct` gives the seeded randomized schedule used by the sweep
tests and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence

from repro.check.scenarios import CheckSpec, build_scenario
from repro.check.scheduler import DfsStrategy, PctStrategy, ReplayStrategy, Strategy
from repro.core.invariants import InvariantViolation, check_invariants
from repro.faults.injector import CrashPoint

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.integration.federation import Federation
    from repro.sim.process import Process


def _verdict(invariant: str) -> property:
    """A named verdict: the battery found nothing of ``invariant``."""
    return property(lambda self: all(f.invariant != invariant for f in self.findings))


@dataclass
class ExecutionResult:
    """Audit of one controlled execution, and its named verdicts."""

    choices: list[int] = field(default_factory=list)
    arities: list[int] = field(default_factory=list)
    pruned: int = 0
    steps: int = 0
    end_time: float = 0.0
    committed: int = 0
    aborted: int = 0
    #: What :func:`~repro.core.invariants.check_invariants` found.
    findings: list[InvariantViolation] = field(default_factory=list)
    crashes: list[CrashPoint] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        """The findings as text: what the CLI prints and a trace stores."""
        return [str(finding) for finding in self.findings]

    atomicity_ok = _verdict("atomicity")
    serializable = _verdict("serializability")
    converged = _verdict("convergence")
    conserved = _verdict("conservation")
    #: Partitioned runs only: serving replicas hold identical images.
    replicas_converged = _verdict("replica_convergence")

    @property
    def stuck(self) -> list[str]:
        return [f.detail for f in self.findings if f.invariant == "convergence"]

    @property
    def ok(self) -> bool:
        return not self.findings


def execute_and_audit(
    federation: Federation,
    horizon: float,
    processes: Sequence[Process] = (),
    conserved: Optional[dict[tuple[str, str], int]] = None,
    crashes: Sequence[CrashPoint] = (),
    strategy: Optional[Strategy] = None,
    result: Optional[ExecutionResult] = None,
) -> ExecutionResult:
    """Schedule ``crashes``, run to ``horizon`` under ``strategy``, audit.

    The run-and-audit step of both the checker and the chaos harness:
    ``processes`` must finish, the ``conserved`` cells keep their total.
    Fills ``result`` (a fresh :class:`ExecutionResult` if ``None``).
    """
    federation.kernel.scheduler = strategy
    for crash in crashes:
        crash.schedule(federation)
    if result is None:
        result = ExecutionResult()
    result.end_time = federation.run(until=horizon)
    result.crashes = list(crashes)
    if strategy is not None:
        result.choices = strategy.choices
        result.arities = [arity for _choice, arity in strategy.trail]
        result.pruned = strategy.pruned
        result.steps = strategy.steps
    result.committed = sum(gtm.committed for gtm in federation.coordinators)
    result.aborted = sum(gtm.aborted for gtm in federation.coordinators)
    result.findings = check_invariants(
        federation, processes=list(processes), conserved=conserved
    )
    return result


def run_execution(
    spec: CheckSpec,
    strategy: Optional[Strategy] = None,
    crashes: tuple[CrashPoint, ...] = (),
) -> ExecutionResult:
    """One execution of ``spec``'s scenario under ``strategy`` (``None`` =
    the default loop)."""
    scenario = build_scenario(spec)
    return execute_and_audit(
        scenario.federation, spec.horizon, processes=scenario.processes,
        conserved=scenario.conserved, crashes=crashes, strategy=strategy,
    )


@dataclass
class CheckReport:
    """Outcome of one exploration (schedule DFS or crash enumeration)."""

    spec: CheckSpec
    executions: int = 0
    choice_points: int = 0
    pruned: int = 0
    #: Whether the bounded schedule space was fully enumerated within
    #: the execution budget.
    exhausted: bool = False
    violation_count: int = 0
    counterexample: Optional[ExecutionResult] = None
    crash_points: int = 0

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def record(self, result: ExecutionResult) -> bool:
        """Count one execution; true when it violated an invariant."""
        self.executions += 1
        self.choice_points += len(result.choices)
        self.pruned += result.pruned
        if result.ok:
            return False
        self.violation_count += 1
        if self.counterexample is None:
            self.counterexample = result
        return True

    def summary(self) -> dict[str, Any]:
        return {
            "protocol": self.spec.protocol,
            "workload": self.spec.workload,
            "coordinators": self.spec.coordinators,
            "executions": self.executions,
            "choice_points": self.choice_points,
            "pruned": self.pruned,
            "exhausted": self.exhausted,
            "violations": self.violation_count,
            "crash_points": self.crash_points,
        }


def _next_prefix(trail: list[tuple[int, int]]) -> Optional[list[int]]:
    """DFS successor: rightmost choice point with an unexplored sibling."""
    for position in range(len(trail) - 1, -1, -1):
        choice, arity = trail[position]
        if choice + 1 < arity:
            return [c for c, _a in trail[:position]] + [choice + 1]
    return None


def explore(
    spec: CheckSpec,
    depth: int = 6,
    budget: int = 200,
    stop_on_violation: bool = True,
) -> CheckReport:
    """Bounded-exhaustive DFS over schedule choices.

    ``depth`` bounds how many choice points backtrack (later ones take
    the default branch), ``budget`` caps total executions.  The report
    says whether the bounded space was exhausted, and carries the first
    violating execution (the raw counterexample) if any.
    """
    report = CheckReport(spec=spec)
    prefix: Optional[list[int]] = []
    while prefix is not None and report.executions < budget:
        strategy = DfsStrategy(prefix, depth)
        if report.record(run_execution(spec, strategy)) and stop_on_violation:
            return report
        prefix = _next_prefix(strategy.bounded_trail())
    report.exhausted = prefix is None
    return report


def run_pct(
    spec: CheckSpec,
    seed: int,
    change_points: int = 3,
    crashes: tuple[CrashPoint, ...] = (),
) -> ExecutionResult:
    """One seeded PCT-style randomized schedule."""
    return run_execution(
        spec, PctStrategy(seed, change_points=change_points), crashes=crashes
    )


def replay_execution(
    spec: CheckSpec,
    schedule: list[int],
    crashes: tuple[CrashPoint, ...] = (),
) -> ExecutionResult:
    """Deterministically re-execute a recorded schedule."""
    return run_execution(spec, ReplayStrategy(schedule), crashes=crashes)


def _baseline_forces(spec: CheckSpec) -> tuple[Any, list]:
    """The traced baseline: one default-loop run, every log force kept."""
    federation = build_scenario(spec).federation
    for engine in federation.engines.values():
        engine.disk.trace_forces = True
    federation.run(until=spec.horizon)
    return federation, federation.kernel.trace.select(category="log_force")


def enumerate_crash_points(
    spec: CheckSpec, restart_after: float = 60.0
) -> list[CrashPoint]:
    """Durable-force boundaries of the baseline execution, data sites only.

    Every completed log force at a data site becomes one crash point
    immediately after the force -- the instants where the paper's
    recovery obligations actually change (a decision, prepare or commit
    record just became durable).
    """
    federation, forces = _baseline_forces(spec)
    boundaries = dict.fromkeys(
        (record.site, record.time)
        for record in forces
        if record.site in federation.engines
    )
    return [CrashPoint(site, at, restart_after) for site, at in boundaries]


def enumerate_decision_boundaries(spec: CheckSpec) -> list[float]:
    """Durable-force instants of the baseline execution, *all* sites.

    Like :func:`enumerate_crash_points` but including the coordinator
    side: data-site forces plus (for Paxos Commit) the acceptor group's
    consensus-record forces -- the instants where a decision becomes
    durable somewhere and a coordinator crash changes who can finish
    the transaction.
    """
    _federation, forces = _baseline_forces(spec)
    return sorted({record.time for record in forces})


def _explore_crash_plans(
    spec: CheckSpec,
    plans: list[tuple[CrashPoint, ...]],
    max_points: Optional[int],
    stop_on_violation: bool,
) -> CheckReport:
    """One default-loop execution per crash plan, invariants audited."""
    exhausted = max_points is None or len(plans) <= max_points
    plans = plans[:max_points]
    report = CheckReport(spec=spec, crash_points=len(plans), exhausted=exhausted)
    for crashes in plans:
        if report.record(run_execution(spec, crashes=crashes)) and stop_on_violation:
            break
    return report


def explore_coordinator_crash_points(
    spec: CheckSpec,
    acceptor_crashes: int = 0,
    restart_after: float = 0.0,
    max_points: Optional[int] = None,
    stop_on_violation: bool = True,
) -> CheckReport:
    """One execution per (shard, decision boundary), that shard killed there.

    The non-blocking exhibit: every coordinator shard in turn, at every
    durable-force instant of the baseline, is crashed (and, for Paxos
    Commit, the first ``acceptor_crashes`` acceptors at the same
    instant) -- each shard owns the transactions that hash to it, so
    only a sweep over all of them reaches every one.
    ``restart_after`` <= 0 keeps them down for good.  Under plain 2PC
    with one coordinator this leaves prepared participants blocked
    (convergence violations); under Paxos Commit with a live peer and
    F surviving acceptors every execution must stay clean.  Every kill
    is a :class:`CrashPoint`, so a counterexample replays.
    """
    federation, forces = _baseline_forces(spec)
    acceptors: list[str] = []
    if acceptor_crashes:
        if federation.acceptors is None:
            raise ValueError("acceptor_crashes requires protocol='paxos'")
        acceptors = federation.acceptors.names[:acceptor_crashes]
    boundaries = sorted({record.time for record in forces})
    plans = [
        tuple(
            CrashPoint(name, at, restart_after) for name in [gtm.name, *acceptors]
        )
        for gtm in federation.coordinators
        for at in boundaries
    ]
    return _explore_crash_plans(spec, plans, max_points, stop_on_violation)


def explore_crash_points(
    spec: CheckSpec,
    restart_after: float = 60.0,
    max_points: Optional[int] = None,
    stop_on_violation: bool = True,
) -> CheckReport:
    """One execution per enumerated crash point, invariants audited.

    Crash executions run on the default loop (no schedule control): the
    dimension being explored is *where the crash lands*, and the
    default schedule keeps each execution directly comparable to the
    traced baseline the boundaries came from.
    """
    plans = [(point,) for point in enumerate_crash_points(spec, restart_after)]
    return _explore_crash_plans(spec, plans, max_points, stop_on_violation)
