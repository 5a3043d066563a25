"""Run-time invariant checkers.

The paper's correctness obligations, verified on actual executions:

* **Global atomicity** -- every subtransaction of a committed global
  transaction took durable effect exactly once; the effects of an
  aborted global transaction are fully neutralized (never executed,
  locally aborted, or undone by a committed inverse transaction).
* **Global serializability** -- the union of per-site conflict graphs
  over global transactions is acyclic (checked through
  :mod:`repro.core.serializability`).
* **Conservation** -- a workload of balanced transfers leaves the total
  over the cells it declares unchanged.

The audits read each engine's committed op records (``committed_history``,
built once per :func:`check_invariants`): forward local transactions
carry their global transaction id, inverse transactions the id suffixed
with ``!undo``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.serializability import (
    OpRecord,
    committed_history,
    global_serializability,
    rw_conflict,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.integration.federation import Federation


@dataclass
class AtomicityViolationRecord:
    """One detected violation."""

    gtxn_id: str
    site: str
    kind: str  # "lost_execution" | "double_execution" | "unbalanced_undo"
    detail: str


@dataclass
class AtomicityReport:
    """Outcome of the global-atomicity audit."""

    checked: int = 0
    violations: list[AtomicityViolationRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _base_id(gtxn_id: str) -> str:
    """Strip the retry suffix (``G7~r2`` -> ``G7``)."""
    return gtxn_id.split("~", 1)[0]


Histories = Mapping[str, list[OpRecord]]


def _committed_histories(federation: "Federation") -> Histories:
    """Every site's committed history (site -> op records)."""
    return {site: committed_history(engine) for site, engine in federation.engines.items()}


def atomicity_report(federation: "Federation") -> AtomicityReport:
    """Audit every finished global transaction for exactly-once effects."""
    return _atomicity_report(federation, _committed_histories(federation))


def _atomicity_report(federation: "Federation", histories: Histories) -> AtomicityReport:
    report = AtomicityReport()
    # Per (gtxn, site): committed forward and committed inverse txn counts.
    committed_fw: dict[tuple[str, str], int] = {}
    committed_undo: dict[tuple[str, str], int] = {}
    for site, history in histories.items():
        counted: set[str] = set()
        for record in history:
            gtxn_id = record.gtxn_id
            if gtxn_id is None or record.txn_id in counted:
                continue
            if gtxn_id.endswith("!undo"):
                counts, key = committed_undo, (_base_id(gtxn_id[: -len("!undo")]), site)
            elif record.writes:
                counts, key = committed_fw, (_base_id(gtxn_id), site)
            else:
                continue  # read-only so far: owes no durable effect
            counted.add(record.txn_id)
            counts[key] = counts.get(key, 0) + 1

    # The §3.3 family runs one L0 transaction per action (saga and
    # altruistic whatever the configured granularity); every other
    # protocol one local transaction per site.
    per_action = federation.gtm.protocol.runs_per_action(federation.gtm.config)
    for outcome in _all_outcomes(federation):
        report.checked += 1
        base = _base_id(outcome.gtxn_id)
        for site in outcome.sites:
            forward = committed_fw.get((base, site), 0)
            undone = committed_undo.get((base, site), 0)
            ops_at_site = _write_ops_at_site(federation, outcome, site)
            if outcome.committed:
                expected = ops_at_site if per_action else 1
                if ops_at_site == 0:
                    continue  # read-only at this site: nothing durable owed
                # Retried attempts were neutralized by inverse txns, so
                # the *net* effect (forward minus undone) is what counts.
                effective = forward - undone
                if effective < expected:
                    report.violations.append(
                        AtomicityViolationRecord(
                            base, site, "lost_execution",
                            f"net {effective}/{expected} forward txns committed",
                        )
                    )
                elif effective > expected:
                    report.violations.append(
                        AtomicityViolationRecord(
                            base, site, "double_execution",
                            f"net {effective}/{expected} forward txns committed",
                        )
                    )
            else:
                # Aborted global transaction: committed forward effects
                # must be matched by committed inverse transactions.
                if forward != undone and ops_at_site > 0:
                    report.violations.append(
                        AtomicityViolationRecord(
                            base, site, "unbalanced_undo",
                            f"{forward} forward vs {undone} inverse committed",
                        )
                    )
    return report


def _all_outcomes(federation: "Federation"):
    """Outcomes across every coordinator shard (one shard in the seed)."""
    for gtm in getattr(federation, "coordinators", [federation.gtm]):
        yield from gtm.outcomes


def _write_ops_at_site(federation: "Federation", outcome, site: str) -> int:
    """How many writing operations the transaction aimed at ``site``.

    Reconstructed from the schema because the outcome does not keep the
    full routed operation list.
    """
    count = 0
    for op_site, op_kind in outcome.routed_ops:
        if op_site == site and op_kind != "read":
            count += 1
    return count


@dataclass
class InvariantViolation:
    """One violated correctness obligation, with a human-readable cause."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"


def convergence_violations(
    federation: "Federation", processes: list | None = None
) -> list[InvariantViolation]:
    """No-unresolved-in-doubt: every global transaction is terminal.

    After a run (and its recovery passes) there must be no unfinished
    submitter, no coordinator still driving a transaction, no orphaned
    in-doubt transaction no failover resolved, and no local
    subtransaction of a global transaction left non-terminal at a site.
    """
    violations = []
    for process in processes or []:
        if not process.done:
            violations.append(
                InvariantViolation("convergence", f"process {process.name} unfinished")
            )
    for gtm in getattr(federation, "coordinators", [federation.gtm]):
        for gtxn_id in sorted(gtm.active):
            violations.append(
                InvariantViolation(
                    "convergence", f"gtxn {gtxn_id} still active at {gtm.name}"
                )
            )
    pool = getattr(federation, "pool", None)
    if pool is not None:
        for gtxn_id in pool.unresolved_orphans():
            violations.append(
                InvariantViolation(
                    "convergence", f"gtxn {gtxn_id} orphaned in-doubt"
                )
            )
    for site, engine in federation.engines.items():
        for txn in engine.active_txns():
            if txn.gtxn_id:
                violations.append(
                    InvariantViolation(
                        "convergence",
                        f"{site}: local {txn.txn_id} of {txn.gtxn_id} non-terminal",
                    )
                )
    return violations


def dirty_undo_violations(federation: "Federation") -> list[InvariantViolation]:
    """No rollback may clobber a concurrent transaction's write.

    Strict protocols make this impossible (write locks are held to the
    end), and Short-Commit's downgrade keeps a shared lock that blocks
    writers until the exposer resolved.  Any recorded clobber means an
    early-release path let a foreign write land between a transaction's
    own write and its undo -- the §3.3 dirty-write hazard, which the
    ``short_release_all`` mutant reintroduces on purpose.
    """
    violations = []
    for site, engine in federation.engines.items():
        for txn_id, table, key in engine.undo_clobbers:
            violations.append(
                InvariantViolation(
                    "dirty_undo",
                    f"{site}: rollback of {txn_id} restored {table}[{key!r}] "
                    "over a foreign write",
                )
            )
    return violations


def lock_release_violations(federation: "Federation") -> list[InvariantViolation]:
    """Lock-release discipline: a quiescent system holds no locks.

    Checks every site's L0 lock table and the shared L1 table: any
    lock still held once no transaction is active means a protocol
    path (abort, undo, recovery) forgot its release.
    """
    violations = []
    for site, engine in federation.engines.items():
        for resource, state in engine.locks._resources.items():
            for holder in state.holders:
                violations.append(
                    InvariantViolation(
                        "lock_release", f"{site}: L0 {resource} held by {holder}"
                    )
                )
    l1 = federation.gtm.l1
    if l1 is not None:
        for resource, state in l1._resources.items():
            for holder in state.holders:
                violations.append(
                    InvariantViolation(
                        "lock_release", f"L1 {resource} held by {holder}"
                    )
                )
    return violations


def redo_drain_violations(federation: "Federation") -> list[InvariantViolation]:
    """§3.2 redo requirement, drained: no pending redo entry survives.

    Commit-after keeps a subtransaction's actions in the central
    redo-log until the site confirms durable commitment.  Once every
    global transaction is terminal, a pending entry means an erroneous
    local abort was never masked by redo -- exactly the protocol's one
    job.  Shards share the central log, so one check covers the pool.
    """
    violations = []
    for entry in federation.gtm.redo_log.pending():
        if federation.gtm.is_active(entry.gtxn_id):
            continue  # still being driven: not a drain violation yet
        violations.append(
            InvariantViolation(
                "redo_drain",
                f"redo entry {entry.gtxn_id}@{entry.site} never confirmed "
                f"({entry.redo_count} redos)",
            )
        )
    return violations


def undo_drain_violations(federation: "Federation") -> list[InvariantViolation]:
    """§3.3 undo requirement, drained: the central undo-log is empty.

    Every finished global transaction forgets its undo records (after
    running them, for aborts).  A surviving record of an inactive
    transaction is an inverse transaction that was owed and never ran.
    """
    violations = []
    for record in federation.gtm.undo_log.records:
        if federation.gtm.is_active(record.gtxn_id):
            continue
        violations.append(
            InvariantViolation(
                "undo_drain",
                f"undo record for {record.gtxn_id}@{record.site} "
                f"({record.operation}) never executed/forgotten",
            )
        )
    return violations


def inverse_order_violations(federation: "Federation") -> list[InvariantViolation]:
    """§3.3 inverse-transaction ordering: undo runs in reverse.

    For every globally aborted transaction whose committed forward
    effects at a site were neutralized by inverse transactions, the
    committed inverse operations must touch the undone keys in exactly
    the reverse of the forward execution order (reverse order is always
    safe; any other order is only sound for fully commuting actions,
    which this audit does not assume).

    Retried attempts re-execute forward operations, so the check is
    restricted to transactions with a single attempt, and skipped when
    the undo optimizer (which legally collapses inverses) is on.
    """
    return _inverse_order_violations(federation, _committed_histories(federation))


def _inverse_order_violations(
    federation: "Federation", histories: Histories
) -> list[InvariantViolation]:
    if federation.gtm.config.optimize_undo:
        return []
    violations = []
    forward: dict[tuple[str, str], list] = {}
    inverse: dict[tuple[str, str], list] = {}
    attempts: dict[str, set[str]] = {}
    for site, history in histories.items():
        for record in history:
            if not record.gtxn_id:
                continue
            if record.table.startswith("_"):
                # System tables (commit markers, ...): bookkeeping rows
                # keyed per direction, not forward effects being undone.
                continue
            if record.gtxn_id.endswith("!undo"):
                attempt = record.gtxn_id[: -len("!undo")]
                key = (_base_id(attempt), site)
                inverse.setdefault(key, []).append((record.table, record.key))
            elif record.kind != "read":
                key = (_base_id(record.gtxn_id), site)
                forward.setdefault(key, []).append((record.table, record.key))
                attempts.setdefault(_base_id(record.gtxn_id), set()).add(
                    record.gtxn_id
                )
    for key, undone in inverse.items():
        base, site = key
        if len(attempts.get(base, set())) != 1:
            continue  # retries interleave attempts; ordering is per attempt
        executed = forward.get(key, [])
        # The undone suffix of the forward sequence, reversed, is the
        # only order reverse-undo can produce.  A failure mid-forward
        # leaves a *prefix* executed, so compare against the reversed
        # prefix of matching length.
        expected = list(reversed(executed[: len(undone)]))
        if undone != expected:
            violations.append(
                InvariantViolation(
                    "inverse_order",
                    f"{base}@{site}: inverses ran {undone}, expected {expected} "
                    f"(reverse of forward order {executed})",
                )
            )
    return violations


def replica_convergence_violations(
    federation: "Federation",
) -> list[InvariantViolation]:
    """Data-plane replication: serving replicas are byte-converged.

    For every partition, every *serving* member (in the member list and
    currently up) must hold exactly the same records in the partition's
    local table.  Atomic commitment is supposed to give this for free --
    replicas are ordinary participants -- so a divergence means a write
    reached part of a replica set, an eviction raced a commit, or a
    rejoin skipped its resync.  Members that are down or evicted are
    excluded: they reconcile on rejoin, and *that* path is exactly what
    the exclusion must not mask once they serve again.

    No-op (empty list) for federations without a data plane.
    """
    dataplane = getattr(federation, "dataplane", None)
    if dataplane is None:
        return []
    violations = []
    for partition in dataplane.map.partitions:
        serving = [
            member
            for member in partition.members
            if not federation.nodes[member].crashed
        ]
        if len(serving) < 2:
            continue
        images = {
            member: sorted(
                (repr(key), repr(value))
                for key, value in dataplane.table_records(
                    member, partition.local_table
                ).items()
            )
            for member in serving
        }
        reference = images[serving[0]]
        for member in serving[1:]:
            if images[member] != reference:
                violations.append(
                    InvariantViolation(
                        "replica_convergence",
                        f"{partition.table}/p{partition.index}: {member} "
                        f"diverges from primary {serving[0]} "
                        f"(epoch {partition.epoch})",
                    )
                )
    return violations


def conservation_violations(
    federation: "Federation", conserved: Mapping[tuple[str, Any], int] | None
) -> list[InvariantViolation]:
    """Balanced transfers conserve the total over the declared cells.

    ``conserved`` maps every global cell ``(table, key)`` a workload
    moves value between to its initial value.  Each cell is read where
    it lives now (:meth:`~repro.integration.federation.Federation.locate`:
    its site, or its partition's primary); a missing cell reads 0.  A
    drift names the observed and expected totals and each site's delta,
    which points at the site that gained or lost.  Nothing declared,
    nothing checked.
    """
    if not conserved:
        return []
    deltas: dict[str, int] = {}
    for (table, key), initial in conserved.items():
        site, local_table = federation.locate(table, key)
        value = federation.peek(site, local_table, key) or 0
        deltas[site] = deltas.get(site, 0) + value - initial
    expected = sum(conserved.values())
    observed = expected + sum(deltas.values())
    if observed == expected:
        return []
    per_site = ", ".join(f"{site} {delta:+d}" for site, delta in sorted(deltas.items()))
    return [
        InvariantViolation(
            "conservation", f"total {observed} != {expected} (deltas: {per_site})"
        )
    ]


def check_invariants(
    federation: "Federation",
    processes: list | None = None,
    strict_serializability: bool = False,
    conserved: Mapping[tuple[str, Any], int] | None = None,
) -> list[InvariantViolation]:
    """Evaluate every correctness obligation on a finished execution.

    The shared predicate battery behind the property tests, the
    ``repro.check`` exploration engine and the chaos harness -- one
    implementation, so they can never drift apart.  A workload of
    balanced transfers declares its cells in ``conserved`` (see
    :func:`conservation_violations`).  Returns the (possibly empty) list
    of violations, most fundamental first.
    """
    violations: list[InvariantViolation] = []
    histories = _committed_histories(federation)
    report = _atomicity_report(federation, histories)
    for violation in report.violations:
        violations.append(
            InvariantViolation(
                "atomicity",
                f"{violation.kind}: {violation.gtxn_id}@{violation.site} "
                f"({violation.detail})",
            )
        )
    if not _serializable(federation, histories):
        violations.append(
            InvariantViolation(
                "serializability", "committed global history has a conflict cycle"
            )
        )
    if strict_serializability and not _serializable(federation, histories, strict=True):
        violations.append(
            InvariantViolation(
                "serializability_strict",
                "history with compensated pairs has a conflict cycle",
            )
        )
    violations.extend(convergence_violations(federation, processes))
    violations.extend(dirty_undo_violations(federation))
    violations.extend(lock_release_violations(federation))
    violations.extend(redo_drain_violations(federation))
    violations.extend(undo_drain_violations(federation))
    violations.extend(_inverse_order_violations(federation, histories))
    violations.extend(replica_convergence_violations(federation))
    violations.extend(conservation_violations(federation, conserved))
    return violations


def engine_quiescent_violations(engine) -> list[InvariantViolation]:
    """Site-local quiescence: no active transactions, no held locks.

    The engine-level slice of the federation predicates, usable by
    tests that drive a bare :class:`~repro.localdb.engine.LocalDatabase`
    (e.g. after crash recovery) without a federation around it.
    """
    violations = []
    for txn in engine.active_txns():
        violations.append(
            InvariantViolation(
                "engine_quiescent", f"{engine.site}: {txn.txn_id} still active"
            )
        )
    for resource, state in engine.locks._resources.items():
        for holder in state.holders:
            violations.append(
                InvariantViolation(
                    "engine_quiescent",
                    f"{engine.site}: lock {resource} held by {holder}",
                )
            )
    return violations


def serializability_ok(federation: "Federation", strict: bool = False) -> bool:
    """Is the committed global history serializable?

    The standard multidatabase criterion: the projection onto
    *globally committed* transactions must be conflict-serializable.
    Locally committed subtransactions of globally aborted transactions
    and their inverse transactions are neutralized pairs and excluded
    (their net effect is void -- that is what the atomicity audit
    verifies).

    With ``strict=True`` the compensated pairs stay in the history;
    then the conflict notion must come from the semantic table, and
    only protocols that hold their L1 locks through the undo (the
    paper's commit-before) pass -- early-release schemes like
    altruistic locking let other transactions slip between an
    erroneously committed transaction and its inverse, exactly the
    §3.3 serializability requirement.

    The conflict notion always matches the federation's concurrency
    control: semantic table => commuting increments do not conflict
    (§4.1); no L1 table (2PC, sagas) => classical read/write conflicts.
    """
    return _serializable(federation, _committed_histories(federation), strict)


def _serializable(federation: "Federation", histories: Histories, strict: bool = False) -> bool:
    table = federation.gtm.config.resolved_l1_table()
    conflicts = table.conflicts if table is not None else rw_conflict
    if not strict:
        committed = {
            outcome.gtxn_id
            for outcome in _all_outcomes(federation)
            if outcome.committed
        }
        histories = {
            site: [op for op in history if op.gtxn_id in committed]
            for site, history in histories.items()
        }
    return bool(global_serializability(histories, conflicts))
