"""Serialization-graph tools.

Builds conflict graphs from operation histories and checks
(conflict-)serializability, both per level and globally across sites.
Also implements the weaker *quasi-serializability* criterion of Du &
Elmagarmid, used to classify the histories the saga baseline produces.

The graph is linear: per object, a *run* is a maximal sequence of
mutually commuting ops (reads; semantic increments), and each op gets an
edge from every op of the run before its own, bar same-transaction
pairs.  If commuting is transitive (``build_graph`` checks), each edge is
a real conflict and all others follow by chains through the runs between,
so verdicts, cycles and serial orders match the all-pairs graph's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, Optional


class OpRecord:
    """One executed data operation: the history every audit reads.

    A hand-written ``__slots__`` class, as the log records are
    (``repro.storage.wal.LogRecord``): every data operation builds one,
    and a frozen dataclass pays one ``object.__setattr__`` per field.
    It keeps keyword construction, field-by-field equality with the
    matching hash, and the dataclass ``repr``; it is immutable by
    convention.
    """

    __slots__ = ("seq", "txn_id", "gtxn_id", "kind", "table", "key")

    def __init__(
        self,
        seq: int,
        txn_id: str,
        gtxn_id: Optional[str],
        kind: str,  # "read" | "write" | "increment" | "insert" | "delete" | L1+ kinds
        table: str,
        key: Any,
    ):
        self.seq = seq
        self.txn_id = txn_id
        self.gtxn_id = gtxn_id
        self.kind = kind
        self.table = table
        self.key = key

    @property
    def writes(self) -> bool:
        return self.kind != "read"

    def node(self, by_gtxn: bool) -> str:
        """Graph node: the global id if ``by_gtxn`` and it has one, else the local id."""
        return (self.gtxn_id or self.txn_id) if by_gtxn else self.txn_id

    def _astuple(self) -> tuple:
        return (self.seq, self.txn_id, self.gtxn_id, self.kind, self.table, self.key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"OpRecord({body})"


def committed_history(engine) -> list[OpRecord]:
    """The op records of an engine's committed local transactions, in order."""
    committed = engine.committed_txn_ids
    return [record for record in engine.op_history if record.txn_id in committed]


def rw_conflict(kind_a: str, kind_b: str) -> bool:
    """Classical read/write conflict: at least one side writes."""
    return not (kind_a == "read" and kind_b == "read")


@dataclass
class SerializabilityReport:
    """Result of a serializability check."""

    serializable: bool
    cycle: Optional[list[str]] = None
    serial_order: Optional[list[str]] = None
    edges: list[tuple[str, str]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.serializable


class ConflictGraph(dict):
    """Transaction -> its successors, insertion-ordered: deterministic."""

    @property
    def nodes(self) -> list[str]:
        return list(self)

    @property
    def edges(self) -> list[tuple[str, str]]:
        return [(src, dst) for src, out in self.items() for dst in out]

    def add_edge(self, src: str, dst: str) -> None:
        self.setdefault(src, {})[dst] = None
        self.setdefault(dst, {})

    def merge(self, other: ConflictGraph) -> None:
        for txn, out in other.items():
            self.setdefault(txn, {}).update(out)

    def report(self) -> SerializabilityReport:
        """One iterative DFS: a cycle, or else a topological order."""
        on_path: dict[Optional[str], bool] = {}  # False once finished
        finished: list[Optional[str]] = []
        stack = [(None, iter(self))]  # a virtual root: before every node, finished last
        while stack:
            for nxt in stack[-1][1]:
                if nxt not in on_path:
                    on_path[nxt] = True
                    stack.append((nxt, iter(self[nxt])))
                    break
                if on_path[nxt]:
                    path = [node for node, _ in stack]
                    cycle = path[path.index(nxt) :] + [nxt]
                    return SerializabilityReport(False, cycle=cycle, edges=self.edges)
            else:
                finished.append(stack.pop()[0])
                on_path[finished[-1]] = False
        return SerializabilityReport(True, serial_order=finished[-2::-1], edges=self.edges)


def build_graph(
    ops: Iterable[OpRecord],
    conflicts: Callable[[str, str], bool] = rw_conflict,
    by_gtxn: bool = False,
) -> ConflictGraph:
    """Conflict graph: T2 is reachable from T1 iff an op of T1 precedes
    a conflicting op of T2 on the same object (adjacent runs linked);
    nodes are named by :meth:`OpRecord.node`."""
    graph = ConflictGraph()
    # object -> kinds, txns of the run before the current one, then of the current one
    runs: dict[tuple[str, Any], list[dict[str, None]]] = {}
    for op in sorted(ops, key=attrgetter("seq")):
        txn = op.node(by_gtxn)
        graph.setdefault(txn, {})
        run = runs.setdefault((op.table, op.key), [{}, {}, {}, {}])
        if not run[2] or conflicts(next(iter(run[2])), op.kind):
            run[:] = run[2], run[3], {}, {}  # op starts a new run
        before_kinds, before_txns, kinds, txns = run
        odd = [k for k in kinds if conflicts(k, op.kind)]
        odd += [k for k in before_kinds if not conflicts(k, op.kind)]
        if odd:
            raise ValueError(f"commutativity is not transitive: {odd[0]!r} vs {op.kind!r}")
        for before in before_txns:
            if before != txn:
                graph.add_edge(before, txn)
        kinds[op.kind] = txns[txn] = None
    return graph


def check(
    ops: Iterable[OpRecord],
    conflicts: Callable[[str, str], bool] = rw_conflict,
    by_gtxn: bool = False,
) -> SerializabilityReport:
    """Full serializability report for one history."""
    return build_graph(ops, conflicts, by_gtxn).report()


# ---------------------------------------------------------------------------
# Multi-site checks
# ---------------------------------------------------------------------------


def global_serializability(
    site_histories: dict[str, list[OpRecord]],
    conflicts: Callable[[str, str], bool] = rw_conflict,
    by_gtxn: bool = True,
) -> SerializabilityReport:
    """Global conflict-serializability across sites.

    Transactions named identically on different sites (the global
    transaction ids attached to subtransactions) are one node; the
    union of all per-site conflict edges must be acyclic.  This is the
    criterion the saga baseline violates (EXP-B1) and the paper's
    protocols preserve.
    """
    union = ConflictGraph()
    for history in site_histories.values():
        union.merge(build_graph(history, conflicts, by_gtxn))
    return union.report()


def quasi_serializability(
    site_histories: dict[str, list[OpRecord]],
    global_txns: set[str],
    conflicts: Callable[[str, str], bool] = rw_conflict,
    by_gtxn: bool = True,
) -> SerializabilityReport:
    """Du & Elmagarmid's quasi-serializability.

    Requires (1) every local history serializable and (2) a total order
    of *global* transactions consistent with each local serialization
    order -- i.e. the union of per-site direct conflict edges projected
    onto global transactions is acyclic.  Indirect orderings through
    purely local transactions are deliberately ignored; that is the
    weakening relative to global serializability.
    """
    projected = ConflictGraph()
    projected.update((txn, {}) for txn in sorted(global_txns))
    for history in site_histories.values():
        local_report = check(history, conflicts, by_gtxn)
        if not local_report.serializable:
            return SerializabilityReport(False, cycle=local_report.cycle)
        # Restricted first: the linear graph may route G1 -> G2 through a local txn.
        restricted = [op for op in history if op.node(by_gtxn) in global_txns]
        projected.merge(build_graph(restricted, conflicts, by_gtxn))
    return projected.report()
