"""Global transactions and their state machines.

The state names follow the paper's Figures 2, 4 and 6: a global
transaction is *running* while its actions execute, *inquiring* while
prepare/status messages are out, then *waiting to commit* (Figs 2/4) or
*waiting to abort* (Fig 6) until every local reached its valid final
state, and finally *committed* or *aborted*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.mlt.actions import Operation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class GlobalTxnState(enum.Enum):
    """Global transaction states (union over the three figures)."""

    RUNNING = "running"
    INQUIRE = "inquire"
    WAITING_TO_COMMIT = "waiting_to_commit"
    WAITING_TO_ABORT = "waiting_to_abort"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class GlobalOutcome:
    """Result of one global transaction run."""

    gtxn_id: str
    committed: bool
    reason: str = ""
    submit_time: float = 0.0
    finish_time: float = 0.0
    reads: dict[str, Any] = field(default_factory=dict)
    sites: list[str] = field(default_factory=list)
    redo_executions: int = 0
    undo_executions: int = 0
    l0_retries: int = 0
    attempts: int = 1
    #: Aborted for a transient reason (lock conflict, victim selection)
    #: rather than by intent or transaction logic; the GTM may retry.
    retriable: bool = False
    #: (site, kind) of each routed operation, for the invariant audits.
    routed_ops: list[tuple[str, str]] = field(default_factory=list)

    @property
    def response_time(self) -> float:
        return self.finish_time - self.submit_time


class GlobalTransaction:
    """One global transaction under GTM control."""

    def __init__(
        self,
        kernel: "Kernel",
        gtxn_id: str,
        operations: list[Operation],
        origin: str = "central",
        traced: bool = True,
    ):
        self._kernel = kernel
        self.gtxn_id = gtxn_id
        self.operations = list(operations)
        self.origin = origin  # coordinating node (a pool shard, usually "central")
        self.state = GlobalTxnState.RUNNING
        self.submit_time = kernel.now
        self.decision: Optional[str] = None  # "commit" | "abort"
        if traced:  # recovery rebuilds transactions it did not begin: untraced
            self._trace()

    def set_state(self, state: GlobalTxnState, **details: Any) -> None:
        """Transition and trace (figure-conformance tests read these)."""
        self.state = state
        self._trace(**details)

    def set_decision(self, decision: str, **details: Any) -> None:
        """Record the global commit/abort decision at decision time."""
        self.decision = decision
        trace = self._kernel.trace
        if trace.enabled:
            trace.emit(
                "gtxn_decision", self.origin, self.gtxn_id, decision=decision, **details
            )

    def _trace(self, **details: Any) -> None:
        trace = self._kernel.trace
        if trace.enabled:
            trace.emit(
                "gtxn_state", self.origin, self.gtxn_id, state=self.state.value, **details
            )

    def sites(self) -> list[str]:
        """Sites touched, in first-use order (set by routing)."""
        seen: dict[str, None] = {}
        for operation in self.operations:
            if operation.site is not None:
                seen.setdefault(operation.site, None)
        return list(seen)

    def partitions(self) -> set[int]:
        """Data-plane partitions touched (empty outside placements).

        The rejoin drain consults this: a partition must quiesce before
        a returning replica is resynchronised.
        """
        return {
            operation.partition
            for operation in self.operations
            if operation.partition is not None
        }

    def __repr__(self) -> str:
        return f"<GlobalTransaction {self.gtxn_id} {self.state.value}>"
