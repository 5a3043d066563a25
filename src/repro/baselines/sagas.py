"""Sagas [GS 87] -- compensation without global serializability.

"Compensating local transactions are used to undo committed local
transactions, but global serializability is not ensured" (§5).  The
execution shape is commit-before per-site -- locals commit as soon as
they finish, compensation runs on failure -- but the GTM installs **no
L1 lock table** for this protocol, so conflicting global transactions
interleave freely between a saga's steps.  EXP-B1 shows the resulting
serialization-graph cycles, which the paper's commit-before protocol
(with its L1 locks) never produces.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.protocols.base import ProtocolContext
from repro.core.protocols.commit_before import CommitBefore


class SagaCoordinator(CommitBefore):
    """Commit-before execution with compensation and no global locks."""

    # Per-action stepping maximizes interleaving, which is both the
    # saga model's appeal (each step is a committed transaction) and
    # its weakness (no isolation between steps).
    fixed_granularity = "per_action"

    def run(self, ctx: ProtocolContext) -> Generator[Any, Any, None]:
        assert ctx.l1 is None, "sagas run without global concurrency control"
        yield from self._run_per_action(ctx)
