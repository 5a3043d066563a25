"""Three-phase commit ([Ske 81]) -- nonblocking extension baseline.

The paper's §5 notes a whole generation of 2PC derivatives, e.g.
nonblocking commit, at the price of more messages and log writes and of
*even deeper* changes to the local transaction managers.  This
implementation adds the pre-commit round between voting and the final
decision so the message/log complexity table (EXP-T5) can quantify that
price.  Like 2PC it runs only against preparable (modified) interfaces;
coordinator-failure takeover is out of scope here, as it is in the
paper.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.protocols.base import ProtocolContext
from repro.core.protocols.two_phase import TwoPhaseCommit


class ThreePhaseCommit(TwoPhaseCommit):
    """2PC with an acknowledged pre-commit round before the decision."""

    def decide(
        self, ctx: ProtocolContext, votes: dict[str, Any]
    ) -> Generator[Any, Any, tuple[str, str]]:
        # Phase 1 was can-commit?
        if not all(vote == "ready" for vote in votes.values()):
            ctx.gtxn.set_decision("abort")
            return "abort", "participant voted abort"
        # Phase 2: pre-commit -- the round that buys nonblocking-ness.
        yield from ctx.parallel(
            {
                site: ctx.request_until_answered(site, "pre_commit")
                for site in ctx.decomposition.sites
            }
        )
        # Phase 3 (do-commit) is 2PC's phase 2.
        ctx.gtxn.set_decision("commit")
        return "commit", ""
