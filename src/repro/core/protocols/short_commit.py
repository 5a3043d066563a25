"""Short-Commit -- 2PC with early lock release at commit-phase start.

After "Performance of Short-Commit in Extreme Database Environment"
(PAPERS.md): the dominant cost of 2PC is not the messages but the lock
*hold* time -- every participant keeps its exclusive locks through the
vote round-trip, the decision force and the commit force.  Short-Commit
shrinks that window: the moment a participant enters the commit phase
(it forced its prepare record and voted yes), it

* **releases its read locks** -- the reads are over, nothing they
  protect can change the vote; and
* **downgrades its write locks** from exclusive to shared -- readers
  may proceed against the prepared (uncommitted) values, while writers
  stay blocked so a later abort can still restore the before-images
  atomically.

The price is the §3.3 hazard in miniature: a reader that consumed a
prepared value takes a *dirty read* if the global decision turns out
to be abort.  The guard is the undo path of the engine: a downgraded
transaction is marked *exposed*, readers of its exposed pages pick up
a commit dependency, and the abort rolls the before-images back under
the still-held shared locks and **cascade-aborts** every active
dependent reader (retriable), while a dependent reader's own commit
waits until its exposers resolved.  Writers never see exposed values
(the shared lock blocks them), so the rollback can never clobber a
committed concurrent effect.

Messages and forces are exactly 2PC's (``4n`` / 2 per site); the gain
shows up in the lock-hold columns of EXP-T5b/T6.
"""

from __future__ import annotations

from typing import Any

from repro.core.protocols.two_phase import TwoPhaseCommit


class ShortCommit(TwoPhaseCommit):
    """2PC releasing read locks / downgrading write locks at vote time."""

    #: Seeded mutant (``repro.check --mutant short_release_all``):
    #: release the write locks outright instead of downgrading them.
    #: A concurrent writer can then interleave with the prepared
    #: values, and the checker must catch the resulting committed
    #: non-serializable history.
    short_release_all = False

    # The control flow is exactly 2PC's; only the vote request differs
    # (the participant short-releases before answering).

    @property
    def vote_request(self) -> dict[str, Any]:
        return {
            "ask": "ready",
            "short_release": "all" if self.short_release_all else "downgrade",
        }
