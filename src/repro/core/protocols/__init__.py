"""Atomic commitment protocols.

Classified, as in the paper, by when locals commit relative to the
global decision:

* :class:`~repro.core.protocols.two_phase.TwoPhaseCommit` -- decision
  *in the middle* of local commitment (Figure 3); needs modified TMs.
* :class:`~repro.core.protocols.commit_after.CommitAfter` -- locals
  commit *after* the decision (Figure 5); redo requirement.
* :class:`~repro.core.protocols.commit_before.CommitBefore` -- locals
  commit *before* the decision (Figure 7); undo requirement; combined
  with multi-level transactions it adds no overhead.
* :class:`~repro.core.protocols.three_phase.ThreePhaseCommit` --
  nonblocking extension ([Ske 81]), for completeness.
* :class:`~repro.core.protocols.one_phase.OnePhaseCommit` -- logless
  1PC in the "To Vote Before Decide" style: the vote rides on the last
  operation's reply, the decision needs no extra voting round.
* :class:`~repro.core.protocols.short_commit.ShortCommit` -- 2PC that
  releases read locks and downgrades write locks when a participant
  enters the commit phase (Short-Commit).

The **registry** below is the single source of truth for the protocol
matrix.  ``__main__.PROTOCOLS``, ``repro.check.CHECK_PROTOCOLS``,
``repro.faults.CHAOS_PROTOCOLS``, the benchmarks' preparable checks
and the GTM's L1-table selection are all derived from it, so adding a
protocol here automatically enrolls it in every harness -- and the
conformance-matrix test fails loudly if a consumer list drifts.  A
protocol is one module plus one row: behaviour is never keyed on the
name elsewhere (see :class:`~repro.core.protocols.base.CommitProtocol`).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Optional

from repro.core.protocols.base import CommitProtocol, ProtocolContext, make_protocol
from repro.core.protocols.commit_after import CommitAfter
from repro.core.protocols.commit_before import CommitBefore
from repro.core.protocols.two_phase import TwoPhaseCommit


@dataclass(frozen=True)
class ProtocolInfo:
    """Everything the harnesses need to know about one protocol."""

    #: short name used in configs, CLIs, traces and reports
    name: str
    #: import path of the implementing class (loaded lazily)
    module: str
    class_name: str
    #: one-line classification for ``--help`` and docs
    summary: str
    #: True if the local TMs must expose a ready state
    requires_prepare: bool
    #: the protocol's natural decomposition granularity
    granularity: str = "per_site"
    #: L1 lock table the GTM must run (None | "read_write" | "semantic")
    l1_table: Optional[str] = None
    #: locals wait for the decision in the *running* state, so an
    #: autonomous abort between vote and decision must be redone (§3.2)
    redo_window: bool = False
    #: guarantees globally serializable committed histories (the saga
    #: baseline trades this away by design)
    serializable: bool = True
    #: swept by ``repro.check`` (CHECK_PROTOCOLS)
    in_check: bool = True
    #: swept by the chaos harness (CHAOS_PROTOCOLS)
    in_chaos: bool = True
    #: seeded protocol-specific bugs wired into ``repro.check --mutant``
    mutants: tuple[str, ...] = field(default=())

    def load(self) -> type[CommitProtocol]:
        return getattr(importlib.import_module(self.module), self.class_name)


#: Registry order is the paper-narrative order (it drives the demo and
#: ``__main__.PROTOCOLS``); derived matrices sort by name.
PROTOCOL_REGISTRY: dict[str, ProtocolInfo] = {
    info.name: info
    for info in (
        ProtocolInfo(
            "before", "repro.core.protocols.commit_before", "CommitBefore",
            "locals commit before the decision; inverse-transaction undo (§3.3)",
            requires_prepare=False, granularity="per_action",
            l1_table="semantic",
        ),
        ProtocolInfo(
            "after", "repro.core.protocols.commit_after", "CommitAfter",
            "decision first, locals commit afterwards; redo requirement (§3.2)",
            requires_prepare=False, l1_table="read_write", redo_window=True,
        ),
        ProtocolInfo(
            "2pc", "repro.core.protocols.two_phase", "TwoPhaseCommit",
            "classic two-phase commit; needs modified (preparable) TMs",
            requires_prepare=True,
        ),
        ProtocolInfo(
            "2pc-pa", "repro.core.protocols.presumed_abort", "PresumedAbort2PC",
            "presumed-abort 2PC with the read-only optimization",
            requires_prepare=True,
        ),
        ProtocolInfo(
            "3pc", "repro.core.protocols.three_phase", "ThreePhaseCommit",
            "nonblocking three-phase commit ([Ske 81])",
            requires_prepare=True,
        ),
        ProtocolInfo(
            "paxos", "repro.core.protocols.paxos_commit", "PaxosCommit",
            "replicated coordinator decisions (Paxos Commit)",
            requires_prepare=True, in_chaos=False,
        ),
        ProtocolInfo(
            "saga", "repro.baselines.sagas", "SagaCoordinator",
            "compensation-based baseline; no global serializability",
            requires_prepare=False, granularity="per_action",
            serializable=False, in_check=False, in_chaos=False,
        ),
        ProtocolInfo(
            "altruistic", "repro.baselines.altruistic", "AltruisticCommit",
            "altruistic locking baseline over per-action locals",
            requires_prepare=False, granularity="per_action",
            l1_table="read_write", in_check=False, in_chaos=False,
        ),
        ProtocolInfo(
            "one_phase", "repro.core.protocols.one_phase", "OnePhaseCommit",
            "logless 1PC: vote piggybacked on the last operation's reply",
            requires_prepare=False, l1_table="read_write", redo_window=True,
            mutants=("presume_commit",),
        ),
        ProtocolInfo(
            "short_commit", "repro.core.protocols.short_commit", "ShortCommit",
            "2PC releasing read locks / downgrading write locks at commit start",
            requires_prepare=True,
            mutants=("short_release_all",),
        ),
    )
}


def protocol_names() -> tuple[str, ...]:
    """All registered protocol names, in paper-narrative order."""
    return tuple(PROTOCOL_REGISTRY)


def protocol_info(name: str) -> ProtocolInfo:
    if name not in PROTOCOL_REGISTRY:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {sorted(PROTOCOL_REGISTRY)}"
        )
    return PROTOCOL_REGISTRY[name]


def preparable_protocols() -> frozenset[str]:
    """Names whose sites must be built with a preparable (modified) TM."""
    return frozenset(
        info.name for info in PROTOCOL_REGISTRY.values() if info.requires_prepare
    )


def redo_window_protocols() -> frozenset[str]:
    """Protocols whose locals may erroneously abort between vote and decision."""
    return frozenset(
        info.name for info in PROTOCOL_REGISTRY.values() if info.redo_window
    )


def default_granularity(name: str) -> str:
    return protocol_info(name).granularity


def check_matrix() -> list[tuple[str, str]]:
    """(protocol, granularity) pairs the checker sweeps, sorted by name."""
    return sorted(
        (info.name, info.granularity)
        for info in PROTOCOL_REGISTRY.values()
        if info.in_check
    )


def chaos_matrix_protocols() -> list[tuple[str, str]]:
    """(protocol, granularity) pairs the chaos harness sweeps, sorted by name."""
    return sorted(
        (info.name, info.granularity)
        for info in PROTOCOL_REGISTRY.values()
        if info.in_chaos
    )


def protocol_mutants() -> dict[str, str]:
    """Mutant name -> the protocol it targets (for spec validation)."""
    return {
        mutant: info.name
        for info in PROTOCOL_REGISTRY.values()
        for mutant in info.mutants
    }


__all__ = [
    "CommitAfter",
    "CommitBefore",
    "CommitProtocol",
    "PROTOCOL_REGISTRY",
    "ProtocolContext",
    "ProtocolInfo",
    "TwoPhaseCommit",
    "chaos_matrix_protocols",
    "check_matrix",
    "default_granularity",
    "make_protocol",
    "preparable_protocols",
    "protocol_info",
    "protocol_mutants",
    "protocol_names",
    "redo_window_protocols",
]
