"""Adding a protocol = one module + one registry row.

Throwaway protocols -- a :class:`TwoPhaseCommit` subclass and
:class:`CommitBefore` subclasses, each under a name of its own -- are
registered by monkeypatching ``PROTOCOL_REGISTRY`` for the duration of
a test.  No other module knows those names, so everything the rest of
the system does on a protocol's behalf must come from the registry row
and from what the class declares or inherits: the preparable sites,
what the vote request asks of a participant, the L1 table, the
restart-recovery and orphan-adoption policy.
"""

import pytest

from repro.check import CheckSpec, explore_crash_points
from repro.core.gtm import GTMConfig
from repro.core.invariants import atomicity_report, check_invariants, serializability_ok
from repro.core.protocols import PROTOCOL_REGISTRY, ProtocolInfo
from repro.core.protocols.commit_before import CommitBefore
from repro.core.protocols.two_phase import TwoPhaseCommit
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment

from tests.protocols.test_conformance_matrix import ACCOUNTS, run_battery


class EleventhCommit(TwoPhaseCommit):
    """2PC, verbatim, under a name nobody has heard of."""


class TwelfthCommit(CommitBefore):
    """Commit-before, verbatim, under a name nobody has heard of."""


ROWS = {
    "eleventh": ProtocolInfo(
        "eleventh", __name__, "EleventhCommit", "throwaway 2PC subclass",
        requires_prepare=True,
    ),
    "twelfth": ProtocolInfo(
        "twelfth", __name__, "TwelfthCommit", "throwaway commit-before subclass",
        requires_prepare=False, granularity="per_action",
        l1_table="semantic",
    ),
}


@pytest.fixture(params=sorted(ROWS))
def info(request, monkeypatch):
    row = ROWS[request.param]
    monkeypatch.setitem(PROTOCOL_REGISTRY, row.name, row)
    return row


def test_invariant_battery_with_a_site_crash(info):
    fed = run_battery(info.name, info.granularity, seed=311)
    assert type(fed.gtm.protocol) is info.load()
    assert fed.gtm.committed > 0
    assert check_invariants(fed, conserved=ACCOUNTS) == []
    if info.requires_prepare:
        # The participants really prepared (forced a ready record),
        # asked to by the request itself.
        assert fed.network.message_counts()["prepare"] > 0
        ready_sites = {
            record.site
            for record in fed.kernel.trace.records
            if record.category == "txn_state" and record.details["state"] == "ready"
        }
        assert ready_sites == set(fed.engines)


def test_crash_at_every_force_keeps_invariants(info):
    report = explore_crash_points(
        CheckSpec(protocol=info.name, granularity=info.granularity)
    )
    assert report.crash_points > 0
    assert report.violation_count == 0, (
        report.counterexample and report.counterexample.violations
    )


N_SITES, N_KEYS = 3, 16


def run_failover(info: ProtocolInfo) -> Federation:
    """12 two-site transfers over 3 coordinators; shard 1 crashes at t=4."""
    fed = Federation(
        [
            SiteSpec(
                f"s{i}",
                tables={f"t{i}": {f"k{j}": 100 for j in range(N_KEYS)}},
                preparable=info.requires_prepare,
            )
            for i in range(N_SITES)
        ],
        FederationConfig(
            seed=5, coordinators=3,
            gtm=GTMConfig(protocol=info.name, granularity=info.granularity),
        ),
    )
    fed.crash_site(fed.coordinators[1].name, at=4.0)
    fed.run_transactions(
        [
            {
                "operations": [
                    increment(f"t{n % N_SITES}", f"k{n}", -1),
                    increment(f"t{(n + 1) % N_SITES}", f"k{n}", 1),
                ],
                "delay": float(n),
            }
            for n in range(12)
        ]
    )
    fed.run()  # drain failover stragglers
    return fed


def test_coordinator_failover_settles_every_orphan(info):
    fed = run_failover(info)
    assert fed.pool.failovers_started == 1
    assert fed.pool.unresolved_orphans() == []
    assert atomicity_report(fed).ok
    assert serializability_ok(fed)
    assert sum(
        fed.peek(f"s{i}", f"t{i}", f"k{j}")
        for i in range(N_SITES)
        for j in range(N_KEYS)
    ) == N_SITES * N_KEYS * 100


class CountingCommit(CommitBefore):
    """Commit-before that counts how often its one inverse step runs."""

    inverse_steps = 0

    def _run_inverse(self, ctx, site, kind, marker_key, **rest):
        CountingCommit.inverse_steps += 1
        committed = yield from super()._run_inverse(ctx, site, kind, marker_key, **rest)
        return committed


def test_failover_resumes_the_protocols_own_inverse_step(monkeypatch):
    """One copy, proved: settling a crashed coordinator's commit-before
    orphans runs ``CommitBefore._run_inverse`` -- the step the live
    script uses -- and no mirror of it kept by the recovery manager."""
    row = ProtocolInfo(
        "counting", __name__, "CountingCommit", "commit-before counting inverses",
        requires_prepare=False, granularity="per_action",
        l1_table="semantic",
    )
    monkeypatch.setitem(PROTOCOL_REGISTRY, row.name, row)
    monkeypatch.setattr(CountingCommit, "inverse_steps", 0)
    fed = run_failover(row)
    assert fed.pool.metrics()["undo_executions"] == 0  # no live script undid anything
    redriven = sum(gtm.recovery.redriven_undos for gtm in fed.coordinators)
    assert redriven > 0
    assert CountingCommit.inverse_steps == redriven
    assert atomicity_report(fed).ok
