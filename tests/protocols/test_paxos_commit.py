"""Paxos Commit protocol: fast path, cost parity, abort paths.

Federation-level behaviour of ``coordinator_mode="paxos"``: the
ballot-0 fast path commits through the acceptor group (never through
the classic decision log), the §4-style cost claim holds -- with F=0
exactly one forced write per committed transaction, the same as 2PC's
one decision force -- and aborts stay off the acceptor round entirely
(presumed abort needs no consensus).
"""

import pytest

from repro.core.gtm import GTMConfig
from repro.core.invariants import atomicity_report, serializability_ok
from repro.core.protocols import protocol_info
from repro.core.protocols.base import make_protocol
from repro.core.protocols.paxos_commit import PaxosCommit
from repro.integration.federation import Federation, FederationConfig, SiteSpec
from repro.mlt.actions import increment

N_SITES = 3
N_KEYS = 8


def build(
    protocol: str = "paxos",
    coordinators: int = 1,
    paxos_f: int = 1,
    seed: int = 7,
) -> Federation:
    preparable = protocol in ("2pc", "2pc-pa", "3pc", "paxos")
    specs = [
        SiteSpec(
            f"s{i}",
            tables={f"t{i}": {f"k{j}": 100 for j in range(N_KEYS)}},
            preparable=preparable,
        )
        for i in range(N_SITES)
    ]
    return Federation(
        specs,
        FederationConfig(
            seed=seed,
            latency=1.0,
            coordinators=coordinators,
            paxos_f=paxos_f,
            gtm=GTMConfig(protocol=protocol, granularity="per_site"),
        ),
    )


def workload(n: int = 6, spacing: float = 2.0) -> list[dict]:
    return [
        {
            "operations": [
                increment(f"t{index % N_SITES}", f"k{index % N_KEYS}", -1),
                increment(f"t{(index + 1) % N_SITES}", f"k{index % N_KEYS}", 1),
            ],
            "name": f"G{index}",
            "delay": index * spacing,
        }
        for index in range(n)
    ]


def test_registry_builds_paxos_commit():
    protocol = make_protocol("paxos")
    assert isinstance(protocol, PaxosCommit)
    assert protocol_info("paxos").requires_prepare


@pytest.mark.parametrize("coordinators", [1, 2])
@pytest.mark.parametrize("f", [0, 1, 2])
def test_happy_path_replicates_every_decision(f, coordinators):
    fed = build(coordinators=coordinators, paxos_f=f)
    outcomes = fed.run_transactions(workload())
    assert all(outcome.committed for outcome in outcomes)
    assert atomicity_report(fed).ok
    assert serializability_ok(fed)
    committed = sum(gtm.committed for gtm in fed.coordinators)
    assert committed == 6
    # One consensus instance per transaction: every acceptor of the
    # 2F+1 group forced exactly one ballot-0 acceptance per commit.
    assert fed.acceptors.total_forces() == committed * (2 * f + 1)
    # The classic decision log is bypassed entirely.
    assert all(gtm.decision_log.forces == 0 for gtm in fed.coordinators)


def test_f0_forced_write_parity_with_2pc():
    """The paper-cost claim: F=0 Paxos Commit forces like 2PC.

    Widely-spaced transactions (no group-decision batching) make the
    per-transaction force counts directly comparable: one hardened
    decision record under 2PC, one single-acceptor ballot-0 acceptance
    under Paxos Commit.
    """
    paxos = build(paxos_f=0)
    paxos_outcomes = paxos.run_transactions(workload(spacing=40.0))
    two_pc = build(protocol="2pc")
    reference_outcomes = two_pc.run_transactions(workload(spacing=40.0))
    assert all(o.committed for o in paxos_outcomes + reference_outcomes)
    assert paxos.acceptors.total_forces() == 6
    assert two_pc.gtm.decision_log.forces == 6
    assert paxos.acceptors.total_forces() == two_pc.gtm.decision_log.forces


def test_intended_abort_skips_the_acceptor_round():
    fed = build(paxos_f=1)
    batch = dict(workload(n=1)[0], intends_abort=True)
    outcomes = fed.run_transactions([batch])
    assert not outcomes[0].committed
    assert outcomes[0].reason == "intended abort"
    # Presumed abort: no consensus instance was ever started.
    assert fed.acceptors.total_forces() == 0
    assert fed.acceptors.decision_for("G0") is None
    assert atomicity_report(fed).ok


def test_acceptor_metrics_surface_in_federation_report():
    fed = build(paxos_f=1)
    fed.run_transactions(workload(n=2))
    report = fed.metrics()
    assert report["acceptors"]["acceptors"] == 3
    assert report["acceptors"]["acceptor_forces"] == 2 * 3
    # Shard 0 folds acceptor forces into its decision-force figure, so
    # pool-level dashboards keep one "decision durability cost" number.
    assert fed.gtm.metrics()["decision_forces"] == 2 * 3


def test_readonly_decomposition_still_commits():
    """Single-site transactions ride the same paxos path unharmed."""
    fed = build(paxos_f=1)
    outcomes = fed.run_transactions([
        {
            "operations": [increment("t0", "k0", -1), increment("t0", "k1", 1)],
            "name": "G0",
        }
    ])
    assert outcomes[0].committed
    assert fed.acceptors.decision_for("G0") == "commit"
